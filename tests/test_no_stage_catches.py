"""A list's validity is asked, not caught: no module of the package has an
``except`` clause that names ``InvalidPassListError``. Code that may hold an
invalid list asks ``PassVocabulary.problem``; ``PassList`` raises the error
only to guard the compile contract."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "passtune"


def caught_names(handler):
    """The names an ``except`` clause's type expression mentions."""
    if handler.type is None:
        return set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(handler.type)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_no_module_catches_an_invalid_pass_list():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and "InvalidPassListError" in caught_names(node)
    ]
    assert not found, "except InvalidPassListError at:\n" + "\n".join(found)
