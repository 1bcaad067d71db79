"""Every name has one home: ``from passtune.X import N`` names the module
that defines ``N``, never one that only imports it from elsewhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = ("src", "tests", "demos", "perfbench")


def module_file(module):
    """The source file of a ``passtune`` module, or ``None``."""
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def defined_names(path):
    """The names a module's top-level ``def``, ``class`` and assignments bind."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def borrowed_imports():
    """``file:line: from X import N`` for each ``N`` that ``X`` does not define."""
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and node.module.split(".")[0] == "passtune"
                ):
                    continue
                home = module_file(node.module)
                defined = defined_names(home) if home else set()
                for alias in node.names:
                    if alias.name in defined or module_file(f"{node.module}.{alias.name}"):
                        continue
                    found.append(
                        f"{path.relative_to(ROOT)}:{node.lineno}:"
                        f" from {node.module} import {alias.name}"
                    )
    return found


def test_every_passtune_import_names_the_module_that_defines_the_name():
    borrowed = borrowed_imports()
    header = "names imported from a module that does not define them:"
    assert not borrowed, "\n".join([header, *borrowed])
