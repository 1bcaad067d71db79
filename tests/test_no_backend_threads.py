"""One worker carrier: no module under ``passtune`` imports
``concurrent.futures``, so ``util.map_in_order`` runs workers inline or on
forked processes and never on threads; and a backend is settled when it is
built: no module under ``passtune.backend`` imports ``threading``. A
backend's state is set in ``__init__``, so no lock guards a choice that
workers could race to make."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "passtune"


def imported_modules(node):
    """The modules an ``import`` or ``from ... import`` statement names, with
    every package above them: ``concurrent.futures`` gives ``concurrent``
    and ``concurrent.futures``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return set()
    parts = [name.split(".") for name in names]
    return {".".join(words[:n]) for words in parts for n in range(1, len(words) + 1)}


def imports_of(root, module):
    """``path:line`` of every import of ``module`` in the sources under ``root``."""
    return [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if module in imported_modules(node)
    ]


def test_no_backend_module_imports_threading():
    found = imports_of(PACKAGE / "backend", "threading")
    assert not found, "threading imported at:\n" + "\n".join(found)


def test_no_module_imports_concurrent_futures():
    found = imports_of(PACKAGE, "concurrent.futures")
    assert not found, "concurrent.futures imported at:\n" + "\n".join(found)

