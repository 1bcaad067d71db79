"""A backend is settled when it is built: no module under ``passtune.backend``
imports ``threading``. Its state is set in ``__init__``, so no lock guards
a choice that worker threads could race to make; only ``util.map_in_order``
decides what runs on threads."""

import ast
from pathlib import Path

BACKEND = Path(__file__).resolve().parents[1] / "src" / "passtune" / "backend"


def imported_modules(node):
    """The top-level modules an ``import`` or ``from ... import`` statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_no_backend_module_imports_threading():
    found = [
        f"{path.relative_to(BACKEND.parents[1])}:{node.lineno}"
        for path in sorted(BACKEND.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if "threading" in imported_modules(node)
    ]
    assert not found, "threading imported at:\n" + "\n".join(found)
