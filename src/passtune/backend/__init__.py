"""Compiler backends: apply a pass list to IR and report the outcome.

Two implementations share one interface:

- :class:`~passtune.backend.llvm.LlvmBackend` drives an external ``opt``
  executable over a subprocess.
- :class:`~passtune.backend.mini.MiniBackend` is a small hermetic
  compiler for an LLVM-shaped subset, used for fast deterministic tests
  and demos.

Both return a :class:`CompileOutcome` for every compilation, and every
failed compile, a time limit included, is a failed outcome carrying a
category from the shared diagnostic taxonomy in
:mod:`passtune.backend.classify`. Callers compile through
:func:`compile_items`, which checks the flags against the backend's
vocabulary once.
"""

from passtune.backend.classify import ErrorCategory, IrDiagnostic, classify_error
from passtune.backend.passlist import (
    InvalidPassListError,
    PassList,
    PassVocabulary,
    llvm10_vocabulary,
)
from passtune.backend.types import (
    Backend,
    BackendUnavailableError,
    CompileOutcome,
    compile_items,
)

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "CompileOutcome",
    "ErrorCategory",
    "InvalidPassListError",
    "IrDiagnostic",
    "PassList",
    "PassVocabulary",
    "classify_error",
    "compile_items",
    "llvm10_vocabulary",
]
