"""Compiler backends: apply a pass list to IR and report the outcome.

Two implementations share one interface:

- :class:`~passtune.backend.llvm.LlvmBackend` drives an external ``opt``
  executable over a subprocess.
- :class:`~passtune.backend.mini.MiniBackend` is a small hermetic
  compiler for an LLVM-shaped subset, used for fast deterministic tests
  and demos.

Both return :class:`CompileOutcome`; failures carry a category from the
shared diagnostic taxonomy in :mod:`passtune.backend.classify`.
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
    CompileTimeoutError,
    compile_items,
    verify_ir,
)

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "CompileOutcome",
    "CompileTimeoutError",
    "ErrorCategory",
    "InvalidPassListError",
    "IrDiagnostic",
    "PassList",
    "PassVocabulary",
    "classify_error",
    "compile_items",
    "llvm10_vocabulary",
    "verify_ir",
]
