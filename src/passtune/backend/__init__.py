"""Compiler backends and the contract they share.

Two backends implement :class:`Backend`:

- :class:`~passtune.backend.llvm.LlvmBackend` compiles with LLVM's
  ``opt``: in long-lived optd servers where they build (LLVM 14), else
  one ``opt`` process per compile; the route is fixed when it is built.
- :class:`~passtune.backend.mini.MiniBackend` is a small hermetic
  compiler for an LLVM-shaped subset, used for fast deterministic tests
  and demos.

The contract: :meth:`Backend.apply` returns a :class:`CompileOutcome` for
every compilation, and a compile that fails for any reason (bad input,
optimizer error, time limit) is a failed outcome carrying a category from
the diagnostic taxonomy in :mod:`passtune.backend.classify`, never an
exception. Only :class:`BackendUnavailableError`, a backend that cannot
run at all, is raised. Every stage compiles through :func:`compile_items`,
which checks the flags against the backend's vocabulary once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from passtune.backend.classify import IrDiagnostic
from passtune.backend.passlist import PassList, PassVocabulary
from passtune.ircore import NormalizedIr


class BackendUnavailableError(RuntimeError):
    """The backend cannot run at all (missing executable, bad install)."""


@dataclass(frozen=True)
class CompileOutcome:
    """Result of applying one pass list to one function.

    Exactly one of ``output`` (success) or ``diagnostic`` (failure) is
    set. ``instruction_count`` is the count of the optimized output and
    is ``None`` on failure.
    """

    ok: bool
    output: Optional[NormalizedIr]
    instruction_count: Optional[int]
    diagnostic: Optional[IrDiagnostic]

    def __post_init__(self) -> None:
        if self.ok:
            if self.output is None or self.instruction_count is None:
                raise ValueError("successful outcome needs output and count")
            if self.diagnostic is not None:
                raise ValueError("successful outcome cannot carry a diagnostic")
        else:
            if self.diagnostic is None:
                raise ValueError("failed outcome needs a diagnostic")
            if self.output is not None or self.instruction_count is not None:
                raise ValueError("failed outcome cannot carry output")

    @classmethod
    def success(cls, output: NormalizedIr, instruction_count: int) -> "CompileOutcome":
        return cls(True, output, instruction_count, None)

    @classmethod
    def failure(cls, diagnostic: IrDiagnostic) -> "CompileOutcome":
        return cls(False, None, None, diagnostic)


class Backend(Protocol):
    """Anything that can apply a pass list to normalized IR.

    ``vocabulary`` is a plain attribute, settled when the backend is built,
    and ``passes`` arrives already checked against it. The stages call
    ``apply`` on forked worker processes, up to the usable CPUs by default
    (see :func:`passtune.util.map_in_order`), so a backend that starts
    something in a worker stops it there when the worker exits (see
    :func:`passtune.util.at_worker_exit`). A process that already runs
    other threads calls ``apply`` inline.
    """

    vocabulary: PassVocabulary

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome: ...


def compile_items(
    backend: Backend, ir: NormalizedIr, items: tuple[str, ...]
) -> CompileOutcome:
    """The one compile path: apply ``items`` to ``ir`` on ``backend``.

    ``items`` are checked against the backend's vocabulary here, once.
    """
    return backend.apply(ir, PassList(items, backend.vocabulary))
