"""Shared backend interface and result types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from passtune.backend.classify import IrDiagnostic, diagnostic_from_message
from passtune.backend.passlist import PassList, PassVocabulary
from passtune.ircore import NormalizedIr, normalize


class BackendUnavailableError(RuntimeError):
    """The backend cannot run at all (missing executable, bad install)."""


class CompileTimeoutError(RuntimeError):
    """A single compilation exceeded its wall-clock limit."""


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


@runtime_checkable
class Backend(Protocol):
    """Anything that can apply a pass list to normalized IR."""

    @property
    def vocabulary(self) -> PassVocabulary: ...

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome: ...


def compile_items(
    backend: Backend, ir: NormalizedIr, items: tuple[str, ...]
) -> CompileOutcome:
    """The one compile path: apply ``items`` to ``ir`` on ``backend``.

    A compilation that exceeds its time limit is charged as one failed
    compilation, like any other failure, so no stage dies of a hang.
    """
    try:
        return backend.apply(ir, PassList(items, backend.vocabulary))
    except CompileTimeoutError as err:
        return CompileOutcome.failure(diagnostic_from_message(str(err)))


def verify_ir(backend: Backend, text: str) -> CompileOutcome:
    """Check that text is acceptable IR by compiling with no passes."""
    return compile_items(backend, normalize(text), ())
