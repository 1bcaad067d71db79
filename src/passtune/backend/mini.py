"""Hermetic backend over the small IR.

Applies a pass list in-process: parse, verify, run the pipeline, render
back to text. The input is already normalized (``NormalizedIr`` is made
once, where a corpus enters the program) and the renderer writes the
canonical form, so neither side is normalized again here. Malformed input
becomes a classified failure outcome; a pipeline that produces
unverifiable output is a bug and raises instead.
"""

from __future__ import annotations

from functools import lru_cache

from passtune.backend.classify import diagnostic_from_message
from passtune.backend.mini_ir import (
    Function,
    MiniIrError,
    parse_function,
    render_function,
    verify_function,
)
from passtune.backend.mini_passes import PASSES, run_pipeline
from passtune.backend.passlist import PassList, PassVocabulary
from passtune.backend.types import CompileOutcome
from passtune.ircore import NormalizedIr, count_instructions

# Not called here: the name stays bound because perfbench's tracer test wraps it.
from passtune.ircore import normalize  # noqa: F401

MINI_META_FLAGS = ("-Oz",)


def mini_vocabulary() -> PassVocabulary:
    return PassVocabulary(tuple(PASSES), MINI_META_FLAGS)


@lru_cache(maxsize=1024)
def _parsed(text: str) -> Function:
    fn = parse_function(text)
    verify_function(fn)
    return fn


class MiniBackend:
    """In-process compiler for the small IR subset."""

    def __init__(self) -> None:
        self._vocabulary = mini_vocabulary()

    @property
    def vocabulary(self) -> PassVocabulary:
        return self._vocabulary

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome:
        for flag in passes:
            if flag not in self._vocabulary:
                raise ValueError(f"flag {flag!r} is not in this backend's vocabulary")
        try:
            fn = _parsed(ir.text)
        except MiniIrError as err:
            return CompileOutcome.failure(diagnostic_from_message(str(err)))
        optimized = run_pipeline(fn, passes.items)  # run_pipeline copies
        try:
            verify_function(optimized)
        except MiniIrError as err:  # pragma: no cover - pass bug guard
            raise RuntimeError(
                f"pipeline {passes.render()!r} produced invalid IR: {err}"
            ) from err
        out = NormalizedIr(render_function(optimized))
        return CompileOutcome.success(out, count_instructions(out))
