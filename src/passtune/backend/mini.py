"""Hermetic backend over the small IR.

Applies a pass list in-process as a walk over (state, pass) steps, where a
state is the rendered text of the function. Each backend memoizes the
steps it has taken and the instruction count of each output it has
verified, both bounded at :data:`MEMO_ENTRIES` and cleared when full.
A compile follows the step memo as far as it reaches; at the first miss
it takes up one live ``Function`` (a copy of the parsed input, or one
parse of the last state reached) and runs the remaining passes on it,
rendering after each pass to key the step. The final state is verified
once, unless the output memo already holds it, so every output returned
has passed ``verify_function``.

The input is already normalized (``NormalizedIr`` is made once, where a
corpus enters the program) and the renderer writes the canonical form, so
neither side is normalized again here. Malformed input becomes a
classified failure outcome; a pipeline that produces unverifiable output
is a bug and raises instead.
"""

from __future__ import annotations

from functools import lru_cache

from passtune.backend.classify import diagnostic_from_message
from passtune.backend.mini_ir import (
    Function,
    MiniIrError,
    clone_function,
    parse_function,
    render_function,
    verify_function,
)
from passtune.backend.mini_passes import META_PIPELINES, PASSES, expand_flags
from passtune.backend.passlist import PassList, PassVocabulary
from passtune.backend.types import CompileOutcome
from passtune.ircore import NormalizedIr, count_instructions

# Not called here: the name stays bound because perfbench's tracer test wraps it.
from passtune.ircore import normalize  # noqa: F401

# Entries per memo; a full memo is cleared. A larger bound costs memory
# and gains no speed on the benchmark workloads.
MEMO_ENTRIES = 512


def mini_vocabulary() -> PassVocabulary:
    return PassVocabulary(tuple(PASSES), tuple(META_PIPELINES))


@lru_cache(maxsize=1024)
def _parsed(text: str) -> Function:
    fn = parse_function(text)
    verify_function(fn)
    return fn


def _remember(memo: dict, key, value) -> None:
    if len(memo) >= MEMO_ENTRIES:
        memo.clear()
    memo[key] = value


class MiniBackend:
    """In-process compiler for the small IR subset.

    Threads may share one backend: an entry lost to another thread's
    clear costs one recompute and changes no output.
    """

    def __init__(self) -> None:
        self._vocabulary = mini_vocabulary()
        self._steps: dict[tuple[str, str], str] = {}  # (state, flag) -> state
        self._counts: dict[str, int] = {}  # verified output -> count

    @property
    def vocabulary(self) -> PassVocabulary:
        return self._vocabulary

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome:
        try:
            fn = _parsed(ir.text)
        except MiniIrError as err:
            return CompileOutcome.failure(diagnostic_from_message(str(err)))
        text, live = ir.text, None
        for flag in expand_flags(passes.items):
            if live is None:
                reached = self._steps.get((text, flag))
                if reached is not None:
                    text = reached
                    continue
                live = clone_function(fn) if text == ir.text else parse_function(text)
            PASSES[flag](live)
            state = render_function(live)
            _remember(self._steps, (text, flag), state)
            text = state
        count = self._counts.get(text)
        if count is None:
            try:
                verify_function(parse_function(text) if live is None else live)
            except MiniIrError as err:
                raise RuntimeError(
                    f"pipeline {passes.render()!r} produced invalid IR: {err}"
                ) from err
            count = count_instructions(text)
            _remember(self._counts, text, count)
        return CompileOutcome.success(NormalizedIr(text), count)
