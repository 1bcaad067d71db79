"""Hermetic backend over the small IR.

Applies a pass list in-process as a walk over (state, pass) steps, where a
state is the rendered text of the function. Each backend memoizes the
steps it has taken and the instruction count of each state it has
verified, both bounded at :data:`MEMO_ENTRIES` and cleared when full.
Every step follows one rule: a step in the memo moves to the state it
gives and drops any live ``Function``; a step not in it runs the pass on
the live function, parsing the current state only when there is none,
and renders the result to key the step. An input not yet verified is
parsed and verified once, and that parse is the first live function. The
final state is verified once, unless the count memo already holds it, so
every output returned has passed ``verify_function``.

The input is already normalized (``NormalizedIr`` is made once, where a
corpus enters the program) and the renderer writes the canonical form, so
neither side is normalized again here. Malformed input becomes a
classified failure outcome; a pipeline that produces unverifiable output
is a bug and raises instead.
"""

from __future__ import annotations

from passtune.backend import CompileOutcome
from passtune.backend.classify import diagnostic_from_message
from passtune.backend.mini_ir import (
    MiniIrError,
    parse_function,
    render_function,
    verify_function,
)
from passtune.backend.mini_passes import META_PIPELINES, PASSES, expand_flags
from passtune.backend.passlist import PassList, PassVocabulary
from passtune.ircore import NormalizedIr, count_instructions
from passtune.util import usable_cpus

# Not called here: the name stays bound because perfbench's tracer test wraps it.
from passtune.ircore import normalize  # noqa: F401

# Entries per memo; a full memo is cleared. A larger bound costs memory
# and gains no speed on the benchmark workloads.
MEMO_ENTRIES = 512


def mini_vocabulary() -> PassVocabulary:
    return PassVocabulary(tuple(PASSES), tuple(META_PIPELINES))


def _remember(memo: dict, key, value) -> None:
    if len(memo) >= MEMO_ENTRIES:
        memo.clear()
    memo[key] = value


class MiniBackend:
    """In-process compiler for the small IR subset.

    Threads may share one backend: an entry lost to another thread's
    clear costs one recompute and changes no output. A forked worker
    process gets a copy of the memos as they stood at the fork, and what
    it adds stays in that worker.
    """

    # Pure Python under the GIL, so threads do not overlap its compiles
    # (1.02 s at one thread and 0.99 s at two for the 800-function
    # mini-corpus autotune on 2 cores) and the stages fork one worker
    # process per usable CPU instead.
    default_workers = usable_cpus()
    in_process = True

    def __init__(self) -> None:
        self._vocabulary = mini_vocabulary()
        self._steps: dict[tuple[str, str], str] = {}  # (state, flag) -> state
        self._counts: dict[str, int] = {}  # verified state -> count

    @property
    def vocabulary(self) -> PassVocabulary:
        return self._vocabulary

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome:
        text, live = ir.text, None
        if text not in self._counts:
            try:
                live = parse_function(text)
                verify_function(live)
            except MiniIrError as err:
                return CompileOutcome.failure(diagnostic_from_message(str(err)))
            _remember(self._counts, text, count_instructions(text))
        for flag in expand_flags(passes.items):
            reached = self._steps.get((text, flag))
            if reached is not None:
                text, live = reached, None
                continue
            if live is None:
                live = parse_function(text)
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
