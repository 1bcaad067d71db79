"""Hermetic backend over the small IR.

Applies a pass list in-process as a walk over (state, pass) steps, where a
state is the rendered text of the function. Each backend memoizes the
steps it has taken and the success outcome of each state it has
verified, both bounded at :data:`MEMO_ENTRIES` and cleared when full.
Every step follows one rule: a step in the memo moves to the state it
gives, keeping the live ``Function`` only when that state is the current
one; a step not in it runs the pass on the live function, parsing the
current state only when there is none. A pass that reports no change
leaves the state text as it was, and any other result is rendered to
give the next state. The first step from the input always renders, since
the input need not be in the renderer's form (``br i1 true`` renders as
``br i1 1``). An input not yet verified is parsed and verified once, and
that parse is the first live function. The final state is verified once,
unless the outcome memo already holds it, and its outcome is built then
and shared by every later compile that ends there, so every output
returned has passed ``verify_function``.

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

    A compile pays for the passes of steps its memo lacks, a render for
    each such step that changed the function, and a verify for a final
    state it has not verified; one that ends on a verified state returns
    that state's outcome object as it is (outcomes are frozen).

    A compile is pure Python, which only processes overlap, so the
    stages run it on forked workers, by default one per usable CPU. Each
    worker gets a copy of the memos as they stood at the fork, and what
    it adds stays in that worker.
    """

    def __init__(self) -> None:
        self.vocabulary = mini_vocabulary()
        self._steps: dict[tuple[str, str], str] = {}  # (state, flag) -> state
        self._outcomes: dict[str, CompileOutcome] = {}  # verified state -> outcome

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome:
        # ``rendered``: ``text`` came from the renderer, directly or through
        # the step memo, so a pass that changed nothing keeps it
        text, live, rendered = ir.text, None, False
        if text not in self._outcomes:
            try:
                live = parse_function(text)
                verify_function(live)
            except MiniIrError as err:
                return CompileOutcome.failure(diagnostic_from_message(str(err)))
            outcome = CompileOutcome.success(ir, count_instructions(text))
            _remember(self._outcomes, text, outcome)
        for flag in expand_flags(passes.items):
            reached = self._steps.get((text, flag))
            if reached is not None:
                if reached != text:
                    live = None
                text, rendered = reached, True
                continue
            if live is None:
                live = parse_function(text)
            if PASSES[flag](live) is False and rendered:
                state = text
            else:
                state = render_function(live)
            _remember(self._steps, (text, flag), state)
            text, rendered = state, True
        outcome = self._outcomes.get(text)
        if outcome is None:
            try:
                verify_function(parse_function(text) if live is None else live)
            except MiniIrError as err:
                raise RuntimeError(
                    f"pipeline {passes.render()!r} produced invalid IR: {err}"
                ) from err
            outcome = CompileOutcome.success(
                NormalizedIr(text), count_instructions(text)
            )
            _remember(self._outcomes, text, outcome)
        return outcome
