"""Random search over pass orderings, list minimization, and broadcast.

The tuner treats the backend as a black box. For one function:

1. evaluate the ``-Oz`` baseline;
2. sample random pass lists (uniform length, uniform flags, meta-flags
   at most once each) and keep the best instruction count;
3. optionally minimize the winner by removing passes that do not help;
4. optionally, at corpus level, try every function's winner on every
   other function (one broadcast round, no re-minimization).

Search, minimization and broadcast keep the best list through one step
with one rule: a smaller count wins, then a shorter list, then the
lexicographically smaller one, so results are reproducible for a given
seed. Failed and timed-out compilations consume budget and are
otherwise ignored. :func:`autotune_corpus` returns the results with
their corpus-level stats as the plain dict that the autotune manifest
records.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from passtune.backend import Backend, compile_items
from passtune.backend.passlist import OZ_ITEMS, PassVocabulary, sample_items
from passtune.ircore import IrFunction, NormalizedIr, overall_improvement
from passtune.util import (
    DEFAULT_MAX_LEN,
    DEFAULT_WALL_CLOCK_SECONDS,
    map_in_order,
    positive_seconds,
    stable_seed,
)


@dataclass(frozen=True)
class SearchBudget:
    """Stop condition for one function's search: exactly one mode.

    Evaluation-count mode caps candidate compilations after the
    baseline (0 means baseline only) and is fully deterministic;
    wall-clock mode caps elapsed seconds. In both modes search also
    stops once every valid list within the length limit has been tried.
    """

    evaluations: Optional[int] = None
    wall_clock_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.evaluations is None) == (self.wall_clock_seconds is None):
            raise ValueError(
                "set exactly one of evaluations or wall_clock_seconds"
            )
        if self.evaluations is not None and self.evaluations < 0:
            raise ValueError(
                f"budget evaluations must be >= 0, got {self.evaluations}"
            )
        if self.wall_clock_seconds is not None:
            positive_seconds(self.wall_clock_seconds, "budget seconds")

    @classmethod
    def evaluation_count(cls, evaluations: int) -> "SearchBudget":
        return cls(evaluations=evaluations)

    @classmethod
    def wall_clock(
        cls, seconds: float = DEFAULT_WALL_CLOCK_SECONDS
    ) -> "SearchBudget":
        return cls(wall_clock_seconds=seconds)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of tuning one function; pass lists in rendered form."""

    function_id: str
    baseline_pass_list: str
    baseline_count: int
    best_pass_list: str
    best_count: int
    evaluations_used: int


def count_valid_pass_lists(vocabulary: PassVocabulary, max_len: int) -> int:
    """Number of distinct valid lists with length in [1, max_len].

    Valid means every item is in the vocabulary and no meta-flag
    repeats. Counted by choosing k meta-flags, placing them in order
    among the slots, and filling the rest with ordinary passes.
    """
    n_passes = len(vocabulary.passes)
    n_meta = len(vocabulary.meta_flags)
    total = 0
    for length in range(1, max_len + 1):
        for k in range(0, min(n_meta, length) + 1):
            total += (
                math.comb(n_meta, k)
                * math.perm(length, k)
                * n_passes ** (length - k)
            )
    return total


def _keep_better(
    backend: Backend,
    ir: NormalizedIr,
    items: tuple[str, ...],
    best: tuple[int, tuple[str, ...]],
) -> tuple[int, tuple[str, ...]]:
    """Compile ``items``; return the better of it and ``best`` (count, items).

    Better means a smaller count, then a shorter list, then the
    lexicographically smaller one. A failed compilation keeps ``best``.
    """
    outcome = compile_items(backend, ir, items)
    if not outcome.ok:
        return best
    count = outcome.instruction_count
    if (count, len(items), items) < (best[0], len(best[1]), best[1]):
        return count, items
    return best


def random_search(
    backend: Backend,
    fn: IrFunction,
    budget: SearchBudget,
    seed: int,
    max_len: int = DEFAULT_MAX_LEN,
) -> Optional[TuneResult]:
    """Tune one function: the best list found under the budget, or None
    when its -Oz baseline fails to compile."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    rng = random.Random(seed)
    ir = fn.ir
    start = time.monotonic()

    baseline = compile_items(backend, ir, OZ_ITEMS)
    if not baseline.ok:
        return None
    best = (baseline.instruction_count, OZ_ITEMS)

    # Every distinct list tried, the prepaid -Oz baseline included.
    seen: set[tuple[str, ...]] = {OZ_ITEMS}
    space_size = count_valid_pass_lists(backend.vocabulary, max_len)
    while (
        (budget.evaluations is None or len(seen) <= budget.evaluations)
        and (
            budget.wall_clock_seconds is None
            or time.monotonic() - start < budget.wall_clock_seconds
        )
        and len(seen) < space_size
    ):
        items = sample_items(rng, backend.vocabulary, rng.randint(1, max_len))
        if items not in seen:  # repeats do not consume budget
            seen.add(items)
            best = _keep_better(backend, ir, items, best)

    return TuneResult(
        function_id=fn.id,
        baseline_pass_list=" ".join(OZ_ITEMS),
        baseline_count=baseline.instruction_count,
        best_pass_list=" ".join(best[1]),
        best_count=best[0],
        evaluations_used=len(seen),
    )


def minimize_pass_list(
    backend: Backend,
    ir: NormalizedIr,
    items: tuple[str, ...],
    seed: int,
    count: int,
) -> tuple[tuple[str, ...], int, int]:
    """Drop passes whose removal does not increase the count.

    ``count`` is the known count of ``items``. Sweeps removal candidates
    in seeded random order until a full sweep keeps nothing droppable;
    the result is 1-minimal (every single removal left would make the
    function bigger or fail to compile). Returns (items, count,
    evaluations used).
    """
    rng = random.Random(seed)
    best = (count, tuple(items))
    evaluations = 0
    while best[1]:
        current = best[1]
        for idx in rng.sample(range(len(current)), len(current)):
            evaluations += 1
            # The candidate is one pass shorter, so it wins exactly when
            # its count does not exceed the current one.
            best = _keep_better(backend, ir, current[:idx] + current[idx + 1 :], best)
            if best[1] != current:
                break  # sweep the shorter list afresh
        else:
            break  # a full sweep kept nothing
    return best[1], best[0], evaluations


def broadcast_best_lists(
    backend: Backend,
    functions: Iterable[IrFunction],
    results: dict[str, TuneResult],
    workers: int = 1,
) -> dict[str, TuneResult]:
    """Try every tuned list on every function; one round, no minimizing.

    Lists are applied in (length, lexicographic) order so the outcome is
    independent of corpus ordering. A function's own list is never
    compiled again. ``workers`` (at least 1) functions are tried at once;
    the results do not depend on it. Returns updated results keyed by
    function id; evaluations_used grows by the compilations spent here.
    """
    unique_lists = sorted(
        {tuple(r.best_pass_list.split()) for r in results.values()},
        key=lambda items: (len(items), items),
    )

    def broadcast_to(fn: IrFunction) -> TuneResult:
        result = results[fn.id]
        own = tuple(result.best_pass_list.split())
        others = [items for items in unique_lists if items != own]
        best = (result.best_count, own)
        for items in others:
            best = _keep_better(backend, fn.ir, items, best)
        return dataclasses.replace(
            result,
            best_pass_list=" ".join(best[1]),
            best_count=best[0],
            evaluations_used=result.evaluations_used + len(others),
        )

    updated = map_in_order(broadcast_to, functions, workers)
    return {result.function_id: result for result in updated}


def _tune_one(
    backend: Backend,
    fn: IrFunction,
    budget: SearchBudget,
    seed: int,
    max_len: int,
    minimize: bool,
) -> Optional[TuneResult]:
    fn_seed = stable_seed(seed, fn.id)
    result = random_search(backend, fn, budget, fn_seed, max_len)
    if result is not None and minimize:
        items, count, extra = minimize_pass_list(
            backend,
            fn.ir,
            tuple(result.best_pass_list.split()),
            stable_seed(fn_seed, "minimize"),
            count=result.best_count,
        )
        result = dataclasses.replace(
            result,
            best_pass_list=" ".join(items),
            best_count=count,
            evaluations_used=result.evaluations_used + extra,
        )
    return result


def autotune_corpus(
    backend: Backend,
    functions: Iterable[IrFunction],
    budget: SearchBudget,
    seed: int,
    max_len: int = DEFAULT_MAX_LEN,
    minimize: bool = True,
    broadcast: bool = True,
    workers: int = 1,
) -> tuple[list[TuneResult], dict[str, Any]]:
    """Full tuning pipeline: search, minimize, then one broadcast round.

    Per-function seeds derive from the run seed and the function id, so
    results do not depend on corpus order or worker scheduling.
    Functions whose -Oz baseline fails are skipped and listed in the
    returned stats rather than aborting the run. ``workers`` (at least
    1) functions are searched, and then broadcast to, at once; the
    results do not depend on it.

    The stats are the values the autotune manifest records, in its
    order: ``functions_tuned``, ``mean_evaluations_per_function``,
    ``overall_improvement_percent`` and ``baseline_failures`` (the ids
    of the functions skipped).
    """
    functions = list(functions)
    results: dict[str, TuneResult] = {}
    failures: list[str] = []
    tuned = map_in_order(
        lambda fn: _tune_one(backend, fn, budget, seed, max_len, minimize),
        functions,
        workers,
    )
    for fn, result in zip(functions, tuned):
        if result is None:
            failures.append(fn.id)
        else:
            results[fn.id] = result
    survivors = [fn for fn in functions if fn.id in results]
    if broadcast and results:
        results = broadcast_best_lists(backend, survivors, results, workers)
    ordered = [results[fn.id] for fn in survivors]
    stats = {
        "functions_tuned": len(ordered),
        "mean_evaluations_per_function": (
            sum(r.evaluations_used for r in ordered) / len(ordered)
            if ordered
            else 0.0
        ),
        "overall_improvement_percent": (
            overall_improvement(
                sum(r.baseline_count for r in ordered),
                sum(r.best_count for r in ordered),
            )
            if ordered
            else 0.0
        ),
        "baseline_failures": failures,
    }
    return ordered, stats
