"""Random search over pass orderings, list minimization, and broadcast.

The tuner treats the backend as a black box. For one function:

1. evaluate the ``-Oz`` baseline;
2. sample random pass lists (uniform length, uniform flags, meta-flags
   at most once each) and keep the best instruction count;
3. optionally minimize the winner by removing passes that do not help;
4. optionally, at corpus level, try every function's winner on every
   other function (one broadcast round, no re-minimization).

Failed and timed-out compilations consume budget and are otherwise
ignored. Ties are broken toward shorter, then lexicographically
smaller, lists, so results are reproducible for a given seed.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional

from passtune.backend import Backend, PassVocabulary, compile_items
from passtune.backend.passlist import DEFAULT_MAX_LEN, OZ_ITEMS, sample_items
from passtune.evaluator import overall_improvement
from passtune.ircore import IrFunction, NormalizedIr
from passtune.util import read_jsonl, stable_seed, write_jsonl

DEFAULT_WALL_CLOCK_SECONDS = 780.0


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
            raise ValueError("evaluations must be >= 0")
        if self.wall_clock_seconds is not None and self.wall_clock_seconds <= 0:
            raise ValueError("wall_clock_seconds must be positive")

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

    def improvement_percent(self) -> float:
        if self.best_count == 0:
            return 0.0
        return (self.baseline_count - self.best_count) / self.best_count * 100.0


class BaselineFailedError(RuntimeError):
    """The -Oz baseline did not compile; the function cannot be tuned."""


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


def _sort_key(count: int, items: tuple[str, ...]) -> tuple:
    return (count, len(items), items)


def _sample_candidate(
    rng: random.Random, vocabulary: PassVocabulary, max_len: int
) -> tuple[str, ...]:
    return sample_items(rng, vocabulary, rng.randint(1, max_len))


def random_search(
    backend: Backend,
    fn: IrFunction,
    budget: SearchBudget,
    seed: int,
    max_len: int = DEFAULT_MAX_LEN,
) -> TuneResult:
    """Tune one function; returns the best list found under the budget."""
    rng = random.Random(seed)
    ir = fn.ir
    start = time.monotonic()

    baseline = compile_items(backend, ir, OZ_ITEMS)
    if not baseline.ok:
        raise BaselineFailedError(f"-Oz failed on function {fn.id!r}")
    evaluations_used = 1
    best_items, best_count = OZ_ITEMS, baseline.instruction_count

    seen: set[tuple[str, ...]] = {OZ_ITEMS}
    space_size = count_valid_pass_lists(backend.vocabulary, max_len)
    candidates_tried = 0
    while True:
        if budget.evaluations is not None and candidates_tried >= budget.evaluations:
            break
        if (
            budget.wall_clock_seconds is not None
            and time.monotonic() - start >= budget.wall_clock_seconds
        ):
            break
        if len(seen) >= space_size:
            break  # every valid list has been evaluated
        items = _sample_candidate(rng, backend.vocabulary, max_len)
        if items in seen:
            continue  # repeats do not consume budget
        seen.add(items)
        candidates_tried += 1
        evaluations_used += 1
        outcome = compile_items(backend, ir, items)
        if not outcome.ok:
            continue
        if _sort_key(outcome.instruction_count, items) < _sort_key(
            best_count, best_items
        ):
            best_items, best_count = items, outcome.instruction_count

    return TuneResult(
        function_id=fn.id,
        baseline_pass_list=" ".join(OZ_ITEMS),
        baseline_count=baseline.instruction_count,
        best_pass_list=" ".join(best_items),
        best_count=best_count,
        evaluations_used=evaluations_used,
    )


def minimize_pass_list(
    backend: Backend,
    ir: NormalizedIr,
    items: tuple[str, ...],
    seed: int,
    count: Optional[int] = None,
) -> tuple[tuple[str, ...], int, int]:
    """Drop passes whose removal does not increase the count.

    Sweeps removal candidates in seeded random order until a full sweep
    keeps nothing droppable; the result is 1-minimal (every single
    removal left would make the function bigger or fail to compile).
    ``count`` may carry a known count for ``items`` to save one
    compilation. Returns (items, count, evaluations used).
    """
    rng = random.Random(seed)
    current = tuple(items)
    evaluations = 0
    if count is None:
        outcome = compile_items(backend, ir, current)
        evaluations += 1
        if not outcome.ok:
            raise ValueError("the input pass list does not compile")
        count = outcome.instruction_count
    current_count = count
    improved = True
    while improved and current:
        improved = False
        for idx in rng.sample(range(len(current)), len(current)):
            candidate = current[:idx] + current[idx + 1 :]
            evaluations += 1
            outcome = compile_items(backend, ir, candidate)
            if outcome.ok and outcome.instruction_count <= current_count:
                current, current_count = candidate, outcome.instruction_count
                improved = True
                break
    return current, current_count, evaluations


def broadcast_best_lists(
    backend: Backend,
    functions: Iterable[IrFunction],
    results: dict[str, TuneResult],
) -> dict[str, TuneResult]:
    """Try every tuned list on every function; one round, no minimizing.

    Lists are applied in (length, lexicographic) order so the outcome is
    independent of corpus ordering. Returns updated results keyed by
    function id; evaluations_used grows by the compilations spent here.
    """
    unique_lists = sorted(
        {tuple(r.best_pass_list.split()) for r in results.values()},
        key=lambda items: (len(items), items),
    )
    updated: dict[str, TuneResult] = {}
    for fn in functions:
        result = results[fn.id]
        ir = fn.ir
        best_items = tuple(result.best_pass_list.split())
        best_count = result.best_count
        evaluations = result.evaluations_used
        for items in unique_lists:
            if items == best_items:
                continue
            evaluations += 1
            outcome = compile_items(backend, ir, items)
            if not outcome.ok:
                continue
            if _sort_key(outcome.instruction_count, items) < _sort_key(
                best_count, best_items
            ):
                best_items, best_count = items, outcome.instruction_count
        updated[fn.id] = dataclasses.replace(
            result,
            best_pass_list=" ".join(best_items),
            best_count=best_count,
            evaluations_used=evaluations,
        )
    return updated


@dataclass(frozen=True)
class TuningStats:
    """Corpus-level accounting for one tuning run."""

    functions_tuned: int
    mean_evaluations_per_function: float
    overall_improvement_percent: float
    baseline_failures: tuple[str, ...]  # function ids skipped entirely


def _tune_one(
    backend: Backend,
    fn: IrFunction,
    budget: SearchBudget,
    seed: int,
    max_len: int,
    minimize: bool,
) -> Optional[TuneResult]:
    fn_seed = stable_seed(seed, fn.id)
    try:
        result = random_search(backend, fn, budget, fn_seed, max_len)
    except BaselineFailedError:
        return None
    if minimize:
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
) -> tuple[list[TuneResult], TuningStats]:
    """Full tuning pipeline: search, minimize, then one broadcast round.

    Per-function seeds derive from the run seed and the function id, so
    results do not depend on corpus order or worker scheduling.
    Functions whose -Oz baseline fails are skipped and listed in the
    returned stats rather than aborting the run.
    """
    functions = list(functions)
    results: dict[str, TuneResult] = {}
    failures: list[str] = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tuned = list(
                pool.map(
                    lambda fn: _tune_one(backend, fn, budget, seed, max_len, minimize),
                    functions,
                )
            )
    else:
        tuned = [
            _tune_one(backend, fn, budget, seed, max_len, minimize)
            for fn in functions
        ]
    for fn, result in zip(functions, tuned):
        if result is None:
            failures.append(fn.id)
        else:
            results[fn.id] = result
    survivors = [fn for fn in functions if fn.id in results]
    if broadcast and results:
        results = broadcast_best_lists(backend, survivors, results)
    ordered = [results[fn.id] for fn in survivors]
    stats = TuningStats(
        functions_tuned=len(ordered),
        mean_evaluations_per_function=(
            sum(r.evaluations_used for r in ordered) / len(ordered)
            if ordered
            else 0.0
        ),
        overall_improvement_percent=(
            overall_improvement(
                sum(r.baseline_count for r in ordered),
                sum(r.best_count for r in ordered),
            )
            if ordered
            else 0.0
        ),
        baseline_failures=tuple(failures),
    )
    return ordered, stats


def write_results(results: Iterable[TuneResult], path: str | Path) -> int:
    return write_jsonl((asdict(r) for r in results), path)


def read_results(path: str | Path) -> list[TuneResult]:
    return [TuneResult(**row) for row in read_jsonl(path)]
