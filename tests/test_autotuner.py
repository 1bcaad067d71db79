import dataclasses
import itertools

import pytest

from oracles import best_by_enumeration, count_all_valid_lists
from passtune.autotuner import (
    SearchBudget,
    TuneResult,
    autotune_corpus,
    broadcast_best_lists,
    count_valid_pass_lists,
    minimize_pass_list,
    random_search,
)
from passtune.backend import CompileOutcome, compile_items, mini
from passtune.backend.classify import diagnostic_from_message
from passtune.backend.passlist import OZ_ITEMS, PassVocabulary
from passtune.ircore import NormalizedIr
from passtune.minigen import generate_function
from passtune.util import read_records, write_records
from test_evaluator import CountingBackend


class RiggedBackend:
    """Wraps a real backend but fails compiles matching a predicate."""

    def __init__(self, inner, should_fail):
        self._inner = inner
        self._should_fail = should_fail

    @property
    def vocabulary(self):
        return self._inner.vocabulary

    def apply(self, ir, passes):
        if self._should_fail(ir, passes):
            return CompileOutcome.failure(diagnostic_from_message("induced failure"))
        return self._inner.apply(ir, passes)


def find_function(predicate, seed=7, limit=80):
    for index in range(limit):
        fn = generate_function(index, seed=seed)
        if predicate(fn):
            return fn
    raise AssertionError("no generated function matches the predicate")


def count_of(backend, fn, items):
    ir = NormalizedIr(fn.normalized_text)
    return compile_items(backend, ir, items).instruction_count


def assert_one_minimal(backend, ir, items, count):
    """Every single-pass removal must fail or strictly grow the output."""
    for idx in range(len(items)):
        shorter = items[:idx] + items[idx + 1 :]
        outcome = compile_items(backend, ir, shorter)
        assert not outcome.ok or outcome.instruction_count > count


# --- space counting ----------------------------------------------------


@pytest.mark.parametrize("max_len,expected", [(1, 7), (2, 55), (3, 379)])
def test_count_valid_lists_mini(vocab, max_len, expected):
    assert count_valid_pass_lists(vocab, max_len) == expected
    assert count_all_valid_lists(vocab, max_len) == expected


def test_count_valid_lists_matches_enumeration_small():
    tiny = PassVocabulary(("-a", "-b"), ("-M", "-N"))
    for max_len in (1, 2, 3):
        assert count_valid_pass_lists(tiny, max_len) == count_all_valid_lists(
            tiny, max_len
        )


def test_count_valid_lists_counts_attributor_once_like_a_meta_flag():
    small = PassVocabulary(("-a", "-attributor", "-b"), ("-M",))
    for max_len in (1, 2, 3, 4):
        brute = sum(
            small.problem(items) is None
            for length in range(1, max_len + 1)
            for items in itertools.product(small.all_flags, repeat=length)
        )
        assert count_valid_pass_lists(small, max_len) == brute
        assert count_all_valid_lists(small, max_len) == brute


def test_count_valid_lists_llvm10_length_one():
    from passtune.backend.passlist import llvm10_vocabulary

    assert count_valid_pass_lists(llvm10_vocabulary(), 1) == 128


# --- budgets ------------------------------------------------------------


def test_budget_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        SearchBudget(evaluations=5, wall_clock_seconds=1.0)
    with pytest.raises(ValueError):
        SearchBudget()
    with pytest.raises(ValueError):
        SearchBudget.evaluation_count(-1)
    with pytest.raises(ValueError):
        SearchBudget.wall_clock(0.0)
    with pytest.raises(ValueError, match="budget seconds must be positive, got nan"):
        SearchBudget.wall_clock(float("nan"))
    with pytest.raises(ValueError, match="budget seconds must be finite, got inf"):
        SearchBudget.wall_clock(float("inf"))
    assert SearchBudget.evaluation_count(0).evaluations == 0
    assert SearchBudget.wall_clock().wall_clock_seconds == 780.0


# --- random search ------------------------------------------------------


def test_zero_budget_returns_baseline(backend, corpus20):
    fn = corpus20[0]
    result = random_search(backend, fn, SearchBudget.evaluation_count(0), seed=1)
    assert result.evaluations_used == 1
    assert result.best_pass_list == "-Oz"
    assert result.best_count == result.baseline_count
    assert result.function_id == fn.id


def test_search_is_deterministic(backend, corpus20):
    fn = corpus20[3]
    budget = SearchBudget.evaluation_count(30)
    first = random_search(backend, fn, budget, seed=9, max_len=3)
    second = random_search(backend, fn, budget, seed=9, max_len=3)
    assert first == second


def test_search_stops_when_space_is_exhausted(backend, corpus20):
    fn = corpus20[1]
    result = random_search(
        backend, fn, SearchBudget.evaluation_count(10_000), seed=4, max_len=1
    )
    # 7 length-1 lists exist and -Oz is prepaid as the baseline
    assert result.evaluations_used == 7


def test_exhaustive_search_finds_enumeration_optimum(backend, corpus20):
    budget = SearchBudget.evaluation_count(10_000)
    for fn in corpus20[:5]:
        result = random_search(backend, fn, budget, seed=11, max_len=2)
        items, count = best_by_enumeration(backend, fn, max_len=2)
        assert result.best_count == count
        assert tuple(result.best_pass_list.split()) == items


def test_search_never_regresses_from_baseline(backend, corpus20):
    for seed, fn in enumerate(corpus20):
        result = random_search(
            backend, fn, SearchBudget.evaluation_count(12), seed=seed, max_len=3
        )
        assert result.best_count <= result.baseline_count


def test_search_returns_none_when_baseline_fails(backend, corpus20):
    rigged = RiggedBackend(backend, lambda ir, passes: True)
    budget = SearchBudget.evaluation_count(2)
    assert random_search(rigged, corpus20[0], budget, seed=0) is None


@pytest.mark.parametrize("max_len", [0, -1])
def test_search_rejects_a_max_len_below_one(backend, corpus20, max_len):
    # With no list length to draw from, the search would try nothing and
    # report the baseline as tuned.
    counting = CountingBackend(backend)
    budget = SearchBudget.evaluation_count(5)
    with pytest.raises(ValueError, match="max_len"):
        random_search(counting, corpus20[0], budget, seed=0, max_len=max_len)
    assert not counting.compiled


# --- minimization -------------------------------------------------------


def test_minimize_drops_redundant_pass(backend, corpus20):
    fn = find_function(
        lambda f: f.source_dataset == "mini/arith",
    )
    ir = NormalizedIr(fn.normalized_text)
    oz = compile_items(backend, ir, ("-Oz",))
    padded = ("-Oz", "-dce")
    items, count, evals = minimize_pass_list(
        backend, ir, padded, seed=5, count=count_of(backend, fn, padded)
    )
    assert count <= oz.instruction_count
    assert len(items) < len(padded)
    assert evals >= len(padded)
    assert_one_minimal(backend, ir, items, count)


@pytest.mark.parametrize("index", [0, 5, 9, 14])
def test_minimize_result_is_one_minimal(backend, corpus20, index):
    fn = corpus20[index]
    ir = NormalizedIr(fn.normalized_text)
    start = ("-mem2reg", "-Oz", "-instcombine", "-dce")
    baseline = compile_items(backend, ir, start)
    items, count, _ = minimize_pass_list(
        backend, ir, start, seed=index, count=baseline.instruction_count
    )
    assert_one_minimal(backend, ir, items, count)
    assert count <= baseline.instruction_count


def test_minimize_reaches_empty_list_when_nothing_helps(backend):
    fn = find_function(
        lambda f: f.source_dataset == "mini/loop",
    )
    ir = NormalizedIr(fn.normalized_text)
    unopt = compile_items(backend, ir, ())
    oz = compile_items(backend, ir, ("-Oz",))
    assert oz.instruction_count == unopt.instruction_count  # precondition
    items, count, _ = minimize_pass_list(
        backend, ir, ("-Oz",), seed=2, count=oz.instruction_count
    )
    assert items == ()
    assert count == unopt.instruction_count


# --- broadcast ----------------------------------------------------------


def test_broadcast_shares_winning_lists(backend):
    target = find_function(lambda f: f.source_dataset == "mini/phaseorder")
    donor = find_function(lambda f: f.source_dataset == "mini/arith")
    budget = SearchBudget.evaluation_count(0)
    results = {
        target.id: random_search(backend, target, budget, seed=1),
        donor.id: random_search(backend, donor, budget, seed=1),
    }
    donor_ir = NormalizedIr(donor.normalized_text)
    shared = ("-Oz", "-mem2reg")
    donor_count = compile_items(backend, donor_ir, shared).instruction_count
    results[donor.id] = TuneResult(
        function_id=donor.id,
        baseline_pass_list="-Oz",
        baseline_count=results[donor.id].baseline_count,
        best_pass_list=" ".join(shared),
        best_count=donor_count,
        evaluations_used=3,
    )

    updated = broadcast_best_lists(backend, [target, donor], results)
    got = updated[target.id]
    assert got.best_pass_list == "-Oz -mem2reg"
    assert got.best_count < results[target.id].best_count
    # exactly one foreign list was tried on the target
    assert got.evaluations_used == results[target.id].evaluations_used + 1


def test_broadcast_never_compiles_a_functions_own_list(backend, corpus20):
    fn, donor = corpus20[0], corpus20[1]
    own, shorter = ("-Oz", "-dce", "-dce"), ("-Oz",)
    own_count = count_of(backend, fn, own)
    assert count_of(backend, fn, shorter) <= own_count  # the donor list wins
    results = {
        fn.id: TuneResult(fn.id, "-Oz", own_count, " ".join(own), own_count, 5),
        donor.id: TuneResult(
            donor.id, "-Oz", 9, " ".join(shorter), count_of(backend, donor, shorter), 5
        ),
    }
    counting = CountingBackend(backend)
    updated = broadcast_best_lists(counting, [fn, donor], results)
    assert counting.compiled == {
        (fn.normalized_text, shorter): 1,
        (donor.normalized_text, own): 1,
    }
    assert updated[fn.id].best_pass_list == "-Oz"
    assert updated[fn.id].evaluations_used == 6
    assert updated[donor.id].evaluations_used == 6


def test_broadcast_never_regresses(backend, corpus20):
    budget = SearchBudget.evaluation_count(6)
    results = {
        fn.id: random_search(backend, fn, budget, seed=8, max_len=3)
        for fn in corpus20
    }
    updated = broadcast_best_lists(backend, corpus20, results)
    for fn in corpus20:
        assert updated[fn.id].best_count <= results[fn.id].best_count


def test_a_failed_compile_never_replaces_the_best_list(backend):
    # Every list below would win on the real backend; on the rigged one
    # only -Oz and the list minimization starts from compile.
    fn = find_function(lambda f: f.source_dataset == "mini/phaseorder")
    donor = find_function(
        lambda f: f.source_dataset == "mini/phaseorder" and f.id != fn.id
    )
    winner, start = ("-Oz", "-mem2reg"), ("-Oz", "-mem2reg", "-dce")
    compiles = {OZ_ITEMS, start}
    rigged = RiggedBackend(backend, lambda ir, passes: passes.items not in compiles)
    everything = SearchBudget.evaluation_count(10_000)  # the whole space

    found = random_search(backend, fn, everything, seed=0, max_len=2)
    assert found.best_pass_list == " ".join(winner)
    searched = random_search(rigged, fn, everything, seed=0, max_len=2)
    assert searched.best_pass_list == "-Oz"
    assert searched.best_count == found.baseline_count
    assert searched.evaluations_used == found.evaluations_used

    count = count_of(backend, fn, start)
    assert minimize_pass_list(backend, fn.ir, start, seed=0, count=count)[0] != start
    assert minimize_pass_list(rigged, fn.ir, start, seed=0, count=count) == (
        start, count, len(start)
    )

    oz_count = searched.best_count
    results = {
        fn.id: TuneResult(fn.id, "-Oz", oz_count, "-Oz", oz_count, 1),
        donor.id: TuneResult(
            donor.id, "-Oz", 9, " ".join(winner), count_of(backend, donor, winner), 3
        ),
    }
    shared = broadcast_best_lists(backend, [fn, donor], results)[fn.id]
    assert shared.best_pass_list == " ".join(winner)
    kept = broadcast_best_lists(rigged, [fn, donor], results)[fn.id]
    assert kept == dataclasses.replace(results[fn.id], evaluations_used=2)


# --- corpus pipeline ----------------------------------------------------


def test_autotune_corpus_stats_and_determinism(backend, corpus20):
    budget = SearchBudget.evaluation_count(8)
    results, stats = autotune_corpus(backend, corpus20, budget, seed=3, max_len=3)
    again, again_stats = autotune_corpus(backend, corpus20, budget, seed=3, max_len=3)
    assert results == again
    assert stats == again_stats
    assert list(stats) == [
        "functions_tuned",
        "mean_evaluations_per_function",
        "overall_improvement_percent",
        "baseline_failures",
    ]
    assert stats["functions_tuned"] == len(corpus20)
    assert stats["baseline_failures"] == []
    assert stats["mean_evaluations_per_function"] > 1.0
    assert stats["overall_improvement_percent"] >= 0.0
    for result in results:
        assert result.best_count <= result.baseline_count


def test_autotune_corpus_threaded_matches_serial(corpus20, monkeypatch):
    # each run starts cold with a small memo, so both threads miss and clear
    monkeypatch.setattr(mini, "MEMO_ENTRIES", 7)
    budget = SearchBudget.evaluation_count(6)
    serial, _ = autotune_corpus(
        mini.MiniBackend(), corpus20[:8], budget, seed=5, workers=1
    )
    threaded, _ = autotune_corpus(
        mini.MiniBackend(), corpus20[:8], budget, seed=5, workers=2
    )
    assert serial == threaded


def test_autotune_corpus_rejects_fewer_than_one_worker(backend, corpus20):
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        autotune_corpus(
            backend, corpus20[:2], SearchBudget.evaluation_count(1), seed=0, workers=0
        )


def test_autotune_corpus_skips_baseline_failures(backend, corpus20):
    doomed = corpus20[0]
    rigged = RiggedBackend(
        backend, lambda ir, passes: ir.text == doomed.normalized_text
    )
    budget = SearchBudget.evaluation_count(4)
    results, stats = autotune_corpus(rigged, corpus20[:6], budget, seed=2)
    assert stats["baseline_failures"] == [doomed.id]
    assert stats["functions_tuned"] == 5
    assert doomed.id not in {r.function_id for r in results}


def test_results_round_trip(tmp_path, backend, corpus20):
    budget = SearchBudget.evaluation_count(5)
    results, _ = autotune_corpus(backend, corpus20[:4], budget, seed=6)
    path = tmp_path / "results.jsonl"
    assert write_records(results, path) == 4
    assert read_records(TuneResult, path) == results
