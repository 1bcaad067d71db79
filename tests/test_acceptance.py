"""Acceptance suite: ten checks covering the published aggregates, the
search/minimize/broadcast guarantees, the mini backend's soundness, the
text metrics, the data formats, CLI determinism, and (when an optimizer
executable is available) the real-LLVM integration.

Each test prints one ``[criterion NN] PASS/FAIL`` line; run with ``-s``
to see them all.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from passtune.autotuner import (
    SearchBudget,
    autotune_corpus,
    broadcast_best_lists,
    count_valid_pass_lists,
    minimize_pass_list,
    random_search,
)
from passtune.backend.classify import ErrorCategory
from passtune.backend.llvm import LlvmBackend, resolve_opt_path
from passtune.backend.mini_interp import run_function
from passtune.backend.mini_ir import parse_function
from passtune.backend.mini_passes import PASSES, run_pipeline
from passtune.backend.passlist import llvm10_vocabulary, sample_items
from passtune.backend.types import BackendUnavailableError, compile_items
from passtune.cli import main as cli_main
from passtune.dataset import parse_answer, render_answer, render_single_pass_prompt
from passtune.evaluator import bleu, evaluate_predictions, mape, overall_improvement
from passtune.ircore import NormalizedIr, normalize
from passtune.minigen import generate_corpus
from passtune.predictor import Prediction
from passtune.util import file_digest, stable_seed

from oracles import best_by_enumeration

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    print(f"[criterion {number:02d}] PASS {name}")


@pytest.fixture(scope="module")
def corpus100():
    return generate_corpus(100, seed=1)


def oz_count(backend, fn):
    ir = NormalizedIr(fn.normalized_text)
    return compile_items(backend, ir, ("-Oz",)).instruction_count


def test_criterion_01_published_aggregates():
    """Known aggregate totals reproduce the published improvement figures."""
    sum_oz = 645_773
    cases = [
        # (instructions saved, instructions regressed, expected percent)
        (30_948, 0, 5.03),
        (6_522, 32_357, -3.85),
        (16_064, 28_405, -1.88),
        (21_935, 3_095, 3.01),
    ]
    with criterion(1, "metric-formula reproduction"):
        started = time.perf_counter()
        for saved, regressed, expected in cases:
            sum_predicted = sum_oz - saved + regressed
            got = overall_improvement(sum_oz, sum_predicted)
            assert abs(got - expected) <= 0.01, (saved, regressed, got, expected)
        assert time.perf_counter() - started < 1.0


def test_criterion_02_backup_accounting(backend, corpus100):
    """k non-Oz predictions cost exactly k extra compiles, zero regressions."""
    sub = corpus100[:30]
    pool = ["-dce", "-mem2reg -gvn", "-Oz -dce", "-instcombine", "-Oz -mem2reg"]
    rng = random.Random(20)
    with criterion(2, "-Oz backup accounting"):
        for _ in range(20):
            k = rng.randint(0, len(sub))
            non_oz_ids = set(rng.sample([fn.id for fn in sub], k))
            predictions = [
                Prediction(
                    fn.id,
                    rng.choice(pool) if fn.id in non_oz_ids else "-Oz",
                )
                for fn in sub
            ]
            summary, _ = evaluate_predictions(
                predictions, sub, backend, use_oz_backup=True
            )
            assert summary["additional_compilations"] == k
            assert summary["functions_regressed"] == 0
            assert summary["instructions_regressed"] == 0


def test_criterion_03_search_matches_enumeration(backend, corpus100):
    """Exhaustive-budget search finds the enumeration optimum everywhere."""
    space = count_valid_pass_lists(backend.vocabulary, 3)
    budget = SearchBudget.evaluation_count(space)
    with criterion(3, "autotuner oracle equivalence on 100 functions"):
        started = time.perf_counter()
        for fn in corpus100:
            result = random_search(
                backend, fn, budget, seed=stable_seed(1, fn.id), max_len=3
            )
            _, best = best_by_enumeration(backend, fn, max_len=3)
            assert result.best_count == best, fn.id
        assert time.perf_counter() - started < 120.0


def test_criterion_04_no_regression_across_stages(backend, corpus100):
    """1,000 randomized runs never regress at search, minimize, or broadcast."""
    budget = SearchBudget.evaluation_count(6)
    with criterion(4, "no-regression at every stage"):
        runs = 0
        for seed in range(10):
            results = {}
            for fn in corpus100:
                ir = NormalizedIr(fn.normalized_text)
                searched = random_search(
                    backend, fn, budget, seed=stable_seed(seed, fn.id), max_len=3
                )
                assert searched.best_count <= searched.baseline_count
                items, count, _ = minimize_pass_list(
                    backend,
                    ir,
                    tuple(searched.best_pass_list.split()),
                    seed=stable_seed(seed, fn.id + "/min"),
                    count=searched.best_count,
                )
                assert count <= searched.best_count
                results[fn.id] = type(searched)(
                    function_id=fn.id,
                    baseline_pass_list=searched.baseline_pass_list,
                    baseline_count=searched.baseline_count,
                    best_pass_list=" ".join(items),
                    best_count=count,
                    evaluations_used=searched.evaluations_used,
                )
                runs += 1
            broadcast = broadcast_best_lists(backend, corpus100, results)
            for fn in corpus100:
                assert broadcast[fn.id].best_count <= results[fn.id].best_count
                assert broadcast[fn.id].best_count <= results[fn.id].baseline_count
        assert runs == 1000


def test_criterion_05_minimized_lists_are_one_minimal(backend, corpus100):
    """Every single-pass removal from a minimized list makes things worse."""
    budget = SearchBudget.evaluation_count(8)
    results, _ = autotune_corpus(
        backend, corpus100, budget, seed=5, max_len=3, broadcast=False
    )
    with criterion(5, "minimization 1-minimality"):
        for fn, result in zip(corpus100, results):
            ir = NormalizedIr(fn.normalized_text)
            items = tuple(result.best_pass_list.split())
            for idx in range(len(items)):
                shorter = items[:idx] + items[idx + 1 :]
                outcome = compile_items(backend, ir, shorter)
                assert (
                    not outcome.ok
                    or outcome.instruction_count > result.best_count
                ), (fn.id, items, idx)


def test_criterion_06_passes_preserve_behavior(corpus100):
    """Interpreted return values agree pre/post for every pass and -Oz."""
    with criterion(6, "mini-pass soundness under interpretation"):
        for fn in corpus100:
            base = parse_function(fn.normalized_text)
            rng = random.Random(stable_seed(6, fn.id))
            vectors = [
                [rng.randint(-50, 50) for _ in base.params] for _ in range(16)
            ]
            for flag in (*PASSES, "-Oz"):
                optimized = run_pipeline(base, (flag,))
                for args in vectors:
                    assert run_function(base, args) == run_function(
                        optimized, args
                    ), (fn.id, flag, args)


def test_criterion_07_text_metrics():
    """BLEU and MAPE match hand arithmetic."""
    rng = random.Random(7)
    tokens = "define ret i32 i64 %a %b %c add sub mul { } = , ( )".split()
    with criterion(7, "text metrics"):
        assert bleu("a b c d e", "a b c d e") == 1.0
        got = bleu("a b c d e", "a b c d")
        assert abs(got - (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25) < 1e-12
        assert abs(got - 0.6687) <= 1e-4
        for _ in range(1000):
            text = " ".join(
                rng.choice(tokens) for _ in range(rng.randint(1, 40))
            )
            assert bleu(text, text) == 1.0
        assert abs(mape([105, 95], [100, 100]) - 5.0) <= 1e-9
        assert abs(mape([110, 95], [100, 100]) - 7.5) <= 1e-9


def test_criterion_08_format_round_trip():
    """10,000 randomized answers round-trip; the prompt template is exact."""
    vocabulary = llvm10_vocabulary()
    rng = random.Random(8)
    code_tokens = ["define", "i32", "@f()", "{", "ret", "i32", "0", "}", "%x", "="]
    with criterion(8, "record format round-trip and prompt template"):
        for _ in range(10_000):
            items = sample_items(rng, vocabulary, rng.randint(0, 8))
            input_count = rng.randint(0, 10**6)
            output_count = rng.randint(0, 10**6)
            code = "\n".join(
                " ".join(rng.choice(code_tokens) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 8))
            )
            rendered = render_answer(items, input_count, output_count, code)
            assert parse_answer(rendered) == (items, input_count, output_count, code)
        ir = "define i32 @f() {\nret i32 0\n}"
        prompt = render_single_pass_prompt("-name-anon-globals", ir)
        assert prompt == (
            "Optimize the following LLVM-IR using -name-anon-globals:\n\n" + ir
        )


def test_criterion_09_cli_determinism(tmp_path):
    """autotune and dataset reruns with one seed are byte-identical."""
    corpus = tmp_path / "corpus.jsonl"
    assert cli_main(
        ["gen-mini-corpus", "--n", "20", "--seed", "1", "--output", str(corpus)]
    ) == 0
    with criterion(9, "CLI rerun determinism"):
        digests = []
        for name in ("one", "two"):
            tuned = tmp_path / f"tuned-{name}.jsonl"
            assert cli_main(
                [
                    "autotune",
                    "--corpus", str(corpus),
                    "--output", str(tuned),
                    "--budget-evals", "8",
                    "--seed", "7",
                ]
            ) == 0
            records = tmp_path / f"records-{name}.jsonl"
            assert cli_main(
                [
                    "dataset",
                    "--corpus", str(corpus),
                    "--tune-results", str(tuned),
                    "--output", str(records),
                    "--seed", "7",
                ]
            ) == 0
            digests.append((file_digest(tuned), file_digest(records)))
        assert digests[0] == digests[1]


def test_criterion_10_llvm_integration(tmp_path):
    """Real-optimizer spot checks; skipped when no executable is configured."""
    try:
        opt = resolve_opt_path()
    except BackendUnavailableError:
        print("[criterion 10] SKIP llvm integration (no optimizer executable)")
        pytest.skip("no optimizer executable on PATH or in PASSTUNE_OPT")
    backend = LlvmBackend(opt)
    with criterion(10, "gated LLVM integration"):
        sample = normalize((DATA / "sample.ll").read_text())
        unopt = compile_items(backend, sample, ())
        assert unopt.ok
        optimized = compile_items(backend, sample, ("-Oz",))
        assert optimized.ok
        assert optimized.instruction_count < unopt.instruction_count

        bad_type = normalize((DATA / "bad_type.ll").read_text())
        outcome = compile_items(backend, bad_type, ())
        assert not outcome.ok
        assert outcome.diagnostic.category is ErrorCategory.TYPE_ERROR

        bad_float = normalize((DATA / "bad_float.ll").read_text())
        outcome = compile_items(backend, bad_float, ())
        assert not outcome.ok
        assert outcome.diagnostic.category is ErrorCategory.INVALID_CONSTANT
