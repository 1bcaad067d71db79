import json
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passtune.backend import compile_items
from passtune.backend.classify import ErrorCategory
from passtune.evaluator import EvalRow, bleu, evaluate_predictions, mape, summarize_rows
from passtune.ircore import IrFunction, overall_improvement
from passtune.minigen import generate_function
from passtune.predictor import FilePredictor, Prediction, predict_always_oz
from test_predictor import PoisonBackend

SUMMARY_KEYS = [
    "total_functions",
    "functions_improved",
    "functions_regressed",
    "instructions_saved",
    "instructions_regressed",
    "additional_compilations",
    "overall_improvement",
    "sum_oz",
    "sum_predicted",
]
CODE_KEYS = [
    "code_claims",
    "code_bleu",
    "code_compile_rate",
    "code_exact_match_rate",
    "code_input_count_mape",
    "code_output_count_mape",
] + [f"code_error_{category.value}" for category in ErrorCategory]

DATA_TYPE_ERROR = (
    "define i32 @bad(i32 %a) {\n%x = add i1 %a, true\nret i32 0\n}"
)


def count_of(backend, fn, *flags):
    return compile_items(backend, fn.ir, flags).instruction_count


@pytest.fixture(scope="module")
def trio(backend):
    """Three functions: one beatable, one hurt by a bad list, one neutral."""
    fns = [generate_function(i, seed=7) for i in range(80)]
    beatable = next(f for f in fns if f.source_dataset == "mini/phaseorder")
    hurtable = next(
        f
        for f in fns
        if f.source_dataset == "mini/arith"
        and count_of(backend, f, "-dce") > count_of(backend, f, "-Oz")
    )
    neutral = next(f for f in fns if f.source_dataset == "mini/dynbranch")
    return beatable, hurtable, neutral


# --- scalar metrics ---------------------------------------------------------


def test_overall_improvement_formula():
    assert overall_improvement(110, 100) == pytest.approx(10.0)
    assert overall_improvement(100, 110) == pytest.approx(-100 / 11)
    assert overall_improvement(100, 100) == 0.0
    with pytest.raises(ValueError):
        overall_improvement(100, 0)
    with pytest.raises(ValueError):
        overall_improvement(100, -5)


def test_mape_hand_values():
    assert mape([105, 95], [100, 100]) == pytest.approx(5.0)
    assert mape([110, 95], [100, 100]) == pytest.approx(7.5)
    assert mape([100], [100]) == 0.0


def test_mape_validation():
    with pytest.raises(ValueError):
        mape([1, 2], [1])
    with pytest.raises(ValueError):
        mape([], [])
    with pytest.raises(ValueError):
        mape([1], [0])


def test_bleu_identity_is_exactly_one():
    text = "define i32 @f ( i32 %a ) { ret i32 %a }"
    assert bleu(text, text) == 1.0
    assert bleu("one", "one") == 1.0


def test_bleu_disjoint_is_negligible():
    assert bleu("a b c d e", "v w x y z") <= 1e-2


def test_bleu_pinned_value():
    # 4 of 5 unigrams, 3/4 bigrams, 2/3 trigrams, 1/2 four-grams, no
    # brevity penalty: (4/5 * 3/4 * 2/3 * 1/2) ** 0.25
    assert bleu("a b c d e", "a b c d") == pytest.approx(0.2**0.25, abs=1e-12)
    assert bleu("a b c d e", "a b c d") == pytest.approx(0.6687, abs=1e-4)


def test_bleu_brevity_penalty():
    assert bleu("a b c", "a b c d") == pytest.approx(math.exp(1 - 4 / 3))
    assert bleu("a", "a b") == pytest.approx(math.exp(-1.0))


def test_bleu_degenerate_inputs():
    assert bleu("", "a b") == 0.0
    with pytest.raises(ValueError):
        bleu("a", "")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from("define ret i32 %a %b add { } =".split()),
        min_size=1,
        max_size=30,
    )
)
def test_bleu_exact_match_always_scores_one(tokens):
    text = " ".join(tokens)
    assert bleu(text, text) == 1.0


# --- evaluation -------------------------------------------------------------


def test_all_oz_predictions_score_zero(backend, corpus20):
    predictions = [predict_always_oz(fn) for fn in corpus20]
    summary, rows = evaluate_predictions(predictions, corpus20, backend)
    assert summary["total_functions"] == len(corpus20)
    assert summary["functions_improved"] == 0
    assert summary["functions_regressed"] == 0
    assert summary["instructions_saved"] == 0
    assert summary["instructions_regressed"] == 0
    assert summary["overall_improvement"] == 0.0
    assert summary["sum_oz"] == summary["sum_predicted"]
    assert all(r.delta == 0 for r in rows)


def test_mixed_predictions_partition_correctly(backend, trio):
    beatable, hurtable, neutral = trio
    corpus = [beatable, hurtable, neutral]
    predictions = [
        Prediction(beatable.id, "-Oz -mem2reg"),
        Prediction(hurtable.id, "-dce"),
        Prediction(neutral.id, "-Oz"),
    ]
    summary, rows = evaluate_predictions(predictions, corpus, backend)
    by_id = {r.function_id: r for r in rows}

    better = by_id[beatable.id]
    assert better.predicted_count == count_of(backend, beatable, "-Oz", "-mem2reg")
    assert better.delta > 0

    worse = by_id[hurtable.id]
    assert worse.predicted_count == count_of(backend, hurtable, "-dce")
    assert worse.delta < 0

    assert by_id[neutral.id].delta == 0

    assert summary["functions_improved"] == 1
    assert summary["functions_regressed"] == 1
    assert summary["instructions_saved"] == better.delta
    assert summary["instructions_regressed"] == -worse.delta
    assert summary["sum_oz"] == sum(r.oz_count for r in rows)
    assert summary["sum_predicted"] == sum(r.predicted_count for r in rows)


def test_backup_mode_blocks_regressions(backend, trio):
    beatable, hurtable, neutral = trio
    corpus = [beatable, hurtable, neutral]
    predictions = [
        Prediction(beatable.id, "-Oz -mem2reg"),
        Prediction(hurtable.id, "-dce"),
        Prediction(neutral.id, "-Oz"),
    ]
    summary, rows = evaluate_predictions(
        predictions, corpus, backend, use_oz_backup=True
    )
    assert summary["functions_regressed"] == 0
    assert summary["instructions_regressed"] == 0
    assert all(r.delta >= 0 for r in rows)
    # two non-Oz predictions, one extra compile each
    assert summary["additional_compilations"] == 2


def evaluate_one(backend, fn, pass_list):
    """Evaluate one prediction under the backup protocol; return its row
    and the additional compilations charged."""
    summary, rows = evaluate_predictions(
        [Prediction(fn.id, pass_list)], [fn], backend, use_oz_backup=True
    )
    return rows[0], summary["additional_compilations"]


def test_backup_oz_prediction_is_free(backend, corpus20):
    fn = corpus20[0]
    row, charged = evaluate_one(backend, fn, "-Oz")
    assert row.predicted_count == row.oz_count == count_of(backend, fn, "-Oz")
    assert charged == 0
    assert not row.prediction_failed


def test_backup_keeps_a_better_prediction(backend, trio):
    beatable = trio[0]
    row, charged = evaluate_one(backend, beatable, "-Oz -mem2reg")
    assert row.predicted_count == count_of(backend, beatable, "-Oz", "-mem2reg")
    assert row.predicted_count < row.oz_count
    assert charged == 1
    assert not row.prediction_failed


def test_backup_replaces_a_worse_prediction(backend, trio):
    hurtable = trio[1]
    assert count_of(backend, hurtable, "-dce") > count_of(backend, hurtable, "-Oz")
    row, charged = evaluate_one(backend, hurtable, "-dce")
    assert row.predicted_count == row.oz_count
    assert charged == 1
    assert not row.prediction_failed


def test_backup_breaks_ties_toward_oz(backend, corpus20):
    fn = corpus20[0]
    oz = count_of(backend, fn, "-Oz")
    assert count_of(backend, fn, "-Oz", "-dce") == oz  # precondition: a genuine tie
    summary, rows = evaluate_predictions(
        [Prediction(fn.id, "-Oz -dce")], [fn], backend, use_oz_backup=True
    )
    assert rows[0].predicted_count == oz
    assert summary["functions_improved"] == summary["functions_regressed"] == 0
    assert summary["additional_compilations"] == 1


def test_backup_handles_failing_prediction(backend, corpus20):
    fn = corpus20[0]
    row, charged = evaluate_one(PoisonBackend(backend, "-gvn"), fn, "-gvn")
    assert row.predicted_count == row.oz_count
    assert charged == 1
    assert row.prediction_failed


def test_backup_handles_timeout_like_failure(backend, corpus20):
    fn = corpus20[0]
    rigged = PoisonBackend(backend, None, timeout_flag="-gvn")
    row, charged = evaluate_one(rigged, fn, "-gvn")
    assert row.predicted_count == row.oz_count
    assert charged == 1
    assert row.prediction_failed


def test_backup_never_regresses(backend, corpus20):
    candidates = ["-dce", "-mem2reg -gvn", "-Oz -simplifycfg", "-constfold"]
    for pass_list in candidates:
        predictions = [Prediction(fn.id, pass_list) for fn in corpus20]
        summary, rows = evaluate_predictions(
            predictions, corpus20, backend, use_oz_backup=True
        )
        assert all(r.predicted_count <= r.oz_count for r in rows)
        assert summary["additional_compilations"] == len(corpus20)


class CountingBackend:
    """Counts each (function text, flags) compilation it passes on.

    The counts live in this process, so they see every compile at one
    worker, which compiles inline; a forked worker counts in its own copy.
    """

    def __init__(self, inner):
        self._inner = inner
        self.compiled = Counter()

    @property
    def vocabulary(self):
        return self._inner.vocabulary

    def apply(self, ir, passes):
        self.compiled[ir.text, passes.items] += 1
        return self._inner.apply(ir, passes)


@pytest.mark.parametrize("use_oz_backup", [False, True])
def test_oz_and_each_valid_list_are_compiled_once(backend, corpus20, use_oz_backup):
    fns = corpus20[:5]
    claim = claiming(
        backend, fns[2], "-Oz", predicted_code="define void @c() {\nret void\n}"
    )
    predictions = [
        Prediction(fns[0].id, "-Oz -mem2reg"),
        Prediction(fns[1].id, "-dce"),
        claim,  # its code is compiled once with no passes
        Prediction(fns[3].id, "-Oz -Oz"),  # invalid: never compiled
    ]  # fns[4] has no prediction
    counting = CountingBackend(backend)
    summary, _ = evaluate_predictions(
        predictions, fns, counting, use_oz_backup=use_oz_backup
    )
    expected = Counter({(fn.normalized_text, ("-Oz",)): 1 for fn in fns})
    expected[fns[0].normalized_text, ("-Oz", "-mem2reg")] += 1
    expected[fns[1].normalized_text, ("-dce",)] += 1
    expected[claim.predicted_code, ()] += 1
    assert counting.compiled == expected
    assert summary["additional_compilations"] == (2 if use_oz_backup else 0)


def test_missing_prediction_scores_as_oz(backend, corpus20, caplog):
    sub = corpus20[:3]
    predictions = [predict_always_oz(fn) for fn in sub[:2]]
    summary, rows = evaluate_predictions(predictions, sub, backend)
    assert summary["total_functions"] == 3
    missing = [r for r in rows if r.prediction_missing]
    assert len(missing) == 1
    assert missing[0].function_id == sub[2].id
    assert missing[0].delta == 0


def test_invalid_pass_list_scores_as_oz_and_flags(backend, corpus20):
    fn = corpus20[0]
    predictions = [Prediction(fn.id, "-Oz -Oz")]  # meta-flag repeated
    summary, rows = evaluate_predictions(predictions, [fn], backend)
    assert rows[0].prediction_failed
    assert rows[0].delta == 0
    assert summary["functions_regressed"] == 0


def test_a_prediction_that_failed_to_parse_is_flagged(backend, corpus20, tmp_path):
    fn = corpus20[0]
    answers = tmp_path / "answers.jsonl"
    answers.write_text(json.dumps({"function_id": fn.id, "answer": "-nope"}) + "\n")
    pred = FilePredictor(answers, backend.vocabulary).predict(fn)
    assert (pred.pass_list, pred.parse_failed) == ("-Oz", True)
    summary, rows = evaluate_predictions([pred], [fn], backend)
    assert rows[0].prediction_failed
    assert rows[0].delta == 0
    assert summary["functions_regressed"] == 0


def test_a_function_whose_oz_fails_gets_no_row(backend, corpus20):
    xor = IrFunction.from_raw(
        "xor", "ingest", "define i32 @xorf(i32 %a) {\n%x = xor i32 %a, 5\nret i32 %x\n}"
    )
    corpus = [corpus20[0], xor, corpus20[1]]
    predictions = [predict_always_oz(fn) for fn in corpus]
    summary, rows = evaluate_predictions(predictions, corpus, backend)
    assert [r.function_id for r in rows] == [corpus20[0].id, corpus20[1].id]
    assert summary["total_functions"] == 2


def test_unknown_prediction_id_raises(backend, corpus20):
    with pytest.raises(ValueError):
        evaluate_predictions(
            [Prediction("ghost", "-Oz")], corpus20[:2], backend
        )


def test_extra_compilations_are_charged(backend, corpus20):
    fn = corpus20[0]
    predictions = [Prediction(fn.id, "-Oz", extra_compilations=5)]
    summary, _ = evaluate_predictions(predictions, [fn], backend)
    assert summary["additional_compilations"] == 5


def test_summarize_rows_partitions():
    rows = [
        EvalRow("a", "d", 10, 8, 5, 3),
        EvalRow("b", "d", 10, 6, 8, -2),
        EvalRow("c", "d", 10, 7, 7, 0),
    ]
    summary = summarize_rows(rows, additional_compilations=4)
    assert list(summary) == SUMMARY_KEYS
    assert summary["total_functions"] == 3
    assert summary["functions_improved"] == 1
    assert summary["functions_regressed"] == 1
    assert summary["instructions_saved"] == 3
    assert summary["instructions_regressed"] == 2
    assert summary["additional_compilations"] == 4
    assert summary["sum_oz"] == 21
    assert summary["sum_predicted"] == 20
    assert summary["overall_improvement"] == pytest.approx(5.0)


def test_eval_row_checks_delta():
    with pytest.raises(ValueError):
        EvalRow("a", "d", 10, 8, 5, 0)


# --- the model's code and count claims ---------------------------------------


def claiming(backend, fn, pass_list, **changes):
    """A prediction whose claims are the compiler's own answer for the list."""
    outcome = compile_items(backend, fn.ir, tuple(pass_list.split()))
    return replace(
        Prediction(
            fn.id,
            pass_list,
            predicted_input_count=fn.instruction_count,
            predicted_output_count=outcome.instruction_count,
            predicted_code=outcome.output.text,
        ),
        **changes,
    )


def test_code_quality_perfect_copy(backend, corpus20):
    lists = ["-Oz", "-dce", "-Oz -mem2reg", "-gvn", "-mem2reg -dce"]
    fns = corpus20[: len(lists)]
    predictions = [claiming(backend, fn, lst) for fn, lst in zip(fns, lists)]
    summary, _ = evaluate_predictions(predictions, fns, backend)
    assert list(summary) == SUMMARY_KEYS + CODE_KEYS
    assert summary["code_claims"] == len(fns)
    assert summary["code_bleu"] == 1.0
    assert summary["code_compile_rate"] == 1.0
    assert summary["code_exact_match_rate"] == 1.0
    assert all(summary[f"code_error_{c.value}"] == 0 for c in ErrorCategory)
    assert summary["code_input_count_mape"] == 0.0
    assert summary["code_output_count_mape"] == 0.0
    assert summary["additional_compilations"] == 0  # the code check is not charged


def test_code_quality_classifies_broken_output(backend, corpus20):
    fn = corpus20[0]
    # The list fails to compile, so there is no reference code and no
    # output count to score.
    predictions = [claiming(backend, fn, "-gvn", predicted_code=DATA_TYPE_ERROR)]
    summary, _ = evaluate_predictions(
        predictions, [fn], PoisonBackend(backend, "-gvn")
    )
    assert summary["code_claims"] == 1
    assert summary["code_compile_rate"] == 0.0
    assert summary["code_exact_match_rate"] == 0.0
    assert summary["code_error_type_error"] == 1
    assert sum(summary[f"code_error_{c.value}"] for c in ErrorCategory) == 1
    assert summary["code_bleu"] == 0.0
    assert summary["code_input_count_mape"] == 0.0
    assert summary["code_output_count_mape"] is None


def test_code_quality_mape_wiring(backend, corpus20):
    fn = corpus20[0]
    honest = claiming(backend, fn, "-dce")
    claimed_in = round(fn.instruction_count * 1.5)
    claimed_out = honest.predicted_output_count + 1
    predictions = [
        replace(
            honest, predicted_input_count=claimed_in, predicted_output_count=claimed_out
        )
    ]
    summary, _ = evaluate_predictions(predictions, [fn], backend)
    actual_out = honest.predicted_output_count
    assert summary["code_input_count_mape"] == pytest.approx(
        abs(claimed_in - fn.instruction_count) / fn.instruction_count * 100.0
    )
    assert summary["code_output_count_mape"] == pytest.approx(100.0 / actual_out)
    # The counts do not touch the code scores.
    assert summary["code_exact_match_rate"] == 1.0


def test_predictions_without_claims_score_no_code(backend, corpus20):
    summary, _ = evaluate_predictions(
        [predict_always_oz(fn) for fn in corpus20[:3]], corpus20[:3], backend
    )
    assert list(summary) == SUMMARY_KEYS
