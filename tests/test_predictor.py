import dataclasses
import itertools
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passtune.autotuner import SearchBudget, TuneResult, autotune_corpus
from passtune.backend import CompileOutcome
from passtune.backend.classify import diagnostic_from_message
from passtune.dataset import render_answer
from passtune.minigen import generate_corpus
from passtune.predictor import (
    ExternalPredictorError,
    FilePredictor,
    MissingPredictionError,
    Prediction,
    ProcessPredictor,
    RetrievalEntry,
    RetrievalIndex,
    build_frequency_table,
    predict_always_oz,
    predict_retrieval,
    predict_top_frequency,
)
from passtune.util import read_records, write_jsonl, write_records

from oracles import jaccard_similarity


@pytest.fixture(scope="module")
def tuned(backend, corpus20):
    budget = SearchBudget.evaluation_count(8)
    results, _ = autotune_corpus(backend, corpus20, budget, seed=7, max_len=3)
    return results


def result_for(tuned, fn_id):
    return next(r for r in tuned if r.function_id == fn_id)


# --- built-in predictors --------------------------------------------------


def test_always_oz(corpus20):
    prediction = predict_always_oz(corpus20[0])
    assert prediction.function_id == corpus20[0].id
    assert prediction.pass_list == "-Oz"
    assert prediction.items() == ("-Oz",)
    assert prediction.extra_compilations == 0


def test_frequency_table_counts_best_lists():
    results = [
        TuneResult("a", "-Oz", 9, "-Oz -mem2reg", 4, 3),
        TuneResult("b", "-Oz", 9, "-Oz -mem2reg", 5, 3),
        TuneResult("c", "-Oz", 9, "-dce", 6, 3),
    ]
    assert build_frequency_table(results) == {"-Oz -mem2reg": 2, "-dce": 1}


def test_top_frequency_breaks_ties_lexicographically(corpus20):
    table = {"-gvn": 2, "-dce": 2, "-Oz": 1}
    prediction = predict_top_frequency(corpus20[0], table)
    assert prediction.pass_list == "-dce"
    with pytest.raises(ValueError):
        predict_top_frequency(corpus20[0], {})


def test_jaccard_hand_values():
    assert jaccard_similarity(Counter("a a b".split()), Counter("a b b".split())) == 0.5
    assert jaccard_similarity(Counter(), Counter()) == 0.0
    tokens = Counter("x y z".split())
    assert jaccard_similarity(tokens, tokens) == 1.0
    assert jaccard_similarity(Counter("x".split()), Counter("y".split())) == 0.0


def test_retrieval_returns_own_list_for_indexed_function(corpus20, tuned):
    index = RetrievalIndex.build(corpus20, tuned)
    for fn in corpus20[:5]:
        prediction = predict_retrieval(fn, index)
        assert prediction.pass_list == result_for(tuned, fn.id).best_pass_list


def test_retrieval_tie_breaks_on_function_id(corpus20):
    tokens = Counter(corpus20[0].normalized_text.split())
    index = RetrievalIndex(
        [
            RetrievalEntry("zz", tokens, "-gvn"),
            RetrievalEntry("aa", tokens, "-dce"),
        ]
    )
    assert predict_retrieval(corpus20[0], index).pass_list == "-dce"


def test_retrieval_without_shared_tokens_picks_the_smallest_function_id(corpus20):
    entries = [
        RetrievalEntry("m", Counter("p q".split()), "-gvn"),
        RetrievalEntry("b", Counter("r".split()), "-dce"),
        RetrievalEntry("x", Counter("p p".split()), "-instcombine"),
    ]
    query = dataclasses.replace(corpus20[0], normalized_text="s t t")
    for order in itertools.permutations(entries):
        assert predict_retrieval(query, RetrievalIndex(order)).pass_list == "-dce"


def brute_force_pick(entries, query_text):
    """The pass list of the entry with the highest Jaccard score against
    the query's tokens, ties to the smallest function id."""
    query = Counter(query_text.split())
    return min(
        entries, key=lambda e: (-jaccard_similarity(query, e.tokens), e.function_id)
    ).pass_list


def with_text(fn, text):
    return dataclasses.replace(fn, normalized_text=text)


# Few function ids and four frequent tokens, so that exact score ties,
# entries sharing no token with the query, repeated function ids and empty
# texts all occur; tokens repeat up to a few times per list. Sixteen rarer
# tokens and up to 30 entries make some tokens held by at least 1/8 of the
# entries (kept as columns) and others by fewer (kept as postings).
TOKEN_LISTS = st.lists(
    st.one_of(st.sampled_from("wxyz"), st.sampled_from("abcdefghijklmnop")),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(
    # the size drawn first, so that sizes spread over 1..30 rather than
    # staying near a list strategy's small average
    entries=st.integers(1, 30).flatmap(
        lambda size: st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), TOKEN_LISTS),
            min_size=size,
            max_size=size,
        )
    ),
    query_tokens=TOKEN_LISTS,
)
def test_retrieval_picks_what_brute_force_jaccard_picks(corpus20, entries, query_tokens):
    # each entry gets its own list, so the list names the entry picked
    indexed = [
        RetrievalEntry(function_id, Counter(tokens), f"-list{i}")
        for i, (function_id, tokens) in enumerate(entries)
    ]
    fn = with_text(corpus20[0], " ".join(query_tokens))
    assert predict_retrieval(fn, RetrievalIndex(indexed)).pass_list == brute_force_pick(
        indexed, fn.normalized_text
    )


def test_retrieval_counts_past_the_levels(corpus20):
    # A token gets at most eight levels; the counts above them, here past
    # one byte, are scored from postings: "a" shares 260 of 300 (0.867) and
    # beats "b"'s 222 of 260 (0.854). Counted up to the levels only, "a"
    # would share 8 of 552 and lose to "b"'s 8 of 474.
    entries = [
        RetrievalEntry("a", Counter({"t": 300}), "-gvn"),
        RetrievalEntry("b", Counter({"t": 222}), "-dce"),
    ]
    query = with_text(corpus20[0], " ".join(["t"] * 260))
    assert brute_force_pick(entries, query.normalized_text) == "-gvn"
    assert predict_retrieval(query, RetrievalIndex(entries)).pass_list == "-gvn"


def test_retrieval_fields_widen_past_255_columns(corpus20):
    # Forty tokens held by every entry at least eight times would make 320
    # one-byte columns, and "a"'s field would sum 320 and carry into "b"'s.
    # Two-byte fields hold 160 columns: "a" shares 320 of 320 and wins.
    tokens = [f"t{i}" for i in range(40)]
    entries = [
        RetrievalEntry("a", Counter(dict.fromkeys(tokens, 8)), "-gvn"),
        RetrievalEntry("b", Counter(dict.fromkeys(tokens, 5)), "-dce"),
    ]
    index = RetrievalIndex(entries)
    assert index.width == 2
    query = with_text(corpus20[0], " ".join(tokens * 8))
    assert brute_force_pick(entries, query.normalized_text) == "-gvn"
    assert predict_retrieval(query, index).pass_list == "-gvn"


def test_retrieval_columns_cost_no_more_than_postings():
    # One entry holding common tokens thousands of times adds no levels
    # and does not widen the fields; its counts above the levels stay in
    # postings, and the picks still match brute force.
    functions = generate_corpus(210, seed=31)
    entries = [
        RetrievalEntry(fn.id, Counter(fn.normalized_text.split()), f"-list{i}")
        for i, fn in enumerate(functions[:200])
    ]
    entries[0].tokens.update({"=": 5000, "i32": 3000})
    index = RetrievalIndex(entries)
    holders = Counter(token for entry in entries for token in entry.tokens)
    assert index.width == 1
    for token, levels in index.columns.items():
        assert len(levels) * len(entries) * index.width <= 8 * holders[token]
    queries = [
        dataclasses.replace(fn, normalized_text=fn.normalized_text + " =" * 4000)
        for fn in functions[200:202]
    ] + functions[202:]
    for fn in queries:
        expected = brute_force_pick(entries, fn.normalized_text)
        assert predict_retrieval(fn, index).pass_list == expected


def test_retrieval_index_reads_a_one_shot_iterator(corpus20):
    entries = [
        RetrievalEntry(fn.id, Counter(fn.normalized_text.split()), f"-list{i}")
        for i, fn in enumerate(corpus20[:12])
    ]
    from_list = RetrievalIndex(entries)
    from_generator = RetrievalIndex(entry for entry in entries)
    for fn in corpus20[12:]:
        expected = brute_force_pick(entries, fn.normalized_text)
        assert predict_retrieval(fn, from_list).pass_list == expected
        assert predict_retrieval(fn, from_generator).pass_list == expected


def test_retrieval_at_corpus_scale_picks_what_brute_force_picks():
    # Real IR token counts: common tokens such as "i32" and "=" are held
    # more often than their levels, and constants stay rare.
    functions = generate_corpus(1050, seed=29)
    entries = [
        RetrievalEntry(fn.id, Counter(fn.normalized_text.split()), f"-list{i}")
        for i, fn in enumerate(functions[:1000])
    ]
    index = RetrievalIndex(iter(entries))
    assert index.columns.keys() & index.postings.keys()
    assert index.postings.keys() - index.columns.keys()
    for fn in functions[1000:]:
        expected = brute_force_pick(entries, fn.normalized_text)
        assert predict_retrieval(fn, index).pass_list == expected


def test_retrieval_index_from_an_empty_iterator_is_an_error():
    with pytest.raises(ValueError, match="retrieval index is empty"):
        RetrievalIndex(iter(()))


def test_retrieval_index_validates(corpus20, tuned):
    with pytest.raises(ValueError, match="retrieval index is empty"):
        RetrievalIndex([])
    stray = dataclasses.replace(tuned[0], function_id="nope")
    with pytest.raises(ValueError, match="unknown function 'nope'"):
        RetrievalIndex.build(corpus20, [stray])


# --- file predictor ---------------------------------------------------------


def test_file_predictor_row_forms(tmp_path, vocab, corpus20):
    f0, f1, f2, f3, f4 = corpus20[:5]
    answer = render_answer(("-mem2reg", "-dce"), 9, 4, "define i32 @f() {\nret i32 0\n}")
    rows = [
        {"function_id": f0.id, "answer": answer},
        {"function_id": f1.id, "pass_list": "-Oz -gvn"},
        {"function_id": f2.id, "pass_list": ["-dce", "-instcombine"]},
        {"function_id": f3.id, "pass_list": "-not-a-real-flag"},
        {"function_id": f4.id, "answer": "-mem2reg -dce\n"},  # a bare list
    ]
    path = tmp_path / "preds.jsonl"
    write_jsonl(rows, path)
    predictor = FilePredictor(path, vocab)

    full = predictor.predict(f0)
    assert full.pass_list == "-mem2reg -dce"
    assert (full.predicted_input_count, full.predicted_output_count) == (9, 4)
    assert full.predicted_code == "define i32 @f() {\nret i32 0\n}"
    assert not full.parse_failed

    assert predictor.predict(f1).pass_list == "-Oz -gvn"
    assert predictor.predict(f2).pass_list == "-dce -instcombine"

    invalid = predictor.predict(f3)
    assert invalid.pass_list == "-Oz"
    assert invalid.parse_failed

    bare = predictor.predict(f4)
    assert bare.pass_list == "-mem2reg -dce"
    assert bare.predicted_output_count is None
    assert not bare.parse_failed


@pytest.mark.parametrize(
    "output", ["", "  \n", [], 5], ids=["empty", "blank", "empty-array", "number"]
)
def test_file_predictor_empty_output_degrades(tmp_path, vocab, corpus20, output):
    path = tmp_path / "preds.jsonl"
    write_jsonl([{"function_id": corpus20[0].id, "pass_list": output}], path)
    degraded = FilePredictor(path, vocab).predict(corpus20[0])
    assert degraded.pass_list == "-Oz"
    assert degraded.parse_failed


def test_file_predictor_keeps_an_empty_list_in_the_template(tmp_path, vocab, corpus20):
    answer = render_answer((), 9, 9, "define i32 @f() {\nret i32 0\n}")
    path = tmp_path / "preds.jsonl"
    write_jsonl([{"function_id": corpus20[0].id, "answer": answer}], path)
    prediction = FilePredictor(path, vocab).predict(corpus20[0])
    assert prediction.items() == ()
    assert prediction.predicted_input_count == 9
    assert not prediction.parse_failed


def test_file_predictor_missing_function(tmp_path, vocab, corpus20):
    path = tmp_path / "preds.jsonl"
    write_jsonl([{"function_id": "other"}], path)
    predictor = FilePredictor(path, vocab)
    with pytest.raises(MissingPredictionError):
        predictor.predict(corpus20[0])
    # a row with neither field degrades to flagged -Oz
    other = dataclasses.replace(corpus20[0], id="other")
    degraded = predictor.predict(other)
    assert degraded.pass_list == "-Oz"
    assert degraded.parse_failed


def test_file_predictor_bad_answer_degrades(tmp_path, vocab, corpus20):
    path = tmp_path / "preds.jsonl"
    write_jsonl([{"function_id": corpus20[0].id, "answer": "not the template"}], path)
    degraded = FilePredictor(path, vocab).predict(corpus20[0])
    assert degraded.pass_list == "-Oz"
    assert degraded.parse_failed


# --- process predictor ------------------------------------------------------

ECHO_PREDICTOR = """\
import sys
prompt = sys.stdin.read()
print("Run passes -instcombine -simplifycfg to reduce instruction count from 14 to 7:")
print()
sys.stdout.write(prompt)
"""


def write_script(tmp_path, body, name="model.py"):
    path = tmp_path / name
    path.write_text(body)
    return [sys.executable, str(path)]


def test_process_predictor_round_trip(tmp_path, vocab, corpus20):
    command = write_script(tmp_path, ECHO_PREDICTOR)
    prediction = ProcessPredictor(command, vocab).predict(corpus20[0])
    assert prediction.items() == ("-instcombine", "-simplifycfg")
    assert prediction.predicted_input_count == 14
    assert prediction.predicted_output_count == 7
    # the prompt reached the process on stdin
    assert prediction.predicted_code == corpus20[0].normalized_text


def test_process_predictor_nonzero_exit(tmp_path, vocab, corpus20):
    command = write_script(
        tmp_path, "import sys; sys.stderr.write('boom'); sys.exit(3)"
    )
    with pytest.raises(ExternalPredictorError, match="boom"):
        ProcessPredictor(command, vocab).predict(corpus20[0])


def test_process_predictor_nonzero_exit_keeps_stderr_that_is_not_utf8(
    tmp_path, vocab, corpus20
):
    command = write_script(
        tmp_path,
        "import sys; sys.stdin.read(); sys.stderr.buffer.write(b'bad \\xff'); sys.exit(3)",
    )
    with pytest.raises(ExternalPredictorError) as err:
        ProcessPredictor(command, vocab).predict(corpus20[0])
    assert str(err.value) == "predictor exited with 3: bad \ufffd"


def test_process_predictor_output_that_is_not_utf8(tmp_path, vocab, corpus20):
    command = write_script(
        tmp_path,
        "import sys; sys.stdin.read(); sys.stdout.buffer.write(b'-dce \\xff')",
    )
    with pytest.raises(ExternalPredictorError, match="predictor output is not UTF-8"):
        ProcessPredictor(command, vocab).predict(corpus20[0])


def test_process_predictor_timeout(tmp_path, vocab, corpus20):
    command = write_script(tmp_path, "import time; time.sleep(30)")
    with pytest.raises(ExternalPredictorError, match="timed out after 0.3s"):
        ProcessPredictor(command, vocab, timeout=0.3).predict(corpus20[0])


def test_process_predictor_garbage_degrades(tmp_path, vocab, corpus20):
    command = write_script(tmp_path, "print('gibberish')")
    prediction = ProcessPredictor(command, vocab).predict(corpus20[0])
    assert prediction.pass_list == "-Oz"
    assert prediction.parse_failed


def test_process_predictor_accepts_a_bare_flag_list(tmp_path, vocab, corpus20):
    command = write_script(
        tmp_path, "import sys; sys.stdin.read(); print('-mem2reg -dce')"
    )
    prediction = ProcessPredictor(command, vocab).predict(corpus20[0])
    assert prediction.items() == ("-mem2reg", "-dce")
    assert not prediction.parse_failed


@pytest.mark.parametrize(
    "body",
    ["", "print('-mem2reg -nope')", "print('-Oz -Oz')"],
    ids=["empty", "unknown-flag", "repeated-meta"],
)
def test_process_predictor_rejects_empty_or_invalid_lists(tmp_path, vocab, corpus20, body):
    command = write_script(tmp_path, "import sys; sys.stdin.read()\n" + body)
    prediction = ProcessPredictor(command, vocab).predict(corpus20[0])
    assert prediction.pass_list == "-Oz"
    assert prediction.parse_failed


def test_process_predictor_rejects_empty_command(vocab):
    with pytest.raises(ValueError):
        ProcessPredictor([], vocab)


@pytest.mark.parametrize(
    "timeout,message",
    [
        (0, "timeout must be positive"),
        (-1.5, "timeout must be positive"),
        (float("nan"), "timeout must be positive"),
        (float("inf"), "timeout must be finite, got inf"),
    ],
)
def test_process_predictor_rejects_a_timeout_that_is_not_positive(
    vocab, timeout, message
):
    with pytest.raises(ValueError, match=message):
        ProcessPredictor(["true"], vocab, timeout=timeout)


# --- a backend that fails on request ----------------------------------------


class PoisonBackend:
    """Fails every list holding ``poison`` or ``timeout_flag``; the second
    stands for a time-limit hit, which a backend also returns as a failure."""

    def __init__(self, inner, poison, timeout_flag=None):
        self._inner = inner
        self._poison = poison
        self._timeout_flag = timeout_flag

    @property
    def vocabulary(self):
        return self._inner.vocabulary

    def apply(self, ir, passes):
        if self._timeout_flag and self._timeout_flag in passes.items:
            return CompileOutcome.failure(diagnostic_from_message("induced"))
        if self._poison and self._poison in passes.items:
            return CompileOutcome.failure(diagnostic_from_message("poisoned"))
        return self._inner.apply(ir, passes)


def test_prediction_round_trip(tmp_path, corpus20):
    predictions = [
        predict_always_oz(corpus20[0]),
        Prediction(corpus20[1].id, "-dce -gvn", 9, 4, "code", 0, False),
    ]
    path = tmp_path / "preds.jsonl"
    assert write_records(predictions, path) == 2
    assert read_records(Prediction, path) == predictions


def test_prediction_rejects_negative_compilations(corpus20):
    with pytest.raises(ValueError):
        Prediction(corpus20[0].id, "-Oz", extra_compilations=-1)


@pytest.mark.parametrize(
    "claims",
    [{"predicted_input_count": 9}, {"predicted_code": "ret"}],
    ids=["counts-only", "code-only"],
)
def test_prediction_claims_come_together(corpus20, claims):
    with pytest.raises(ValueError, match="together"):
        Prediction(corpus20[0].id, "-Oz", **claims)
