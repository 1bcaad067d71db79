import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passtune.autotuner import SearchBudget, TuneResult, autotune_corpus
from passtune.backend import compile_items
from passtune.backend.passlist import llvm10_vocabulary
from passtune.cli import main
from passtune.dataset import (
    AnswerParseError,
    PassOrderingRecord,
    SinglePassRecord,
    build_pass_dataset,
    build_single_pass_dataset,
    corpus_stats,
    dedup,
    parse_answer,
    render_answer,
    render_single_pass_prompt,
    split,
)
from passtune.ircore import NormalizedIr
from passtune.util import read_records, write_records
from test_predictor import PoisonBackend

SAMPLE_CODE = "define i32 @f(i32 %a) {\nret i32 %a\n}"


@pytest.fixture(scope="module")
def tuned(backend, corpus20):
    budget = SearchBudget.evaluation_count(8)
    results, _ = autotune_corpus(backend, corpus20, budget, seed=7, max_len=3)
    return results


# --- answer template ------------------------------------------------------


def test_answer_template_is_exact():
    answer = render_answer(("-instcombine", "-simplifycfg"), 14, 7, SAMPLE_CODE)
    header, blank, rest = answer.split("\n", 2)
    assert header == (
        "Run passes -instcombine -simplifycfg "
        "to reduce instruction count from 14 to 7:"
    )
    assert blank == ""
    assert rest == SAMPLE_CODE


def test_answer_template_empty_pass_list_has_no_double_space():
    answer = render_answer((), 5, 5, SAMPLE_CODE)
    assert answer.startswith("Run passes to reduce instruction count from 5 to 5:")
    assert "  " not in answer.split("\n")[0]


def test_parse_answer_inverts_render():
    items = ("-mem2reg", "-Oz", "-gvn")
    got = parse_answer(render_answer(items, 20, 9, SAMPLE_CODE))
    assert got == (items, 20, 9, SAMPLE_CODE)


flag_st = st.sampled_from(llvm10_vocabulary().all_flags)
code_st = st.text(
    alphabet=" \nabcdefg%@={}",
    min_size=0,
    max_size=80,
).map(lambda s: s.strip("\n"))


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(flag_st, max_size=6).map(tuple),
    input_count=st.integers(0, 10**6),
    output_count=st.integers(0, 10**6),
    code=code_st,
)
def test_answer_round_trip_property(items, input_count, output_count, code):
    rendered = render_answer(items, input_count, output_count, code)
    assert parse_answer(rendered) == (items, input_count, output_count, code)
    # and rendering the parse is byte-identical
    assert render_answer(*parse_answer(rendered)) == rendered


@pytest.mark.parametrize(
    "bad",
    [
        "Run passes -a to reduce instruction count from 3 to 2:",  # no blank line
        "Run passes -a to reduce instruction count from 3 to 2:\ncode",
        "Apply passes -a to shrink from 3 to 2:\n\ncode",
        "Run passes -a to reduce instruction count from three to 2:\n\ncode",
        "",
    ],
)
def test_parse_answer_rejects_malformed(bad):
    with pytest.raises(AnswerParseError):
        parse_answer(bad)


def test_single_pass_prompt_template():
    prompt = render_single_pass_prompt("-dce", SAMPLE_CODE)
    assert prompt == f"Optimize the following LLVM-IR using -dce:\n\n{SAMPLE_CODE}"


# --- pass-ordering dataset -------------------------------------------------


def test_build_pass_dataset_recompiles_answers(backend, corpus20, tuned):
    records, errors = build_pass_dataset(tuned, corpus20, backend)
    assert errors == []
    assert len(records) == len(tuned)
    by_id = {fn.id: fn for fn in corpus20}
    for record, result in zip(records, tuned):
        fn = by_id[record.function_id]
        assert record.prompt == fn.normalized_text
        assert record.input_count == fn.instruction_count
        assert record.pass_list == result.best_pass_list
        assert record.output_count == result.best_count
        items, inp, out, code = parse_answer(record.answer)
        assert items == tuple(result.best_pass_list.split())
        assert (inp, out) == (record.input_count, record.output_count)
        redone = compile_items(backend, fn.ir, items)
        assert redone.output.text == code
        assert not record.truncated


def test_tiny_token_limit_flags_but_keeps_records(backend, corpus20, tuned):
    records, _ = build_pass_dataset(tuned, corpus20, backend, token_limit=1)
    assert len(records) == len(tuned)
    assert all(r.truncated for r in records)


def test_negative_token_limit_raises(backend, corpus20, tuned):
    with pytest.raises(ValueError, match="token_limit must be >= 0, got -5"):
        build_pass_dataset(tuned, corpus20, backend, token_limit=-5)
    with pytest.raises(ValueError, match="token_limit must be >= 0, got -5"):
        build_single_pass_dataset(
            backend, corpus20, ("-dce",), per_pass=1, max_prefix_len=1, seed=0,
            token_limit=-5,
        )


def test_build_pass_dataset_unknown_function_raises(backend, corpus20, tuned):
    stray = dataclasses.replace(tuned[0], function_id="nope")
    with pytest.raises(ValueError):
        build_pass_dataset([stray], corpus20, backend)


def test_build_pass_dataset_collects_errors(backend, corpus20):
    rigged = PoisonBackend(backend, "-gvn")
    fn = corpus20[0]
    result = TuneResult(fn.id, "-Oz", fn.instruction_count, "-gvn", 1, 5)
    records, errors = build_pass_dataset([result], corpus20, rigged)
    assert records == []
    assert errors == [f"{fn.id}: poisoned"]
    # the failure is the tuned list's own: poisoning another flag builds it
    records, errors = build_pass_dataset(
        [result], corpus20, PoisonBackend(backend, "-dce")
    )
    assert [r.pass_list for r in records] == ["-gvn"]
    assert errors == []


def test_build_pass_dataset_turns_a_timeout_into_a_record_error(backend, corpus20):
    rigged = PoisonBackend(backend, None, timeout_flag="-gvn")
    fn = corpus20[0]
    result = TuneResult(fn.id, "-Oz", fn.instruction_count, "-gvn", 1, 5)
    records, errors = build_pass_dataset([result], corpus20, rigged)
    assert records == []
    assert errors == [f"{fn.id}: induced"]


# --- single-pass dataset ----------------------------------------------------


def test_single_pass_records_are_true_translations(backend, corpus20):
    records = build_single_pass_dataset(
        backend, corpus20, ("-dce", "-mem2reg"), per_pass=3, max_prefix_len=2, seed=9
    )
    assert len(records) == 6
    assert {r.target_pass for r in records} == {"-dce", "-mem2reg"}
    seen = set()
    for record in records:
        assert (record.target_pass, record.prompt) not in seen
        seen.add((record.target_pass, record.prompt))
        head, blank, ir_text = record.prompt.split("\n", 2)
        assert head == f"Optimize the following LLVM-IR using {record.target_pass}:"
        assert blank == ""
        out = compile_items(backend, NormalizedIr(ir_text), (record.target_pass,))
        assert out.output.text == record.answer
        assert len(record.prefix_passes.split()) <= 2


def test_single_pass_timeout_costs_one_attempt_not_the_run(backend, corpus20):
    # A timed-out compilation is charged exactly like a failed one: the
    # attempt is spent and sampling goes on, for -gvn and for -dce alike.
    kwargs = dict(passes=("-gvn", "-dce"), per_pass=3, max_prefix_len=2, seed=5)
    timed_out = build_single_pass_dataset(
        PoisonBackend(backend, None, timeout_flag="-gvn"), corpus20, **kwargs
    )
    failed = build_single_pass_dataset(
        PoisonBackend(backend, "-gvn"), corpus20, **kwargs
    )
    assert timed_out == failed
    assert [r.target_pass for r in timed_out] == ["-dce"] * 3
    assert all("-gvn" not in r.prefix_passes.split() for r in timed_out)


def test_single_pass_dataset_is_deterministic(backend, corpus20):
    kwargs = dict(passes=("-dce",), per_pass=4, max_prefix_len=2, seed=21)
    assert build_single_pass_dataset(
        backend, corpus20, **kwargs
    ) == build_single_pass_dataset(backend, corpus20, **kwargs)


def test_zero_prefix_prompts_use_the_raw_function(backend, corpus20):
    records = build_single_pass_dataset(
        backend, corpus20, ("-dce",), per_pass=3, max_prefix_len=0, seed=2
    )
    texts = {fn.normalized_text for fn in corpus20}
    for record in records:
        assert record.prefix_passes == ""
        ir_text = record.prompt.split("\n\n", 1)[1]
        assert ir_text in texts


def test_single_pass_shortfall_warns_and_keeps_unique(
    backend, corpus20, tmp_path, capsys, caplog
):
    # One function and no prefix give one unique prompt: the pass stops
    # short with the one record it found, and only the CLI reports it.
    lone = [corpus20[0]]
    records = build_single_pass_dataset(
        backend, lone, ("-dce",), per_pass=3, max_prefix_len=0, seed=0
    )
    assert [(r.function_id, r.target_pass, r.prefix_passes) for r in records] == [
        (lone[0].id, "-dce", "")
    ]
    assert (capsys.readouterr().err, caplog.records) == ("", [])
    corpus = tmp_path / "lone.jsonl"
    write_records(lone, corpus)
    argv = ["single-pass-dataset", "--corpus", str(corpus), "--passes=-dce",
            "--per-pass", "3", "--max-prefix-len", "0",
            "--output", str(tmp_path / "out.jsonl")]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: -dce: only 1 of 3 unique records\n"
    assert read_records(SinglePassRecord, tmp_path / "out.jsonl") == records


def test_single_pass_validation(backend, corpus20):
    with pytest.raises(ValueError):
        build_single_pass_dataset(
            backend, corpus20, ("-dce",), per_pass=0, max_prefix_len=1, seed=0
        )
    with pytest.raises(ValueError):
        build_single_pass_dataset(
            backend, corpus20, ("-nope",), per_pass=1, max_prefix_len=1, seed=0
        )
    with pytest.raises(ValueError):
        build_single_pass_dataset(
            backend, [], ("-dce",), per_pass=1, max_prefix_len=1, seed=0
        )
    with pytest.raises(ValueError, match="max_prefix_len must be >= 0, got -1"):
        build_single_pass_dataset(
            backend, corpus20, ("-dce",), per_pass=1, max_prefix_len=-1, seed=0
        )
    with pytest.raises(ValueError, match="target pass '-dce' given twice"):
        build_single_pass_dataset(
            backend, corpus20, ("-dce", "-gvn", "-dce"), per_pass=1,
            max_prefix_len=1, seed=0,
        )
    with pytest.raises(ValueError, match="no target passes given"):
        build_single_pass_dataset(
            backend, corpus20, (), per_pass=1, max_prefix_len=1, seed=0
        )


# --- corpus management ------------------------------------------------------


def test_dedup_keeps_first_of_each_text(corpus20):
    clone = dataclasses.replace(corpus20[0], id="clone-of-first")
    mixed = list(corpus20) + [clone]
    kept = dedup(mixed)
    assert kept == list(corpus20)


def test_split_sizes_and_disjointness(corpus20):
    parts = split(corpus20, {"train": 0.8, "valid": 0.1, "test": 0.1}, seed=5)
    assert sorted(parts) == ["test", "train", "valid"]
    assert [len(parts[k]) for k in ("train", "valid", "test")] == [16, 2, 2]
    ids = [fn.id for name in ("train", "valid", "test") for fn in parts[name]]
    assert sorted(ids) == sorted(fn.id for fn in corpus20)
    again = split(corpus20, {"train": 0.8, "valid": 0.1, "test": 0.1}, seed=5)
    assert again == parts


def test_split_validates_fractions(corpus20):
    with pytest.raises(ValueError):
        split(corpus20, {}, seed=0)
    with pytest.raises(ValueError):
        split(corpus20, {"train": 0.5, "test": 0.1}, seed=0)
    with pytest.raises(ValueError):
        split(corpus20, {"train": 1.5, "test": -0.5}, seed=0)
    nan = float("nan")
    with pytest.raises(ValueError, match="fraction 'test' must be positive"):
        split(corpus20, {"train": 0.5, "test": nan}, seed=0)
    with pytest.raises(ValueError, match="fraction 'train' must be positive"):
        split(corpus20, {"train": nan}, seed=0)


def test_split_refuses_a_part_without_functions(corpus20):
    with pytest.raises(ValueError, match="split part 'test' gets none of the 20"):
        split(corpus20, {"train": 0.99, "test": 0.01}, seed=0)
    with pytest.raises(ValueError, match="split part 'a' gets none of the 20"):
        split(corpus20, {"a": 0.01, "b": 0.99}, seed=0)
    with pytest.raises(ValueError, match="split part 'only' gets none of the 0"):
        split([], {"only": 1.0}, seed=0)
    parts = split(corpus20, {"a": 0.05, "b": 0.9, "c": 0.05}, seed=0)
    assert [len(parts[k]) for k in "abc"] == [1, 18, 1]


def test_corpus_stats_sums(corpus20):
    sub = corpus20[:3]
    stats = corpus_stats(sub)
    assert stats["functions"] == 3
    assert stats["total_instructions"] == sum(f.instruction_count for f in sub)
    assert stats["total_tokens"] == sum(f.token_estimate for f in sub)
    assert stats["text_bytes"] == sum(
        len(f.normalized_text.encode()) for f in sub
    )


# --- serialization ----------------------------------------------------------


def test_pass_records_round_trip(tmp_path, backend, corpus20, tuned):
    records, _ = build_pass_dataset(tuned, corpus20, backend)
    path = tmp_path / "pass.jsonl"
    write_records(records, path)
    assert read_records(PassOrderingRecord, path) == records


def test_single_pass_records_round_trip(tmp_path, backend, corpus20):
    records = build_single_pass_dataset(
        backend, corpus20, ("-dce",), per_pass=3, max_prefix_len=1, seed=4
    )
    path = tmp_path / "single.jsonl"
    write_records(records, path)
    assert read_records(SinglePassRecord, path) == records
