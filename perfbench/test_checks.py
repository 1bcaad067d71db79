"""Each output check rejects a deliberately corrupted output.

    python3 -m pytest perfbench

A small pipeline round runs in-process on the mini backend; the tests
then corrupt one output at a time and expect the matching check to fail.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent / "src"))

from perfbench import checks, trace  # noqa: E402
from perfbench.workloads import WORKLOADS, Files, Workload, stage_argvs  # noqa: E402

SMALL = Workload("small", 0, 0, (), ("--budget-evals", "8", "--max-len", "3"))


@pytest.fixture(scope="module")
def round_files(tmp_path_factory) -> Files:
    from passtune import cli
    from passtune.minigen import generate_corpus

    files = Files(tmp_path_factory.mktemp("round"))
    raw = files.work / "raw.jsonl"
    with open(raw, "w") as fh:
        for fn in generate_corpus(20, 5):
            fh.write(json.dumps({"id": fn.id, "raw_text": fn.raw_text}) + "\n")
    argv = ["ingest", str(raw), "--output", str(files.corpus), "--split", "train=0.8,test=0.2"]
    assert cli.main(argv) == 0
    for _, argv in stage_argvs(SMALL, 3, files):
        assert cli.main(argv) == 0
    return files


@pytest.fixture
def outputs(round_files):
    return (
        checks.read_jsonl(round_files.records),
        {r["function_id"]: r for r in checks.read_jsonl(round_files.tuned)},
        checks.read_jsonl(round_files.rows),
        checks.read_summary(round_files.summary),
    )


def test_uncorrupted_round_passes(round_files, outputs):
    records, tuned, rows, summary = outputs
    assert checks.check_counts(records, tuned) == []
    assert checks.check_properties(records, tuned, rows, summary) == []
    ops = checks.operations(SMALL, round_files)
    assert ops.failed == [] and ops.attempted == 16 + 16 + 6 + 4


def test_counter_counts_a_switch_once():
    text = "\n".join([
        "define i32 @f(i32 %x) {",
        "entry:",
        "switch i32 %x, label %d [",
        "i32 0, label %a",
        "i32 1, label %b",
        "i32 2, label %c",
        "]",
        "a:", "ret i32 1", "b:", "ret i32 2", "c:", "ret i32 3", "d:", "ret i32 0",
        "}",
    ])
    assert checks.count_instructions(text) == 5


def test_counts_reject_a_wrong_output_count(outputs):
    records, tuned, _, _ = outputs
    bad = dict(records[0], output_count=records[0]["output_count"] + 1)
    assert checks.check_counts([bad], tuned)


def test_counts_reject_code_that_does_not_match_its_count(outputs):
    records, tuned, _, _ = outputs
    rec = records[0]
    header, _, code = rec["answer"].partition("\n\n")
    lines = code.splitlines()
    lines.insert(2, "%extra = add i32 0, 0")
    bad = dict(rec, answer=header + "\n\n" + "\n".join(lines))
    assert checks.check_counts([bad], tuned)


def test_counts_reject_a_best_count_that_differs(outputs):
    records, tuned, _, _ = outputs
    fid = records[0]["function_id"]
    bad = dict(tuned, **{fid: dict(tuned[fid], best_count=tuned[fid]["best_count"] - 1)})
    assert checks.check_counts(records[:1], bad)


def test_properties_reject_best_above_baseline(outputs):
    records, tuned, rows, summary = outputs
    fid = next(iter(tuned))
    bad = dict(tuned, **{fid: dict(tuned[fid], best_count=tuned[fid]["baseline_count"] + 1)})
    assert checks.check_properties(records, bad, rows, summary)


def test_properties_reject_an_answer_with_another_list(outputs):
    records, tuned, rows, summary = outputs
    rec = records[0]
    bad = dict(rec, answer=rec["answer"].replace("Run passes", "Run passes -dce", 1))
    assert checks.check_properties([bad], tuned, rows, summary)


def test_properties_reject_a_prediction_worse_than_oz(outputs):
    records, tuned, rows, summary = outputs
    row = dict(rows[0], predicted_count=rows[0]["oz_count"] + 1)
    assert checks.check_properties(records, tuned, [row] + rows[1:], summary)


def test_properties_reject_a_wrong_overall_improvement(outputs):
    records, tuned, rows, summary = outputs
    bad = dict(summary, overall_improvement=str(float(summary["overall_improvement"]) + 0.5))
    assert checks.check_properties(records, tuned, rows, bad)


needs_lli = pytest.mark.skipif(shutil.which("lli") is None, reason="lli not installed")


@needs_lli
def test_behaviour_accepts_the_tuned_code(outputs):
    records, _, _, _ = outputs
    assert checks.check_behaviour(records, seed=1) == []


@needs_lli
def test_behaviour_rejects_code_that_returns_another_value(outputs):
    records, _, _, _ = outputs
    rec = next(r for r in records if r["answer"].count("\nret i32 ") == 1)
    header, _, code = rec["answer"].partition("\n\n")
    ret = next(line for line in code.splitlines() if line.startswith("ret i32 "))
    bad = dict(rec, answer=header + "\n\n" + code.replace(ret, "ret i32 123456"))
    assert checks.check_behaviour([bad], seed=1)


def test_operations_count_a_failed_prediction(round_files, tmp_path):
    files = Files(tmp_path)
    for name in ("train", "test", "tuned", "records", "single_pass"):
        shutil.copy(getattr(round_files, name), getattr(files, name))
    rows = checks.read_jsonl(round_files.rows)
    rows[0]["prediction_failed"] = True
    files.rows.write_text("".join(json.dumps(r) + "\n" for r in rows))
    ops = checks.operations(SMALL, files)
    assert ops.failed == [f"evaluate {rows[0]['function_id']}"]


def test_benchmark_json_names_every_workload():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_tracer_restores_the_program_and_reports_a_missing_name(monkeypatch):
    from passtune.backend import mini
    from passtune.backend.mini import MiniBackend

    apply_before, normalize_before = MiniBackend.apply, mini.normalize
    layers = trace.LAYERS + (("passtune.ircore", "no_such_function", "leaf", "ircore.gone"),)
    monkeypatch.setattr(trace, "LAYERS", layers)
    tracer = trace.Tracer("test")
    tracer.install()
    assert MiniBackend.apply is not apply_before and mini.normalize is not normalize_before
    tracer.uninstall()
    assert MiniBackend.apply is apply_before and mini.normalize is normalize_before
    assert tracer.absent == ["ircore.gone"]


def test_tracer_work_is_taken_out_of_the_spans_around_it():
    tracer = trace.Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            start = time.perf_counter()
            time.sleep(0.05)
            tracer._tracer_work_done(time.perf_counter() - start)
    summary = tracer.summary()
    assert summary["trace.render"]["calls"] == 1
    assert summary["outer"]["inclusive_s"] < 0.02
    assert summary["inner"]["inclusive_s"] < 0.02 and summary["inner"]["self_s"] < 0.02
