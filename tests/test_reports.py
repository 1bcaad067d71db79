import csv

import pytest

from passtune.autotuner import TuneResult
from passtune.evaluator import (
    EvalRow,
    overall_improvement,
    reports,
    summarize_rows,
    write_report_csvs,
    write_summary,
)
from passtune.predictor import Prediction
from passtune.util import read_records, write_records


def make_row(fid, dataset, unopt, oz, predicted):
    return EvalRow(fid, dataset, unopt, oz, predicted, oz - predicted)


def make_result(fid, best_list, best_count=3, baseline_count=5):
    return TuneResult(fid, "-Oz", baseline_count, best_list, best_count, 10)


@pytest.fixture
def bundle_inputs():
    tune_results = [
        make_result("a", "-Oz"),
        make_result("b", "-Oz"),
        make_result("c", "-Oz -mem2reg", best_count=2),
        make_result("d", "-dce -mem2reg -gvn"),
    ]
    predictions = [
        Prediction("a", "-Oz"),
        Prediction("b", "-mem2reg"),
        Prediction("c", "-Oz -mem2reg"),
        Prediction("d", "-Oz"),
    ]
    rows = [
        make_row("a", "suite/x", 3, 4, 4),
        make_row("b", "suite/x", 6, 6, 5),
        make_row("c", "suite/y", 9, 8, 10),
        make_row("d", "suite/y", 20, 12, 12),
    ]
    return rows, predictions, tune_results


def test_pass_frequency_is_containment_share(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    bundle = reports(rows, predictions, tune_results)
    freq = {r.flag: r for r in bundle.pass_frequency}
    assert freq["-Oz"].autotuner_frequency == pytest.approx(0.75)
    assert freq["-mem2reg"].autotuner_frequency == pytest.approx(0.5)
    assert freq["-dce"].autotuner_frequency == pytest.approx(0.25)
    assert freq["-gvn"].autotuner_frequency == pytest.approx(0.25)
    assert freq["-Oz"].predictor_frequency == pytest.approx(0.75)
    assert freq["-mem2reg"].predictor_frequency == pytest.approx(0.5)
    assert freq["-dce"].predictor_frequency == 0.0
    # ordered by descending autotuner share, then flag
    assert [r.flag for r in bundle.pass_frequency][:2] == ["-Oz", "-mem2reg"]


def test_length_stats_exclude_bare_oz(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    bundle = reports(rows, predictions, tune_results)
    auto = bundle.autotuner_lengths
    assert auto.share_bare_oz == pytest.approx(0.5)
    assert auto.mean_length == pytest.approx(2.5)  # lengths 2 and 3
    assert auto.max_length == 3
    pred = bundle.predictor_lengths
    assert pred.share_bare_oz == pytest.approx(0.5)
    assert pred.mean_length == pytest.approx(1.5)  # lengths 1 and 2
    assert pred.max_length == 2


def test_dataset_groups_recombine_to_global(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    bundle = reports(rows, predictions, tune_results)
    assert [g.group for g in bundle.by_dataset] == ["suite/x", "suite/y"]
    assert sum(g.functions for g in bundle.by_dataset) == len(rows)
    assert sum(g.sum_oz for g in bundle.by_dataset) == sum(r.oz_count for r in rows)
    assert sum(g.sum_predicted for g in bundle.by_dataset) == sum(
        r.predicted_count for r in rows
    )
    x = bundle.by_dataset[0]
    assert x.improvement_percent == pytest.approx(
        overall_improvement(x.sum_oz, x.sum_predicted)
    )


def test_size_buckets_are_powers_of_two(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    bundle = reports(rows, predictions, tune_results)
    buckets = {g.group: g for g in bundle.by_size_bucket}
    # unopt counts 3, 6, 9, 20 land in [2,4), [4,8), [8,16), [16,32)
    assert set(buckets) == {"[2,4)", "[4,8)", "[8,16)", "[16,32)"}
    assert [g.group for g in bundle.by_size_bucket] == [
        "[2,4)",
        "[4,8)",
        "[8,16)",
        "[16,32)",
    ]
    assert buckets["[2,4)"].functions == 1


def test_novel_lists_and_beats_autotuner(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    bundle = reports(rows, predictions, tune_results)
    # "-mem2reg" was never produced by the tuner; everything else was
    assert bundle.novel_lists == ("-mem2reg",)
    assert bundle.novel_list_count == 1
    # no predicted count undercuts its tuned best here
    assert bundle.beats_autotuner == 0


def test_beats_autotuner_counts_strict_wins(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    rows = rows[:2] + [make_row("c", "suite/y", 9, 8, 1)] + rows[3:]
    bundle = reports(rows, predictions, tune_results)
    assert bundle.beats_autotuner == 1  # 1 < tuned best of 2 on c


def test_reports_require_rows(bundle_inputs):
    _, predictions, tune_results = bundle_inputs
    with pytest.raises(ValueError):
        reports([], predictions, tune_results)


def test_csv_outputs(tmp_path, bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    bundle = reports(rows, predictions, tune_results)
    written = write_report_csvs(bundle, tmp_path / "out")
    names = [p.name for p in written]
    assert names == [
        "pass_frequency.csv",
        "list_lengths.csv",
        "improvement_by_dataset.csv",
        "improvement_by_size.csv",
        "novel_lists.csv",
    ]
    with open(written[0], newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["flag", "autotuner_frequency", "predictor_frequency"]
    assert table[1] == ["-Oz", "0.750000", "0.750000"]
    with open(written[1], newline="") as fh:
        lengths = list(csv.reader(fh))
    assert lengths[1] == ["autotuner", "0.500000", "2.500000", "3"]
    with open(written[4], newline="") as fh:
        novel = list(csv.reader(fh))
    assert novel == [["pass_list"], ["-mem2reg"]]


def test_rows_round_trip_and_summary_file(tmp_path, bundle_inputs):
    rows, _, _ = bundle_inputs
    path = tmp_path / "rows.jsonl"
    assert write_records(rows, path) == len(rows)
    assert read_records(EvalRow, path) == rows

    summary = summarize_rows(rows, additional_compilations=1)
    out = tmp_path / "summary.txt"
    write_summary(
        {"total_functions": summary.total_functions, "overall": 1.25}, out
    )
    text = out.read_text()
    assert "total_functions = 4\n" in text
    assert "overall = 1.25\n" in text
