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
    tables, _ = reports(*bundle_inputs)
    header, *lines = tables["pass_frequency.csv"]
    assert header == ["flag", "autotuner_frequency", "predictor_frequency"]
    freq = {flag: (tuner, predictor) for flag, tuner, predictor in lines}
    assert freq["-Oz"] == ("0.750000", "0.750000")
    assert freq["-mem2reg"] == ("0.500000", "0.500000")
    assert freq["-dce"] == ("0.250000", "0.000000")
    assert freq["-gvn"][0] == "0.250000"
    # ordered by descending autotuner share, then flag
    assert [flag for flag, _, _ in lines][:2] == ["-Oz", "-mem2reg"]


def test_length_stats_exclude_bare_oz(bundle_inputs):
    tables, _ = reports(*bundle_inputs)
    assert tables["list_lengths.csv"] == [
        ["source", "share_bare_oz", "mean_length", "max_length"],
        ["autotuner", "0.500000", "2.500000", "3"],  # lengths 2 and 3
        ["predictor", "0.500000", "1.500000", "2"],  # lengths 1 and 2
    ]


def test_length_stats_of_no_lists_are_zero(bundle_inputs):
    rows, _, _ = bundle_inputs
    tables, beats = reports(rows, [], [])
    assert tables["list_lengths.csv"][1:] == [
        ["autotuner", "0.000000", "0.000000", "0"],
        ["predictor", "0.000000", "0.000000", "0"],
    ]
    assert tables["pass_frequency.csv"] == [
        ["flag", "autotuner_frequency", "predictor_frequency"]
    ]
    assert beats == 0


def test_dataset_groups_recombine_to_global(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    tables, _ = reports(rows, predictions, tune_results)
    header, *groups = tables["improvement_by_dataset.csv"]
    assert header == [
        "group", "functions", "sum_oz", "sum_predicted", "improvement_percent"
    ]
    assert [g[0] for g in groups] == ["suite/x", "suite/y"]
    assert sum(int(g[1]) for g in groups) == len(rows)
    assert sum(int(g[2]) for g in groups) == sum(r.oz_count for r in rows)
    assert sum(int(g[3]) for g in groups) == sum(r.predicted_count for r in rows)
    _, _, sum_oz, sum_predicted, improvement = groups[0]
    assert improvement == (
        f"{overall_improvement(int(sum_oz), int(sum_predicted)):.4f}"
    )


def test_size_buckets_are_powers_of_two(bundle_inputs):
    tables, _ = reports(*bundle_inputs)
    groups = tables["improvement_by_size.csv"][1:]
    # unopt counts 3, 6, 9, 20 land in [2,4), [4,8), [8,16), [16,32),
    # ordered by lower bound, not as text
    assert [g[0] for g in groups] == ["[2,4)", "[4,8)", "[8,16)", "[16,32)"]
    assert groups[0][1] == "1"


def test_novel_lists_and_beats_autotuner(bundle_inputs):
    tables, beats = reports(*bundle_inputs)
    # "-mem2reg" was never produced by the tuner; everything else was
    assert tables["novel_lists.csv"] == [["pass_list"], ["-mem2reg"]]
    # no predicted count undercuts its tuned best here
    assert beats == 0


def test_beats_autotuner_counts_strict_wins(bundle_inputs):
    rows, predictions, tune_results = bundle_inputs
    rows = rows[:2] + [make_row("c", "suite/y", 9, 8, 1)] + rows[3:]
    _, beats = reports(rows, predictions, tune_results)
    assert beats == 1  # 1 < tuned best of 2 on c


def test_reports_require_rows(bundle_inputs):
    _, predictions, tune_results = bundle_inputs
    with pytest.raises(ValueError):
        reports([], predictions, tune_results)


def test_csv_outputs(tmp_path, bundle_inputs):
    tables, _ = reports(*bundle_inputs)
    written = write_report_csvs(tables, tmp_path / "out")
    names = [p.name for p in written]
    assert names == [
        "pass_frequency.csv",
        "list_lengths.csv",
        "improvement_by_dataset.csv",
        "improvement_by_size.csv",
        "novel_lists.csv",
    ]
    for path in written:
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == tables[path.name]
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
        {"total_functions": summary["total_functions"], "overall": 1.25}, out
    )
    text = out.read_text()
    assert "total_functions = 4\n" in text
    assert "overall = 1.25\n" in text
