import json
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from passtune import __version__
from passtune.autotuner import SearchBudget, TuneResult, autotune_corpus
from passtune.backend import BackendUnavailableError
from passtune.backend.llvm import LlvmBackend, resolve_opt_path
from passtune.backend.mini import MiniBackend
from passtune.cli import main
from passtune.dataset import parse_answer, render_answer
from passtune.evaluator import EvalRow
from passtune.ircore import read_corpus
from passtune.predictor import Prediction
from passtune.util import (
    DEFAULT_WALL_CLOCK_SECONDS,
    file_digest,
    read_jsonl,
    read_records,
    write_jsonl,
)

from test_evaluator import CODE_KEYS, SUMMARY_KEYS
from test_llvm_backend import write_stub

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def assert_errors(capsys, caplog, *messages):
    """The whole of stderr is one ``error: <message>`` line per message, in
    order. Nothing may be logged either: pytest captures log records, which a
    plain run would print to stderr as bare lines."""
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if not line.startswith("error: ")] == []
    assert lines == [f"error: {message}" for message in messages]
    assert [record.getMessage() for record in caplog.records] == []


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert run("gen-mini-corpus", "--n", 12, "--output", path) == 0
    return path


@pytest.fixture
def tuned_file(tmp_path, corpus_file):
    path = tmp_path / "tuned.jsonl"
    code = run(
        "autotune",
        "--corpus", corpus_file,
        "--output", path,
        "--budget-evals", 6,
        "--max-len", 2,
        "--seed", 3,
    )
    assert code == 0
    return path


# --- basics -----------------------------------------------------------------


def test_version_and_help_exit_cleanly(capsys):
    assert run("--version") == 0
    assert __version__ in capsys.readouterr().out
    assert run("--help") == 0
    assert run("autotune", "--help") == 0


def test_no_subcommand_is_a_usage_error():
    assert run() == 2


def test_unknown_flag_is_a_usage_error(corpus_file, tmp_path):
    assert run("gen-mini-corpus", "--n", 3, "--output",
               tmp_path / "x.jsonl", "--bogus") == 2


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## Quick start\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("passtune ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


# --- ingest -----------------------------------------------------------------


def test_ingest_ll_files(tmp_path, capsys):
    first = tmp_path / "first.ll"
    second = tmp_path / "second.ll"
    shutil.copy(DATA / "sample.ll", first)
    second.write_text("define i32 @two(i32 %a) {\nret i32 %a\n}\n")
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", first, second, "--output", out) == 0
    corpus = read_corpus(out)
    assert [fn.id for fn in corpus] == ["first", "second"]
    printed = capsys.readouterr().out
    assert "functions = 2" in printed
    assert (tmp_path / "corpus.jsonl.manifest.json").exists()


def test_ingest_jsonl_rows(tmp_path):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(
        json.dumps(
            {
                "id": "r1",
                "source_dataset": "suite/z",
                "raw_text": "define i32 @r1() {\nret i32 4\n}",
            }
        )
        + "\n"
    )
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", rows, "--output", out) == 0
    corpus = read_corpus(out)
    assert corpus[0].id == "r1"
    assert corpus[0].source_dataset == "suite/z"


def test_ingest_source_dataset_labels_what_has_no_label(tmp_path):
    ll = tmp_path / "one.ll"
    shutil.copy(DATA / "sample.ll", ll)
    rows = tmp_path / "rows.jsonl"
    write_jsonl(
        [
            {
                "id": "own",
                "source_dataset": "suite/z",
                "raw_text": "define i32 @own() {\nret i32 4\n}",
            },
            {"id": "bare", "raw_text": "define i32 @bare() {\nret i32 5\n}"},
        ],
        rows,
    )
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", ll, rows, "--output", out, "--source-dataset", "lab") == 0
    labels = {fn.id: fn.source_dataset for fn in read_corpus(out)}
    assert labels == {"one": "lab", "own": "suite/z", "bare": "lab"}


def test_ingest_reports_partial_failure(tmp_path, capsys, caplog):
    good = tmp_path / "good.ll"
    shutil.copy(DATA / "sample.ll", good)
    bad = tmp_path / "bad.ll"
    bad.write_text("this is not IR\n")
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", good, bad, "--output", out) == 4
    assert len(read_corpus(out)) == 1
    assert_errors(
        capsys, caplog,
        f"{bad}:bad: function 'bad' must contain exactly one definition",
    )


def test_ingest_skips_a_file_that_is_not_utf8(tmp_path, capsys, caplog):
    good = tmp_path / "good.ll"
    shutil.copy(DATA / "sample.ll", good)
    bad = tmp_path / "bad.ll"
    bad.write_bytes(b"; caf\xe9\ndefine i32 @bad() {\nret i32 1\n}\n")
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", good, bad, "--output", out) == 4
    assert [fn.id for fn in read_corpus(out)] == ["good"]
    assert_errors(capsys, caplog, f"{bad}: not UTF-8 text")


def test_ingest_without_a_good_function_still_names_each_failure(tmp_path, capsys):
    bad = tmp_path / "bad.ll"
    bad.write_text("this is not IR\n")
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", bad, "--output", out) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":", 1)[0] for line in lines] == ["error", "error"]
    assert lines[0].startswith(f"error: {bad}:bad: ")
    assert lines[1] == "error: no functions ingested"
    assert not out.exists()


def test_ingest_split_writes_disjoint_parts(tmp_path):
    first = tmp_path / "first.ll"
    second = tmp_path / "second.ll"
    shutil.copy(DATA / "sample.ll", first)
    second.write_text("define i32 @two(i32 %a) {\nret i32 %a\n}\n")
    out = tmp_path / "corpus.jsonl"
    assert run(
        "ingest", first, second, "--output", out, "--split", "train=0.5,test=0.5"
    ) == 0
    train = read_corpus(tmp_path / "corpus.train.jsonl")
    test = read_corpus(tmp_path / "corpus.test.jsonl")
    assert len(train) == 1 and len(test) == 1
    assert {train[0].id, test[0].id} == {"first", "second"}
    assert not out.exists()  # only the split parts are written


def test_ingest_split_with_an_empty_part_writes_nothing(
    tmp_path, corpus_file, capsys, caplog
):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(
        [{"id": fn.id, "raw_text": fn.raw_text} for fn in read_corpus(corpus_file)],
        raw,
    )
    out = tmp_path / "parts" / "corpus.jsonl"
    out.parent.mkdir()
    capsys.readouterr()
    assert run(
        "ingest", raw, "--output", out, "--split", "train=0.99,test=0.01"
    ) == 2
    assert_errors(capsys, caplog, "split part 'test' gets none of the 12 functions")
    assert list(out.parent.iterdir()) == []


def test_ingest_dedup_drops_copies(tmp_path):
    first = tmp_path / "first.ll"
    copy = tmp_path / "copy.ll"
    shutil.copy(DATA / "sample.ll", first)
    shutil.copy(DATA / "sample.ll", copy)
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", first, copy, "--output", out, "--dedup") == 0
    assert len(read_corpus(out)) == 1


@pytest.fixture
def same_stem(tmp_path):
    """Two different functions in ``a/f.ll`` and ``b/f.ll``: both get id ``f``."""
    paths = []
    for folder, body in (("a", "ret i32 %a"), ("b", "%x = add i32 %a, 1\nret i32 %x")):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "f.ll"
        path.write_text(f"define i32 @f(i32 %a) {{\n{body}\n}}\n")
        paths.append(path)
    return paths


def test_ingest_rejects_a_repeated_id_and_writes_nothing(tmp_path, same_stem, capsys):
    out = tmp_path / "corpus.jsonl"
    capsys.readouterr()
    assert run("ingest", *same_stem, "--output", out, "--dedup") == 2
    assert capsys.readouterr().err == "error: repeated function id(s): f\n"
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()


def test_a_corpus_with_a_repeated_id_is_a_config_error(tmp_path, same_stem, capsys):
    corpus = tmp_path / "corpus.jsonl"
    for n, path in enumerate(same_stem):
        part = tmp_path / f"part{n}.jsonl"
        assert run("ingest", path, "--output", part) == 0
        with open(corpus, "a") as fh:
            fh.write(part.read_text())
    capsys.readouterr()
    assert run(
        "autotune", "--corpus", corpus, "--output", tmp_path / "out.jsonl",
        "--budget-evals", 1,
    ) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}:2: repeated function id 'f'\n"
    )
    assert not (tmp_path / "out.jsonl").exists()


# --- pipeline ---------------------------------------------------------------


def test_full_pipeline_runs_clean(tmp_path, corpus_file, tuned_file):
    records = tmp_path / "records.jsonl"
    assert run(
        "dataset",
        "--corpus", corpus_file,
        "--tune-results", tuned_file,
        "--output", records,
    ) == 0
    assert records.exists()

    single = tmp_path / "single.jsonl"
    assert run(
        "single-pass-dataset",
        "--corpus", corpus_file,
        "--output", single,
        "--passes=-dce,-mem2reg",  # = form: the values themselves start with -
        "--per-pass", 2,
        "--max-prefix-len", 1,
    ) == 0

    preds = tmp_path / "preds.jsonl"
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--output", preds,
        "--method", "top-frequency",
        "--tune-results", tuned_file,
    ) == 0
    assert len(read_records(Prediction, preds)) == 12

    rows = tmp_path / "rows.jsonl"
    assert run(
        "evaluate",
        "--corpus", corpus_file,
        "--predictions", preds,
        "--output", rows,
        "--oz-backup",
    ) == 0
    assert len(read_records(EvalRow, rows)) == 12
    assert (tmp_path / "rows.summary.jsonl").exists()

    report_dir = tmp_path / "report"
    assert run(
        "report",
        "--rows", rows,
        "--predictions", preds,
        "--tune-results", tuned_file,
        "--output-dir", report_dir,
    ) == 0
    names = sorted(p.name for p in report_dir.iterdir())
    assert names == [
        "improvement_by_dataset.csv",
        "improvement_by_size.csv",
        "list_lengths.csv",
        "manifest.json",
        "novel_lists.csv",
        "pass_frequency.csv",
    ]


def test_reruns_are_byte_identical(tmp_path, corpus_file):
    outputs = []
    for name in ("a", "b"):
        tuned = tmp_path / f"tuned-{name}.jsonl"
        assert run(
            "autotune",
            "--corpus", corpus_file,
            "--output", tuned,
            "--budget-evals", 5,
            "--max-len", 2,
            "--seed", 11,
        ) == 0
        records = tmp_path / f"records-{name}.jsonl"
        assert run(
            "dataset",
            "--corpus", corpus_file,
            "--tune-results", tuned,
            "--output", records,
        ) == 0
        outputs.append((file_digest(tuned), file_digest(records)))
    assert outputs[0] == outputs[1]


def test_evaluate_always_oz_scores_zero(tmp_path, corpus_file, capsys):
    preds = tmp_path / "preds.jsonl"
    rows = tmp_path / "rows.jsonl"
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--method", "always-oz",
        "--output", preds,
    ) == 0
    capsys.readouterr()
    assert run(
        "evaluate",
        "--corpus", corpus_file,
        "--predictions", preds,
        "--output", rows,
    ) == 0
    printed = capsys.readouterr().out
    assert "overall_improvement = 0.0" in printed
    assert "functions_regressed = 0" in printed
    summary_text = (tmp_path / "rows.summary.jsonl").read_text()
    assert "overall_improvement = 0.0" in summary_text
    # Without claims: the row keys only, in one order on all three outputs.
    assert [line.split(" = ")[0] for line in printed.splitlines()] == SUMMARY_KEYS
    assert list(_summary_values(tmp_path / "rows.summary.jsonl")) == SUMMARY_KEYS
    manifest = json.loads(rows.with_name(rows.name + ".manifest.json").read_text())
    assert list(manifest["summary"]) == SUMMARY_KEYS


def test_manifest_contents(tmp_path, corpus_file, tuned_file):
    manifest_path = tuned_file.with_name(tuned_file.name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["tool"] == "passtune"
    assert manifest["version"] == __version__
    assert manifest["subcommand"] == "autotune"
    assert manifest["seed"] == 3
    assert manifest["config"]["budget_evals"] == 6
    assert manifest["config"]["max_len"] == 2
    assert manifest["inputs"] == {str(corpus_file): file_digest(corpus_file)}
    assert "created" in manifest
    stats = manifest["stats"]
    assert list(stats) == [
        "functions_tuned",
        "mean_evaluations_per_function",
        "overall_improvement_percent",
        "baseline_failures",
    ]
    assert stats["functions_tuned"] == 12
    assert stats["baseline_failures"] == []


# case id -> (command line, the inputs its manifest names, in order)
MANIFEST_INPUTS = {
    "ingest": ("ingest {raw} --output {out}", ["raw"]),
    "gen-mini-corpus": ("gen-mini-corpus --n 2 --output {out}", []),
    "autotune": (
        "autotune --corpus {corpus} --output {out} --budget-evals 1", ["corpus"]
    ),
    "dataset": (
        "dataset --corpus {corpus} --tune-results {tuned} --output {out}",
        ["corpus", "tuned"],
    ),
    "single-pass-dataset": (
        "single-pass-dataset --corpus {corpus} --output {out} --passes=-dce"
        " --per-pass 1",
        ["corpus"],
    ),
    "evaluate": (
        "evaluate --corpus {corpus} --predictions {preds} --output {out}",
        ["corpus", "preds"],
    ),
    "report": (
        "report --rows {rows} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
        ["rows", "preds", "tuned"],
    ),
    "predict-always-oz": (
        "predict --corpus {corpus} --method always-oz --output {out}", ["corpus"]
    ),
    "predict-top-frequency": (
        "predict --corpus {corpus} --method top-frequency --tune-results {tuned}"
        " --output {out}",
        ["corpus", "tuned"],
    ),
    "predict-retrieval": (
        "predict --corpus {corpus} --method retrieval --tune-results {tuned}"
        " --train-corpus {train} --output {out}",
        ["corpus", "train", "tuned"],
    ),
    "predict-file": (
        "predict --corpus {corpus} --method file --predictions-file {preds}"
        " --output {out}",
        ["corpus", "preds"],
    ),
}


@pytest.mark.parametrize(
    "argv,kinds", MANIFEST_INPUTS.values(), ids=MANIFEST_INPUTS.keys()
)
def test_manifest_inputs_are_the_files_read(tmp_path, input_files, argv, kinds):
    names = {key: str(path) for key, path in input_files.items()}
    names["train"] = str(tmp_path / "train.jsonl")  # not the corpus file itself
    shutil.copy(input_files["train"], names["train"])
    out = tmp_path / "out"
    assert run(*(arg.format(out=out, **names) for arg in argv.split())) == 0
    manifest_path = (
        out / "manifest.json" if argv.startswith("report")
        else out.with_name("out.manifest.json")
    )
    manifest = json.loads(manifest_path.read_text())
    assert list(manifest["inputs"].items()) == [
        (names[kind], file_digest(names[kind])) for kind in kinds
    ]


# --- config files -----------------------------------------------------------


def test_config_file_matches_flags(tmp_path, corpus_file):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"budget-evals": 5, "max-len": 2, "seed": 9}))
    via_config = tmp_path / "via-config.jsonl"
    assert run(
        "autotune", "--config", config,
        "--corpus", corpus_file, "--output", via_config,
    ) == 0
    via_config_equals = tmp_path / "via-config-equals.jsonl"
    assert run(
        "autotune", f"--config={config}",
        "--corpus", corpus_file, "--output", via_config_equals,
    ) == 0
    via_flags = tmp_path / "via-flags.jsonl"
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", via_flags,
        "--budget-evals", 5,
        "--max-len", 2,
        "--seed", 9,
    ) == 0
    assert file_digest(via_config) == file_digest(via_flags)
    assert file_digest(via_config_equals) == file_digest(via_flags)


def test_explicit_flags_beat_config(tmp_path, corpus_file):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"max-len": 1, "budget-evals": 5, "seed": 9}))
    overridden = tmp_path / "overridden.jsonl"
    assert run(
        "autotune", "--config", config, "--max-len", 2,
        "--corpus", corpus_file, "--output", overridden,
    ) == 0
    pure = tmp_path / "pure.jsonl"
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", pure,
        "--budget-evals", 5,
        "--max-len", 2,
        "--seed", 9,
    ) == 0
    assert file_digest(overridden) == file_digest(pure)


def test_unknown_config_key_is_rejected(tmp_path, corpus_file, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"budget-evals": 5, "max-length": 2}))
    assert run(
        "autotune", "--config", config,
        "--corpus", corpus_file, "--output", tmp_path / "x.jsonl",
    ) == 2
    assert "unrecognized arguments: --max-length=2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [{"backend": "gcc"}, {"max-len": 2.5}, {"max": 2}],
    ids=["bad-choice", "bad-type", "flag-prefix"],
)
def test_config_values_are_checked_like_flags(tmp_path, corpus_file, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"budget-evals": 2, **config}))
    out = tmp_path / "x.jsonl"
    assert run(
        "autotune", "--config", path, "--corpus", corpus_file, "--output", out
    ) == 2
    assert not out.exists()


def test_a_config_key_the_subcommand_does_not_take_is_rejected(
    tmp_path, corpus_file, tuned_file, capsys
):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"budget-evals": 5}))
    out = tmp_path / "records.jsonl"
    assert run(
        "dataset", "--config", path,
        "--corpus", corpus_file, "--tune-results", tuned_file, "--output", out,
    ) == 2
    assert "--budget-evals=5" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_map_to_flags(tmp_path, corpus_file):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "budget_evals": 2,
        "no-broadcast": True,
        "no-minimize": False,
        "opt-path": None,
        "opt-arg": ["-a", "-b"],
    }))
    out = tmp_path / "x.jsonl"
    assert run(
        "autotune", "--config", path, "--opt-arg=-c",
        "--corpus", corpus_file, "--output", out,
    ) == 0
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    config = manifest["config"]
    assert config["budget_evals"] == 2
    assert config["no_broadcast"] is True
    assert config["no_minimize"] is False
    assert config["opt_path"] is None
    assert config["opt_arg"] == ["-a", "-b", "-c"]


def test_malformed_config_is_rejected(tmp_path, corpus_file):
    config = tmp_path / "run.json"
    config.write_text("[1, 2, 3]")
    assert run(
        "autotune", "--config", config,
        "--corpus", corpus_file, "--output", tmp_path / "x.jsonl",
    ) == 2


# --- exit codes -------------------------------------------------------------


def test_missing_corpus_is_a_config_error(tmp_path, capsys):
    assert run(
        "autotune",
        "--corpus", tmp_path / "missing.jsonl",
        "--output", tmp_path / "out.jsonl",
        "--budget-evals", 2,
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_conflicting_budgets_are_rejected(tmp_path, corpus_file):
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", tmp_path / "out.jsonl",
        "--budget-evals", 2,
        "--budget-seconds", 1.5,
    ) == 2


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--budget-seconds", 0, "budget seconds must be positive, got 0.0"),
        ("--budget-seconds", "inf", "budget seconds must be finite, got inf"),
        ("--budget-evals", -1, "budget evaluations must be >= 0, got -1"),
    ],
)
def test_a_bad_budget_names_the_flag_and_the_value(
    tmp_path, corpus_file, capsys, flag, value, message
):
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert run(
        "autotune", "--corpus", corpus_file, "--output", out, flag, value
    ) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()


def test_autotune_without_a_budget_flag_takes_the_default_wall_clock(
    tmp_path, corpus_file, monkeypatch
):
    budgets = []

    def spy(backend, functions, budget, **kwargs):
        budgets.append(budget)
        return autotune_corpus(backend, functions, budget, **kwargs)

    monkeypatch.setattr("passtune.autotuner.autotune_corpus", spy)
    out = tmp_path / "out.jsonl"
    assert run(
        "autotune", "--corpus", corpus_file, "--output", out,
        "--max-len", 1, "--no-minimize", "--no-broadcast",
    ) == 0
    assert budgets == [SearchBudget.wall_clock(DEFAULT_WALL_CLOCK_SECONDS)]
    # search stops once it has tried all 7 length-1 lists, -Oz included
    results = read_records(TuneResult, out)
    assert len(results) == 12
    assert {r.evaluations_used for r in results} == {7}


def test_fewer_than_one_worker_is_a_config_error(tmp_path, corpus_file, capsys):
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", tmp_path / "out.jsonl",
        "--budget-evals", 2,
        "--workers", 0,
    ) == 2
    assert "workers must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "subcommand", ["autotune", "dataset", "single-pass-dataset", "evaluate"]
)
@pytest.mark.parametrize(
    "value,message",
    [
        ("0", "workers must be at least 1, got 0"),
        ("-1", "workers must be at least 1, got -1"),
        ("abc", "invalid int value: 'abc'"),
    ],
)
def test_a_bad_worker_count_is_a_usage_error_on_every_compiling_subcommand(
    tmp_path, corpus_file, capsys, subcommand, value, message
):
    out = tmp_path / "out.jsonl"
    assert run(
        subcommand, "--corpus", corpus_file, "--output", out, "--workers", value
    ) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"passtune {subcommand}: error: argument --workers: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,workers",
    [
        ([], MiniBackend.default_workers),
        (["--workers", "2"], 2),
        (["--backend", "llvm"], LlvmBackend.default_workers),
        (["--backend", "llvm", "--workers", "1"], 1),
    ],
)
def test_the_manifest_records_the_workers_used(
    tmp_path, private_cache, corpus_file, flags, workers
):
    out = tmp_path / "out.jsonl"
    assert run(
        "autotune", "--corpus", corpus_file, "--output", out,
        "--budget-evals", 1, "--max-len", 1, "--no-minimize", "--no-broadcast",
        "--opt-path", write_stub(tmp_path), *flags,
    ) == 0
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert manifest["config"]["workers"] == workers
    assert type(manifest["config"]["workers"]) is int
    run_as = "threads" if "llvm" in flags else "forked processes"
    assert manifest["workers_run_as"] == (run_as if workers > 1 else "inline")


def test_an_llvm_manifest_says_which_path_compiled_and_why_not_the_server(
    tmp_path, private_cache, corpus_file
):
    outputs = {}
    for flags in ([], ["--backend", "llvm", "--opt-path", write_stub(tmp_path)]):
        out = outputs[len(flags)] = tmp_path / f"out{len(flags)}.jsonl"
        assert run(
            "autotune", "--corpus", corpus_file, "--output", out,
            "--budget-evals", 1, "--max-len", 1, "--no-minimize", "--no-broadcast",
            *flags,
        ) == 0
    manifests = {
        n: json.loads(out.with_name(out.name + ".manifest.json").read_text())
        for n, out in outputs.items()
    }
    assert "compile_path" not in manifests[0]
    assert manifests[4]["compile_path"] == {
        "path": "opt",
        "llvm_version": "10.0.0",
        "fallback_reason": "extra opt arguments are none, not -enable-new-pm=0",
    }


def test_a_timeout_that_is_not_positive_is_a_config_error(
    tmp_path, private_cache, corpus_file, capsys
):
    out = tmp_path / "out.jsonl"
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", out,
        "--budget-evals", 2,
        "--backend", "llvm",
        "--opt-path", write_stub(tmp_path),
        "--timeout", 0,
    ) == 2
    assert "timeout must be positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("backend", ["mini", "llvm"])
@pytest.mark.parametrize(
    "subcommand", ["autotune", "dataset", "single-pass-dataset", "predict", "evaluate"]
)
@pytest.mark.parametrize(
    "value,message",
    [
        ("nan", "timeout must be positive, got nan"),
        ("-1", "timeout must be positive, got -1.0"),
        ("inf", "timeout must be finite, got inf"),
        ("abc", "invalid float value: 'abc'"),
    ],
)
def test_a_bad_timeout_is_a_usage_error_on_every_backend(
    tmp_path, corpus_file, capsys, backend, subcommand, value, message
):
    out = tmp_path / "out.jsonl"
    assert run(
        subcommand,
        "--corpus", corpus_file,
        "--output", out,
        "--backend", backend,
        "--timeout", value,
    ) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"passtune {subcommand}: error: argument --timeout: {message}"
    assert not out.exists()


def test_a_max_len_below_one_is_a_config_error(tmp_path, corpus_file, capsys):
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", tmp_path / "out.jsonl",
        "--budget-evals", 2,
        "--max-len", 0,
    ) == 2
    assert "max_len must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.fixture
def input_files(tmp_path, corpus_file, tuned_file):
    """One valid input file of every kind a subcommand reads."""
    raw = tmp_path / "raw.jsonl"
    write_jsonl([{"id": "f", "raw_text": "define i32 @f() {\nret i32 0\n}"}], raw)
    preds = tmp_path / "preds.jsonl"
    rows = tmp_path / "rows.jsonl"
    assert run(
        "predict", "--corpus", corpus_file, "--method", "top-frequency",
        "--tune-results", tuned_file, "--output", preds,
    ) == 0
    assert run(
        "evaluate", "--corpus", corpus_file, "--predictions", preds, "--output", rows
    ) == 0
    return {
        "raw": raw, "corpus": corpus_file, "train": corpus_file,
        "tuned": tuned_file, "preds": preds, "rows": rows,
    }


def _without(field):
    return lambda row: json.dumps({k: v for k, v in row.items() if k != field})


def _with(field, value):
    return lambda row: json.dumps({**row, field: value})


def run_with_a_second_row(tmp_path, input_files, kind, bad_row, argv):
    """Run ``argv`` with input ``kind`` cut to its first row followed by
    ``bad_row`` of it; returns the exit status and the file written."""
    first = input_files[kind].read_text().splitlines()[0]
    bad = tmp_path / f"bad-{kind}.jsonl"
    bad.write_text(first + "\n" + bad_row(json.loads(first)) + "\n")
    names = {key: str(path) for key, path in input_files.items()}
    names.update({kind: str(bad), "out": str(tmp_path / "out")})
    return run(*(arg.format(**names) for arg in argv.split())), bad


# case id -> (input whose second row is malformed, that row, command line)
MALFORMED_ROWS = {
    "ingest-not-json": ("raw", lambda row: "{not json", "ingest {raw} --output {out}"),
    "ingest-raw-text-number": (
        "raw", _with("raw_text", 5), "ingest {raw} --output {out}"
    ),
    "ingest-id-number": ("raw", _with("id", 7), "ingest {raw} --output {out}"),
    "ingest-missing-raw-text": (
        "raw", _without("raw_text"), "ingest {raw} --output {out}"
    ),
    "dataset-stale-token-estimate": (
        "corpus", _with("token_estimate", 999999),
        "dataset --corpus {corpus} --tune-results {tuned} --output {out}",
    ),
    "autotune-missing-field": (
        "corpus", _without("token_estimate"),
        "autotune --corpus {corpus} --output {out} --budget-evals 1",
    ),
    "single-pass-not-an-object": (
        "corpus", lambda row: "[1, 2]",
        "single-pass-dataset --corpus {corpus} --output {out}",
    ),
    "dataset-wrong-type": (
        "tuned", _with("best_pass_list", 7),
        "dataset --corpus {corpus} --tune-results {tuned} --output {out}",
    ),
    "predict-top-frequency-missing-fields": (
        "tuned", lambda row: json.dumps({"function_id": row["function_id"]}),
        "predict --corpus {corpus} --method top-frequency --tune-results {tuned}"
        " --output {out}",
    ),
    "predict-retrieval-unknown-field": (
        "train", _with("comment", "x"),
        "predict --corpus {corpus} --method retrieval --tune-results {tuned}"
        " --train-corpus {train} --output {out}",
    ),
    "predict-file-no-function-id": (
        "preds", _without("function_id"),
        "predict --corpus {corpus} --method file --predictions-file {preds}"
        " --output {out}",
    ),
    "evaluate-missing-pass-list": (
        "preds", _without("pass_list"),
        "evaluate --corpus {corpus} --predictions {preds} --output {out}",
    ),
    "evaluate-pass-list-number": (
        "preds", _with("pass_list", 5),
        "evaluate --corpus {corpus} --predictions {preds} --output {out}",
    ),
    "report-rows-wrong-type": (
        "rows", _with("delta", "1"),
        "report --rows {rows} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
    ),
}


@pytest.mark.parametrize(
    "kind,bad_row,argv", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys()
)
def test_a_malformed_input_row_is_a_config_error(
    tmp_path, input_files, capsys, kind, bad_row, argv
):
    capsys.readouterr()
    code, bad = run_with_a_second_row(tmp_path, input_files, kind, bad_row, argv)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: " in err
    assert "Traceback" not in err


# case id -> (input, its int field, command line); JSON true is 1 to Python
TRUE_IN_AN_INT_FIELD = {
    "tuned-best-count": (
        "tuned", "best_count",
        "dataset --corpus {corpus} --tune-results {tuned} --output {out}",
    ),
    "corpus-instruction-count": (
        "corpus", "instruction_count",
        "autotune --corpus {corpus} --output {out} --budget-evals 1",
    ),
    "rows-delta": (
        "rows", "delta",
        "report --rows {rows} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
    ),
}


@pytest.mark.parametrize(
    "kind,field,argv", TRUE_IN_AN_INT_FIELD.values(), ids=TRUE_IN_AN_INT_FIELD.keys()
)
def test_json_true_in_an_int_field_is_a_config_error(
    tmp_path, input_files, capsys, caplog, kind, field, argv
):
    capsys.readouterr()
    bad_row = _with(field, True)
    code, bad = run_with_a_second_row(tmp_path, input_files, kind, bad_row, argv)
    assert code == 2
    assert_errors(capsys, caplog, f"{bad}:2: field {field} has the wrong type: true")
    assert not (tmp_path / "out").exists()


# (case in MANIFEST_INPUTS, the corpus input that is empty)
EMPTY_CORPORA = [
    (case, kind)
    for case, (_, kinds) in MANIFEST_INPUTS.items()
    for kind in kinds
    if kind in ("corpus", "train")
]


@pytest.mark.parametrize(
    "case,kind", EMPTY_CORPORA, ids=[f"{case}-{kind}" for case, kind in EMPTY_CORPORA]
)
def test_an_empty_corpus_is_a_config_error(
    tmp_path, input_files, capsys, caplog, case, kind
):
    names = {key: str(path) for key, path in input_files.items()}
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    names[kind] = str(empty)
    out = tmp_path / "out"
    argv = MANIFEST_INPUTS[case][0]
    capsys.readouterr()
    assert run(*(arg.format(out=out, **names) for arg in argv.split())) == 2
    assert_errors(capsys, caplog, f"corpus {empty} is empty")
    assert not out.exists()


# case id -> (command line, its error message); {blank} is a file holding
# one blank line, which is neither JSON nor a rows file with a row
CONFIG_ERRORS = {
    "split-part-without-fraction": (
        "ingest {raw} --output {out} --split train",
        "bad split part 'train'; use name=fraction,...",
    ),
    "split-fraction-not-a-number": (
        "ingest {raw} --output {out} --split train=x",
        "bad fraction in 'train=x'",
    ),
    "split-part-given-twice": (
        "ingest {raw} --output {out} --split train=0.5,train=0.5",
        "split part 'train' given twice",
    ),
    "split-part-given-twice-with-another": (
        "ingest {raw} --output {out} --split train=0.5,test=0.3,train=0.2",
        "split part 'train' given twice",
    ),
    "top-frequency-without-tune-results": (
        "predict --corpus {corpus} --method top-frequency --output {out}",
        "--method top-frequency requires --tune-results",
    ),
    "file-without-predictions-file": (
        "predict --corpus {corpus} --method file --output {out}",
        "--method file requires --predictions-file",
    ),
    "command-without-command": (
        "predict --corpus {corpus} --method command --output {out}",
        "--method command requires --command",
    ),
    "config-not-json": (
        "autotune --config {blank} --corpus {corpus} --output {out} --budget-evals 1",
        "config {blank}: Expecting value: line 2 column 1 (char 1)",
    ),
    "report-empty-rows": (
        "report --rows {blank} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
        "rows file {blank} is empty",
    ),
}


@pytest.mark.parametrize(
    "argv,message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys()
)
def test_a_bad_configuration_is_a_config_error_and_writes_nothing(
    tmp_path, input_files, capsys, caplog, argv, message
):
    names = {key: str(path) for key, path in input_files.items()}
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n")
    names["blank"] = str(blank)
    names["out"] = str(tmp_path / "out")
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*(arg.format(**names) for arg in argv.split())) == 2
    assert_errors(capsys, caplog, message.format(**names))
    assert set(tmp_path.rglob("*")) == before


def test_an_input_line_that_is_not_utf8_names_its_place(tmp_path, corpus_file, capsys):
    first, *rest = corpus_file.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad-corpus.jsonl"
    second = rest[0].replace(b'"mini', b'"\xffmini', 1)
    bad.write_bytes(first + second + b"".join(rest[1:]))
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert run("predict", "--corpus", bad, "--output", out) == 2
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"
    assert not out.exists()


# case id -> (input whose first row is repeated, command line)
REPEATED_IDS = {
    "dataset-tune-results": (
        "tuned", "dataset --corpus {corpus} --tune-results {tuned} --output {out}"
    ),
    "predict-tune-results": (
        "tuned",
        "predict --corpus {corpus} --method top-frequency --tune-results {tuned}"
        " --output {out}",
    ),
    "evaluate-predictions": (
        "preds", "evaluate --corpus {corpus} --predictions {preds} --output {out}"
    ),
    "predict-predictions-file": (
        "preds",
        "predict --corpus {corpus} --method file --predictions-file {preds}"
        " --output {out}",
    ),
    "report-rows": (
        "rows",
        "report --rows {rows} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
    ),
    "report-predictions": (
        "preds",
        "report --rows {rows} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
    ),
    "report-tune-results": (
        "tuned",
        "report --rows {rows} --predictions {preds} --tune-results {tuned}"
        " --output-dir {out}",
    ),
}


@pytest.mark.parametrize("kind,argv", REPEATED_IDS.values(), ids=REPEATED_IDS.keys())
def test_a_repeated_function_id_is_a_config_error(
    tmp_path, input_files, capsys, kind, argv
):
    first = input_files[kind].read_text().splitlines()[0]
    bad = tmp_path / f"bad-{kind}.jsonl"
    bad.write_text(first + "\n" + first + "\n")
    out = tmp_path / "out"
    names = {key: str(path) for key, path in input_files.items()}
    names.update({kind: str(bad), "out": str(out)})
    capsys.readouterr()
    assert run(*(arg.format(**names) for arg in argv.split())) == 2
    fid = json.loads(first)["function_id"]
    assert capsys.readouterr().err == (
        f"error: {bad}:2: repeated function id '{fid}'\n"
    )
    assert not out.exists()


@pytest.fixture
def xor_corpus(tmp_path, corpus_file):
    """The generated corpus plus one ingested function, ``xor``, whose
    instruction the mini backend cannot parse."""
    ll = tmp_path / "xor.ll"
    ll.write_text("define i32 @xorf(i32 %a) {\n  %x = xor i32 %a, 5\n  ret i32 %x\n}\n")
    ingested = tmp_path / "xor.jsonl"
    assert run("ingest", ll, "--output", ingested) == 0
    path = tmp_path / "xor-corpus.jsonl"
    path.write_text(corpus_file.read_text() + ingested.read_text())
    return path


@pytest.mark.parametrize("subcommand", ["autotune", "dataset", "evaluate"])
def test_partial_failures_exit_4_and_still_write(
    tmp_path, xor_corpus, tuned_file, capsys, caplog, subcommand
):
    out = tmp_path / "out.jsonl"
    if subcommand == "autotune":
        argv = ["--budget-evals", 2, "--max-len", 1]
        error = "baseline failed to compile: xor"
    elif subcommand == "evaluate":
        preds = tmp_path / "preds.jsonl"
        assert run(
            "predict", "--corpus", xor_corpus, "--method", "always-oz",
            "--output", preds,
        ) == 0
        argv = ["--predictions", preds]
        error = "baseline failed to compile: xor"
    else:
        tuned = tmp_path / "xor-tuned.jsonl"
        row = {
            "function_id": "xor",
            "baseline_pass_list": "-Oz",
            "baseline_count": 2,
            "best_pass_list": "-Oz",
            "best_count": 2,
            "evaluations_used": 1,
        }
        tuned.write_text(tuned_file.read_text() + json.dumps(row) + "\n")
        argv = ["--tune-results", tuned]
        error = "xor: unsupported instruction 'xor'"
    capsys.readouterr()
    assert run(subcommand, "--corpus", xor_corpus, "--output", out, *argv) == 4
    assert_errors(capsys, caplog, error)
    assert len(list(read_jsonl(out))) == 12  # every function but xor
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    if subcommand == "dataset":
        assert (manifest["records"], manifest["record_errors"]) == (12, 1)
    if subcommand == "evaluate":
        assert (tmp_path / "out.summary.jsonl").exists()


def test_unavailable_llvm_backend_maps_to_exit_3(tmp_path, corpus_file):
    assert run(
        "autotune",
        "--corpus", corpus_file,
        "--output", tmp_path / "out.jsonl",
        "--budget-evals", 2,
        "--backend", "llvm",
        "--opt-path", "/nonexistent/opt",
    ) == 3


def test_corpus_text_that_is_not_normalized_is_a_config_error(
    tmp_path, corpus_file, capsys
):
    rows = [json.loads(line) for line in corpus_file.read_text().splitlines()]
    rows[0]["normalized_text"] = "  " + rows[0]["normalized_text"]
    bad = tmp_path / "bad.jsonl"
    write_jsonl(rows, bad)
    assert run(
        "autotune",
        "--corpus", bad,
        "--output", tmp_path / "out.jsonl",
        "--budget-evals", 2,
    ) == 2
    assert "not a fixed point" in capsys.readouterr().err


def test_llvm_dataset_is_byte_identical_across_runs(tmp_path, corpus_file):
    try:
        resolve_opt_path()
    except BackendUnavailableError:
        pytest.skip("no optimizer executable on PATH or in PASSTUNE_OPT")
    tuned = tmp_path / "tuned.jsonl"
    write_jsonl(
        (
            {
                "function_id": fn.id,
                "baseline_pass_list": "-Oz",
                "baseline_count": fn.instruction_count,
                "best_pass_list": "-Oz",
                "best_count": fn.instruction_count,
                "evaluations_used": 1,
            }
            for fn in read_corpus(corpus_file)[:3]
        ),
        tuned,
    )
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert run(
            "dataset",
            "--corpus", corpus_file,
            "--tune-results", tuned,
            "--output", out,
            "--backend", "llvm",
            "--opt-arg=-enable-new-pm=0",
        ) == 0
        outputs.append(out)
    assert file_digest(outputs[0]) == file_digest(outputs[1])
    text = outputs[0].read_text()
    assert "<stdin>" in text
    assert "/tmp/" not in text


def test_retrieval_without_inputs_is_a_config_error(tmp_path, corpus_file):
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--output", tmp_path / "preds.jsonl",
        "--method", "retrieval",
    ) == 2


def test_file_predictions_missing_function_is_partial(
    tmp_path, corpus_file, capsys, caplog
):
    corpus = read_corpus(corpus_file)
    partial = tmp_path / "partial.jsonl"
    partial.write_text(
        json.dumps({"function_id": corpus[0].id, "pass_list": "-Oz"}) + "\n"
    )
    preds = tmp_path / "preds.jsonl"
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--output", preds,
        "--method", "file",
        "--predictions-file", partial,
    ) == 4
    assert len(read_records(Prediction, preds)) == 1
    assert_errors(
        capsys, caplog,
        *(f"{fn.id}: no prediction in file" for fn in corpus[1:]),
    )


@pytest.fixture
def lone_corpus(tmp_path):
    """A corpus of one function: with no prefix, one unique prompt per pass."""
    lone = tmp_path / "lone.ll"
    shutil.copy(DATA / "sample.ll", lone)
    corpus = tmp_path / "lone.jsonl"
    assert run("ingest", lone, "--output", corpus) == 0
    return corpus


def test_single_pass_shortfall_is_partial(tmp_path, lone_corpus, capsys, caplog):
    out = tmp_path / "single.jsonl"
    capsys.readouterr()
    assert run(
        "single-pass-dataset",
        "--corpus", lone_corpus,
        "--output", out,
        "--passes=-dce",
        "--per-pass", 3,
        "--max-prefix-len", 0,
    ) == 4
    assert_errors(capsys, caplog, "-dce: only 1 of 3 unique records")


@pytest.mark.parametrize(
    "per_pass,errors",
    [
        (1, []),
        (2, [f"{flag}: only 1 of 2 unique records" for flag in ("-gvn", "-dce")]),
    ],
    ids=["full", "short"],
)
def test_single_pass_reports_each_short_pass_once_in_order(
    tmp_path, lone_corpus, capsys, caplog, per_pass, errors
):
    out = tmp_path / "single.jsonl"
    capsys.readouterr()
    assert run(
        "single-pass-dataset",
        "--corpus", lone_corpus,
        "--output", out,
        "--passes=-gvn,-dce",
        "--per-pass", per_pass,
        "--max-prefix-len", 0,
    ) == (4 if errors else 0)
    assert_errors(capsys, caplog, *errors)
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert (manifest["records"], manifest["expected_records"]) == (2, 2 * per_pass)


def test_single_pass_repeated_target_is_a_config_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "single.jsonl"
    capsys.readouterr()
    assert run(
        "single-pass-dataset",
        "--corpus", corpus_file,
        "--output", out,
        "--passes=-dce,-dce",
        "--per-pass", 2,
    ) == 2
    assert capsys.readouterr().err == "error: target pass '-dce' given twice\n"
    assert not out.exists()


def test_single_pass_unknown_target_is_a_config_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "single.jsonl"
    assert run(
        "single-pass-dataset",
        "--corpus", corpus_file,
        "--output", out,
        "--passes=-dce,-nope",
    ) == 2
    assert "'-nope'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("passes", ["--passes=", "--passes=,"])
def test_single_pass_empty_target_list_is_a_config_error(
    tmp_path, corpus_file, capsys, caplog, passes
):
    out = tmp_path / "single.jsonl"
    capsys.readouterr()
    assert run(
        "single-pass-dataset", "--corpus", corpus_file, "--output", out, passes
    ) == 2
    assert_errors(capsys, caplog, "no target passes given")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "dataset --corpus {corpus} --tune-results {tuned} --output {out}",
        "single-pass-dataset --corpus {corpus} --output {out} --passes=-dce",
    ],
    ids=["dataset", "single-pass-dataset"],
)
def test_a_negative_token_limit_is_a_config_error(
    tmp_path, corpus_file, tuned_file, capsys, caplog, argv
):
    out = tmp_path / "records.jsonl"
    names = {"corpus": corpus_file, "tuned": tuned_file, "out": out}
    capsys.readouterr()
    assert run(*(a.format(**names) for a in argv.split()), "--token-limit", -5) == 2
    assert_errors(capsys, caplog, "token_limit must be >= 0, got -5")
    assert not out.exists()


def test_command_predictor_failures_are_partial(
    tmp_path, corpus_file, capsys, caplog
):
    # Fails on the first function only; the rest print a bare flag list.
    script = tmp_path / "model.py"
    first = read_corpus(corpus_file)[0]
    script.write_text(
        "import sys\n"
        f"if sys.stdin.read() == {first.normalized_text!r}:\n"
        "    sys.stderr.write('boom'); sys.exit(3)\n"
        "print('-mem2reg -dce')\n"
    )
    preds = tmp_path / "preds.jsonl"
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--output", preds,
        "--method", "command",
        "--command", shlex.join([sys.executable, str(script)]),
    ) == 4
    assert_errors(capsys, caplog, f"{first.id}: predictor exited with 3: boom")
    predictions = read_records(Prediction, preds)
    assert len(predictions) == len(read_corpus(corpus_file)) - 1
    assert {p.pass_list for p in predictions} == {"-mem2reg -dce"}


def test_command_predictor_output_that_is_not_utf8_costs_one_function(
    tmp_path, corpus_file, capsys, caplog
):
    script = tmp_path / "model.py"
    first = read_corpus(corpus_file)[0]
    script.write_text(
        "import sys\n"
        f"if sys.stdin.read() == {first.normalized_text!r}:\n"
        "    sys.stdout.buffer.write(b'-dce \\xff\\n'); sys.exit()\n"
        "print('-mem2reg -dce')\n"
    )
    preds = tmp_path / "preds.jsonl"
    capsys.readouterr()
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--output", preds,
        "--method", "command",
        "--command", shlex.join([sys.executable, str(script)]),
    ) == 4
    assert_errors(
        capsys, caplog,
        f"{first.id}: predictor output is not UTF-8: 'utf-8' codec can't decode "
        "byte 0xff in position 5: invalid start byte",
    )
    predictions = read_records(Prediction, preds)
    assert [p.function_id for p in predictions] == [
        fn.id for fn in read_corpus(corpus_file)[1:]
    ]
    assert {p.pass_list for p in predictions} == {"-mem2reg -dce"}


def test_evaluate_missing_predictions_is_partial(
    tmp_path, corpus_file, capsys, caplog
):
    corpus = read_corpus(corpus_file)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        json.dumps({"function_id": corpus[0].id, "pass_list": "-Oz"}) + "\n"
    )
    rows = tmp_path / "rows.jsonl"
    assert run(
        "evaluate",
        "--corpus", corpus_file,
        "--predictions", preds,
        "--output", rows,
    ) == 4
    assert_errors(
        capsys, caplog, f"{len(corpus) - 1} functions had no prediction"
    )
    assert len(read_records(EvalRow, rows)) == len(corpus)


def test_file_predictions_are_checked_against_the_installed_vocabulary(
    tmp_path, private_cache, corpus_file
):
    # The stub opt does not list -die, as opt 14 does not.
    stub = write_stub(tmp_path, omit=("-die",))
    corpus = read_corpus(corpus_file)
    answers = tmp_path / "answers.jsonl"
    write_jsonl(
        (
            {"function_id": fn.id, "pass_list": "-die" if i == 0 else "-dce"}
            for i, fn in enumerate(corpus)
        ),
        answers,
    )
    preds = tmp_path / "preds.jsonl"
    assert run(
        "predict",
        "--corpus", corpus_file,
        "--output", preds,
        "--method", "file",
        "--predictions-file", answers,
        "--backend", "llvm",
        "--opt-path", stub,
    ) == 0
    predictions = read_records(Prediction, preds)
    assert (predictions[0].pass_list, predictions[0].parse_failed) == ("-Oz", True)
    assert all(
        (p.pass_list, p.parse_failed) == ("-dce", False) for p in predictions[1:]
    )


def _summary_values(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


PERFECT_CLAIMS = {
    "code_compile_rate": "1.0",
    "code_exact_match_rate": "1.0",
    "code_bleu": "1.0",
    "code_input_count_mape": "0.0",
    "code_output_count_mape": "0.0",
}


def _break_type(code):
    head, ret, tail = code.rpartition("ret i32")
    return head + "ret i1" + tail


# name -> (rewrite of one answer's (items, input, output, code), the
# scores it must lower; every other score stays perfect)
CORRUPTIONS = {
    "clean": (lambda a: a, set()),
    "type-error": (
        lambda a: (*a[:3], _break_type(a[3])),
        {"code_compile_rate", "code_exact_match_rate", "code_bleu"},
    ),
    "changed-code": (
        lambda a: (*a[:3], a[3].replace("\nret ", "\n%x9 = add i32 1, 2\nret ", 1)),
        {"code_exact_match_rate", "code_bleu"},
    ),
    "counts-off-by-one": (
        lambda a: (a[0], a[1] + 1, a[2] + 1, a[3]),
        {"code_input_count_mape", "code_output_count_mape"},
    ),
}


def test_replayed_dataset_answers_score_perfect_claims(
    tmp_path, corpus_file, tuned_file
):
    """dataset's own answers, replayed as predictions, match the compiler
    exactly; one corrupted answer lowers just the scores it touches."""
    records = tmp_path / "records.jsonl"
    assert run(
        "dataset", "--corpus", corpus_file, "--tune-results", tuned_file,
        "--output", records,
    ) == 0
    answers = [row for _, row in read_jsonl(records)]
    n = len(read_corpus(corpus_file))
    assert len(answers) == n
    for name, (rewrite, lowered) in CORRUPTIONS.items():
        rows = [dict(row) for row in answers]
        rows[0]["answer"] = render_answer(*rewrite(parse_answer(rows[0]["answer"])))
        replay = tmp_path / f"{name}.answers.jsonl"
        write_jsonl(rows, replay)
        preds = tmp_path / f"{name}.preds.jsonl"
        assert run(
            "predict", "--corpus", corpus_file, "--method", "file",
            "--predictions-file", replay, "--output", preds,
        ) == 0
        out = tmp_path / f"{name}.rows.jsonl"
        assert run(
            "evaluate", "--corpus", corpus_file, "--predictions", preds,
            "--output", out,
        ) == 0
        values = _summary_values(tmp_path / f"{name}.rows.summary.jsonl")
        assert list(values) == SUMMARY_KEYS + CODE_KEYS, name
        assert values["code_claims"] == str(n), name
        for key, perfect in PERFECT_CLAIMS.items():
            if key in lowered:
                assert float(values[key]) != float(perfect), (name, key)
            else:
                assert values[key] == perfect, (name, key)
        type_errors = 1 if name == "type-error" else 0
        assert values["code_error_type_error"] == str(type_errors), name
        others = [v for k, v in values.items() if k.startswith("code_error_")]
        assert sum(map(int, others)) == type_errors, name
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert list(manifest["summary"]) == list(values)
