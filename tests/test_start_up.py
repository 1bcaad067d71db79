"""What a subcommand does before its work: the modules it imports and the
processes it starts. Each case runs ``passtune`` in a fresh interpreter, so
that the modules this test process has loaded do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import passtune
from passtune.cli import main
from passtune.minigen import generate_corpus
from passtune.util import write_jsonl

from test_llvm_backend import write_stub

SRC = str(Path(passtune.__file__).parents[1])

# Runs `passtune <argv...>` and writes to the file named first its exit code,
# the modules it loaded and whether a child process of it is left, running
# or unreaped.
CHILD_SCRIPT = """\
import json, os, sys
from passtune.cli import main
code = main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "loaded": sorted(sys.modules), "left": children_left}, fh)
"""


def run_fresh_all(tmp_path, *argv):
    """(exit code, loaded modules, whether a child is left) of one subcommand
    in a new process."""
    out = tmp_path / "loaded.json"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(out), *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        check=True,
        timeout=120,
    )
    result = json.loads(out.read_text())
    return result["code"], set(result["loaded"]), result["left"]


def run_fresh(tmp_path, *argv):
    """(exit code, loaded passtune modules) of one subcommand in a new process."""
    code, loaded, _ = run_fresh_all(tmp_path, *argv)
    return code, {m for m in loaded if m.startswith("passtune")}


@pytest.fixture
def rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    functions = generate_corpus(6, seed=5)
    write_jsonl(({"id": fn.id, "raw_text": fn.raw_text} for fn in functions), path)
    return path


@pytest.fixture
def corpus(tmp_path, rows):
    path = tmp_path / "corpus.jsonl"
    assert main(["ingest", str(rows), "--output", str(path)]) == 0
    return path


def test_importing_the_cli_loads_no_stage(tmp_path):
    # `--version` imports passtune.cli and runs no handler. Loaded: no
    # backend, autotuner, dataset, evaluator, predictor or minigen.
    code, loaded = run_fresh(tmp_path, "--version")
    assert code == 0
    assert loaded == {"passtune", "passtune.cli", "passtune.ircore", "passtune.util"}


def test_ingest_split_loads_no_backend(tmp_path, rows):
    code, loaded = run_fresh(
        tmp_path, "ingest", rows, "--output", tmp_path / "part.jsonl",
        "--split", "train=0.5,test=0.5",
    )
    assert code == 0
    assert (tmp_path / "part.train.jsonl").is_file()
    assert not {m for m in loaded if m.startswith("passtune.backend")}


def test_a_mini_subcommand_loads_no_llvm_backend(tmp_path, corpus):
    code, loaded = run_fresh(
        tmp_path, "autotune", "--corpus", corpus, "--output", tmp_path / "tuned.jsonl",
        "--budget-evals", 2, "--backend", "mini",
    )
    assert code == 0
    assert "passtune.backend.mini" in loaded
    assert not loaded & {"passtune.backend.llvm", "passtune.backend.optd"}


@pytest.mark.parametrize("subcommand", ["autotune", "single-pass-dataset"])
def test_mini_workers_fork_no_multiprocessing_and_leave_no_child(
    tmp_path, corpus, subcommand
):
    code, loaded, left = run_fresh_all(
        tmp_path, subcommand, "--corpus", corpus, "--output", tmp_path / "out.jsonl",
        "--seed", 1, "--workers", 2,
        *(["--budget-evals", 2] if subcommand == "autotune" else ["--per-pass", 1]),
    )
    manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
    assert code == 0 and manifest["workers_run_as"] == "forked processes"
    assert not {m for m in loaded if m.split(".")[0] == "multiprocessing"}
    assert "concurrent.futures.process" not in loaded
    assert not left


def test_retrieval_loads_no_backend_evaluator_or_generator(tmp_path, corpus):
    # predict --method retrieval only reads files and scores tokens; it is
    # the largest process of a mini-corpus chain, so what it loads counts.
    tuned = tmp_path / "tuned.jsonl"
    assert main([
        "autotune", "--corpus", str(corpus), "--output", str(tuned),
        "--budget-evals", "2",
    ]) == 0
    code, loaded = run_fresh(
        tmp_path, "predict", "--corpus", corpus, "--method", "retrieval",
        "--tune-results", tuned, "--train-corpus", corpus,
        "--output", tmp_path / "preds.jsonl",
    )
    assert code == 0
    assert not loaded & {
        "passtune.backend.mini",
        "passtune.backend.llvm",
        "passtune.backend.optd",
        "passtune.evaluator",
        "passtune.minigen",
    }


def test_an_llvm_subcommand_loads_no_mini_backend(tmp_path, private_cache, corpus):
    code, loaded = run_fresh(
        tmp_path, "autotune", "--corpus", corpus, "--output", tmp_path / "tuned.jsonl",
        "--budget-evals", 2, "--backend", "llvm", "--opt-path", write_stub(tmp_path),
    )
    assert code == 0
    assert "passtune.backend.llvm" in loaded
    assert not {m for m in loaded if m.startswith("passtune.backend.mini")}


def test_on_a_warm_cache_the_first_process_is_the_first_compile(
    tmp_path, private_cache, corpus
):
    # Both stubs log every run to one file. The stub opt is LLVM 10, so optd
    # is not built, llvm-config is never asked, and opt compiles.
    log = tmp_path / "runs.log"
    stub = write_stub(tmp_path, log=log)
    config = tmp_path / "llvm-config"
    config.write_text(f'#!/bin/sh\necho "llvm-config $*" >> {log}\necho 11.0.0\n')
    config.chmod(0o755)
    runs = []
    for _ in range(2):
        code, _ = run_fresh(
            tmp_path, "autotune", "--corpus", corpus, "--output", tmp_path / "tuned.jsonl",
            "--budget-evals", 2, "--backend", "llvm", "--opt-path", stub,
            "--opt-arg=-enable-new-pm=0",
        )
        assert code == 0
        runs.append(log.read_text().splitlines()[sum(map(len, runs)):])
    cold, warm = runs
    assert cold[:2] == ["--help-hidden", "--version"]
    assert warm and all(line.split()[:2] == ["-S", "-enable-new-pm=0"] for line in warm)
    assert len(warm) == len(cold) - 2
    manifest = json.loads((tmp_path / "tuned.jsonl.manifest.json").read_text())
    assert manifest["compile_path"]["fallback_reason"].endswith("opt is LLVM 10.0.0")
