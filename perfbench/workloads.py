"""The benchmark's workloads and the `passtune` command chain they drive.

Each workload is a frozen corpus under ``perfbench/data`` plus the flags
of every stage. The corpus and its train/test split never change, so every
seed measures the same functions; the run seed seeds the tuner and the
single-pass sampler, which choose the pass lists that are compiled.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SPLIT = "train=0.8,test=0.2"
SPLIT_SEED = 0
OK_EXITS = (0, 4)  # 4: the subcommand finished with per-item failures


class BenchError(RuntimeError):
    """The run cannot be made; no result is printed."""

LLVM_ARGS = ("--backend", "llvm", "--opt-arg=-enable-new-pm=0")


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # functions in the frozen corpus
    gen_seed: int  # gen-mini-corpus seed the corpus was made with
    backend: tuple[str, ...]  # flags for every compiling subcommand
    tune: tuple[str, ...]  # autotune flags beyond corpus, output and seed

    @property
    def data(self) -> Path:
        return HERE / "data" / f"{self.name}.jsonl"


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Deep search on few functions: most (state, pass) applications
        # repeat, so the in-process compile path dominates.
        Workload(
            "mini-tune", 150, 1, (),
            ("--budget-evals", "200", "--max-len", "3"),
        ),
        # Every compilation is an `opt` process; the single-pass stage
        # covers the whole LLVM-10 vocabulary, five flags of which this
        # `opt` rejects.
        Workload(
            "llvm-tune", 30, 2, LLVM_ARGS,
            ("--budget-evals", "20", "--workers", "2"),
        ),
        # Breadth: many functions, shallow search, retrieval over a large
        # training split, and the largest ingest.
        Workload(
            "mini-corpus", 1000, 3, (),
            ("--budget-evals", "10", "--max-len", "3", "--no-broadcast"),
        ),
    )
}


def passtune_env() -> dict[str, str]:
    """Environment for a `passtune` child: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def passtune_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "passtune.cli", *args]


class Files:
    """The files of one pipeline round inside a work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.corpus = work / "corpus.jsonl"  # ingest writes the two splits beside it
        self.train = work / "corpus.train.jsonl"
        self.test = work / "corpus.test.jsonl"
        self.tuned = work / "tuned.jsonl"
        self.records = work / "records.jsonl"
        self.single_pass = work / "single-pass.jsonl"
        self.preds = work / "preds.jsonl"
        self.rows = work / "rows.jsonl"
        self.summary = work / "rows.summary.jsonl"
        self.report = work / "report"


def setup_argv(wl: Workload, files: Files) -> list[str]:
    """`ingest --split` of the frozen corpus: the set-up of every round."""
    return [
        "ingest", str(wl.data), "--output", str(files.corpus),
        "--split", SPLIT, "--seed", str(SPLIT_SEED),
    ]


def stage_argvs(wl: Workload, seed: int, files: Files) -> list[tuple[str, list[str]]]:
    """The subcommands after set-up, in order, as in the README quick start."""
    s = str(seed)
    f = files
    return [
        ("autotune", [
            "autotune", "--corpus", str(f.train), "--output", str(f.tuned),
            "--seed", s, *wl.tune, *wl.backend,
        ]),
        ("dataset", [
            "dataset", "--corpus", str(f.train), "--tune-results", str(f.tuned),
            "--output", str(f.records), "--seed", s, *wl.backend,
        ]),
        ("single-pass-dataset", [
            "single-pass-dataset", "--corpus", str(f.train),
            "--output", str(f.single_pass), "--per-pass", "1", "--seed", s,
            *wl.backend,
        ]),
        ("predict", [
            "predict", "--corpus", str(f.test), "--method", "retrieval",
            "--tune-results", str(f.tuned), "--train-corpus", str(f.train),
            "--output", str(f.preds), "--seed", s, *wl.backend,
        ]),
        ("evaluate", [
            "evaluate", "--corpus", str(f.test), "--predictions", str(f.preds),
            "--output", str(f.rows), "--oz-backup", "--seed", s, *wl.backend,
        ]),
        ("report", [
            "report", "--rows", str(f.rows), "--predictions", str(f.preds),
            "--tune-results", str(f.tuned), "--output-dir", str(f.report),
        ]),
    ]
