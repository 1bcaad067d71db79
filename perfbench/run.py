"""Run one benchmark workload of the passtune pipeline and print its metrics.

    python3 perfbench/run.py --workload mini-tune --seed 1 --seconds 20 --trace 0

Set-up (`ingest --split` of the workload's frozen corpus) runs once before
the rounds and once more before each subcommand of every round, so that the
machine's speed drifts over its samples as over the rounds; it is timed
alone. Whole rounds of the subcommand chain (autotune, dataset,
single-pass-dataset, predict, evaluate, report) run, each subcommand in its
own process, until ``--seconds`` have passed since set-up began; every run
makes at least one round. The outputs of the last round are checked against
computations made apart from the program.

With ``--trace 1`` one more round runs inside this process with every
layer wrapped (see trace.py); the run then reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0 when
every check passed, 1 when a check failed (the JSON is still printed) and
2 when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import checks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    OK_EXITS,
    SRC,
    BenchError,
    WORKLOADS,
    Files,
    passtune_cmd,
    passtune_env,
    setup_argv,
    stage_argvs,
)

OUT = HERE / "_runs"
# The machine's speed drifts by a third over minutes, Python and `opt` alike.
# A fixed pure-Python loop, timed before every child process, gauges it, and
# the timings are given at the speed at which the loop takes REF_NOMINAL_S.
REF_ITERS = 300_000
REF_NOMINAL_S = 0.025


@dataclass
class Stage:
    name: str
    wall_s: float
    maxrss_kb: int


@dataclass
class Round:
    stages: list[Stage] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    def stage(self, name: str) -> Stage:
        return next(s for s in self.stages if s.name == name)


def run_child(name: str, argv: list[str], log: Path) -> Stage:
    """Run one subcommand; its rusage covers every process it waited for."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            passtune_cmd(*argv), env=passtune_env(), stdout=fh, stderr=fh
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in OK_EXITS:
        raise BenchError(f"{name} exited {code}; see {log}")
    return Stage(name, wall, usage.ru_maxrss)


def reference_s() -> float:
    """Seconds of the reference loop now."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_ITERS):
        s += i * i % 7
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(
    setups: list[Stage], rounds: list[Round], files: Files, scale: float
) -> dict:
    """The end-to-end metrics; ``scale`` converts wall seconds to nominal speed."""
    tuned = checks.read_jsonl(files.tuned)
    rows = checks.read_jsonl(files.rows)
    evals = sum(r["evaluations_used"] for r in tuned)
    peak_kb = max(s.maxrss_kb for s in setups + [s for r in rounds for s in r.stages])
    return {
        "setup_s": metric(statistics.median(s.wall_s for s in setups) * scale, "s"),
        "pipeline_s": metric(statistics.median(r.wall_s for r in rounds) * scale, "s"),
        "tune_evals_per_s": metric(
            statistics.median(evals / r.stage("autotune").wall_s for r in rounds) / scale,
            "evals/s",
        ),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "tuned_size_ratio": metric(
            sum(r["best_count"] for r in tuned) / sum(r["baseline_count"] for r in tuned),
            "ratio",
        ),
        "eval_size_ratio": metric(
            sum(r["predicted_count"] for r in rows) / sum(r["oz_count"] for r in rows),
            "ratio",
        ),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "passtune" / "cli.py").is_file():
        print(f"error: no passtune sources under {SRC}", file=sys.stderr)
        return 2
    if not wl.data.is_file():
        print(f"error: missing workload input {wl.data}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))  # the program, for the checks and the traced run
    tag = f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = Files(work)
    log = work / "passtune.log"
    try:
        refs: list[float] = []

        def child(name: str, argv: list[str]) -> Stage:
            refs.append(reference_s())
            return run_child(name, argv, log)

        start = time.perf_counter()
        setups = [child("ingest", setup_argv(wl, files))]
        repeat_files = Files(work / "setup")  # so no repeat rewrites a round's input
        repeat_files.work.mkdir()
        rounds: list[Round] = []
        attempted = failed = 0
        while not rounds or time.perf_counter() - start < args.seconds:
            rnd = Round()
            for name, stage_argv in stage_argvs(wl, args.seed, files):
                setups.append(child("ingest", setup_argv(wl, repeat_files)))
                rnd.stages.append(child(name, stage_argv))
            rounds.append(rnd)
            ops = checks.operations(wl, files)
            attempted += ops.attempted
            failed += len(ops.failed)
        scale = REF_NOMINAL_S / statistics.mean(refs)
        metrics = end_to_end(setups, rounds, files, scale)
        wall = end_to_end(setups, rounds, files, 1.0)

        if args.trace:
            from perfbench import trace

            traced_files = Files(work / "traced")
            traced_files.work.mkdir()
            metrics, trace_path = trace.traced_round(
                wl, args.seed, traced_files, OUT / f"trace-{tag}.json",
                untraced_pipeline_s=wall["pipeline_s"]["value"],
            )
            ops = checks.operations(wl, traced_files)
            attempted += ops.attempted
            failed += len(ops.failed)
            print(f"trace: {trace_path}")

        problems = checks.check_outputs(wl, files, args.seed)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(f"workload: {wl.name} seed {args.seed}, {len(rounds)} round(s)")
    print(
        f"machine speed: reference loop {statistics.mean(refs) * 1000:.2f} ms "
        f"(mean of {len(refs)}), timings scaled by {scale:.4f} to "
        f"{REF_NOMINAL_S * 1000:.0f} ms"
    )
    for name in ("setup_s", "pipeline_s", "tune_evals_per_s"):
        print(f"wall clock: {name} = {wall[name]['value']:.6g} {wall[name]['unit']}")
    print(f"input sha256: {sha256(wl.data)}  {wl.data.relative_to(HERE.parent)}")
    print(f"failed operations: {', '.join(ops.failed) or 'none'}")
    for line in problems:
        print(f"check failed: {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if not problems:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
