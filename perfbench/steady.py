"""Steadiness check: two sets of runs of one commit, compared with the bounds.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times, with seeds 1 to
10, for its ``run_seconds``; both sets use the same seeds, since the check
compares one commit with itself. For every end-to-end metric and workload
it prints the spread of each set (distance between the first and third
quartile over the median, across the ten seeds) and how far the second
set's median moved against the first, in the metric's worse direction. A
spread or a shift over the bound, a size ratio that differs between the two
runs of one seed, a different share of failed operations or a failed output
check fails the check. The raw results go to perfbench/_runs/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
EXACT = ("tuned_size_ratio", "eval_size_ratio")  # repeat exactly for a given seed


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [
        *bench["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    for s in range(2):
        for seed in range(1, RUNS + 1):
            for w in workloads:  # interleaved, so slow spells hit every workload
                start = time.perf_counter()
                results[w][s].append(run_once(bench, w, seed))
                print(f"set {s + 1} {w} seed {seed}: {time.perf_counter() - start:.1f} s",
                      file=sys.stderr)

    ok = True
    report = {}
    for w in workloads:
        rows = {}
        shares = {r["failed"] / r["attempted"] for set_ in results[w] for r in set_}
        if len(shares) != 1 or not all(r["correct"] for st in results[w] for r in st):
            ok = False
            print(f"{w}: failed shares {sorted(shares)} or a check failed")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in st] for st in results[w]]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            good = shift <= bound and max(spreads) <= bound
            if name in EXACT:
                good &= sets[0] == sets[1]
            ok &= good
            rows[name] = {
                "bound": bound, "medians": medians, "spreads": spreads,
                "worse_shift": shift, "ok": good,
            }
            print(
                f"{w:12s} {name:17s} median {medians[0]:.5g} -> {medians[1]:.5g} "
                f"shift {shift:+.4f}  spread {spreads[0]:.4f} / {spreads[1]:.4f}  "
                f"bound {bound}  {'ok' if good else 'FAIL'}"
            )
        report[w] = rows
    out = HERE / "_runs" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"results": results, "report": report}, indent=1) + "\n")
    print(f"{'steady' if ok else 'NOT steady'}; raw results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
