"""Make the frozen workload inputs anew.

Each workload reads one JSON Lines file of ``id``/``source_dataset``/
``raw_text`` rows, made once by ``passtune gen-mini-corpus`` and then
kept as data, so a later change to the generator cannot change a
workload. Run from the repository root:

    python3 perfbench/make_inputs.py

The files it writes must match the sha256 sums in perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import WORKLOADS, passtune_cmd, passtune_env  # noqa: E402


def main() -> int:
    for wl in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            out = Path(tmp) / "corpus.jsonl"
            subprocess.run(
                passtune_cmd(
                    "gen-mini-corpus", "--n", str(wl.size),
                    "--seed", str(wl.gen_seed), "--output", str(out),
                ),
                check=True,
                env=passtune_env(),
                stdout=subprocess.DEVNULL,
            )
            rows = [json.loads(line) for line in out.read_text().splitlines()]
        with open(wl.data, "w", encoding="utf-8") as fh:
            for row in rows:
                keep = {k: row[k] for k in ("id", "source_dataset", "raw_text")}
                fh.write(json.dumps(keep) + "\n")
        digest = hashlib.sha256(wl.data.read_bytes()).hexdigest()
        print(f"{digest}  {wl.data.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
