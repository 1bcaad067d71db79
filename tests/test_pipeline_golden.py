"""Golden output of the quick-start pipeline.

Every data file the subcommand chain writes, from ``ingest`` to ``report``,
is pinned by one digest, so a change that moves any byte of them shows
here. Manifests are left out: they hold timestamps. The chain runs at one
worker and at two (forked processes on mini), whatever the machine's
default, and both must give the same bytes.
"""

import hashlib
import json

import pytest

from passtune.cli import main
from passtune.minigen import generate_corpus

GOLDEN_SHA256 = "b75cc813ed11a1c4d8e4712e72a93c5e278a97f20927f530e31180ad93a85e2d"


def _decorate(raw_text, n):
    """``raw_text`` with everything ``normalize`` removes put back in:
    indentation, tabs, comments (one holding a quote), debug attachments,
    an attribute reference and group, and metadata definitions."""
    out = []
    for i, line in enumerate(raw_text.splitlines()):
        if line.startswith("define"):
            out.append(f"; Function Attrs: noinline\n{line[:-1]}#0 {{")
        elif line == "}":
            out.append(line)
        elif line.endswith(":"):
            out.append(f"{line}\t\t; preds = %entry")
        else:
            indent = "\t" if i % 2 else "  "
            tail = f", !dbg !{i}" if i % 3 == 0 else ""
            note = '   ; "quoted; note' if i % 5 == 0 else ""
            out.append(f"{indent}{line.replace(' ', '  ', 1)}{tail}{note}")
    out.append("")
    out.append('attributes #0 = { "a;b"="c  d" }')
    out.append(f'!{n} = !{{!"x ; y"}}')
    out.append(f"!{n + 1} = !{{i32 7, !{n}}}")
    return "\n".join(out) + "\n"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_data_files_match_the_golden_digest(tmp_path, workers):
    rows = tmp_path / "rows.jsonl"
    with open(rows, "w", encoding="utf-8") as fh:
        for n, fn in enumerate(generate_corpus(30, seed=7)):
            row = {"id": fn.id, "raw_text": _decorate(fn.raw_text, n)}
            fh.write(json.dumps(row) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    train, test = out / "corpus.train.jsonl", out / "corpus.test.jsonl"
    tuned = out / "tuned.jsonl"
    preds = out / "preds.jsonl"
    steps = [
        ("ingest", rows, "--output", out / "corpus.jsonl",
         "--split", "train=0.8,test=0.2", "--seed", 2),
        ("autotune", "--corpus", train, "--output", tuned,
         "--budget-evals", 20, "--max-len", 3, "--seed", 2, "--workers", workers),
        ("dataset", "--corpus", train, "--tune-results", tuned,
         "--output", out / "records.jsonl", "--workers", workers),
        ("single-pass-dataset", "--corpus", train, "--output", out / "single.jsonl",
         "--per-pass", 1, "--seed", 2, "--workers", workers),
        ("predict", "--corpus", test, "--method", "retrieval",
         "--tune-results", tuned, "--train-corpus", train, "--output", preds),
        ("evaluate", "--corpus", test, "--predictions", preds,
         "--output", out / "eval.jsonl", "--oz-backup", "--workers", workers),
        ("report", "--rows", out / "eval.jsonl", "--predictions", preds,
         "--tune-results", tuned, "--output-dir", out / "report"),
    ]
    for step in steps:
        assert run(*step) == 0, step[0]
    manifest = json.loads((out / "tuned.jsonl.manifest.json").read_text())
    assert manifest["workers_run_as"] == ("inline", "forked processes")[workers - 1]
    files = sorted(
        p for p in out.rglob("*")
        if p.is_file() and not p.name.endswith("manifest.json")
    )
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    assert len(files) == 13
    assert digest.hexdigest() == GOLDEN_SHA256
