"""Output checks and operation accounting for one pipeline round.

The checks use computations made apart from the program: their own
instruction counter, their own reading of the answer template's counts,
and LLVM's `lli` running the unoptimized and the tuned code side by side.
Only `parse_answer` is the program's own, because its round trip is the
property under test.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from perfbench.workloads import Files, Workload

VECTORS_PER_FUNCTION = 8
ARG_RANGE = (-100, 100)
LLI_TIMEOUT_S = 150.0

_LABEL = re.compile(r'^(?:"[^"]*"|[-\w.$]+):$')
_DEFINE = re.compile(r"^define (?:[\w ]+ )?(i\d+) @([-\w.$]+)\((.*)\)(.*)\{$")
_ATTR_GROUP = re.compile(r"\s#\d+")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# operations


@dataclass
class Operations:
    attempted: int
    failed: list[str]


def _single_pass_targets(wl: Workload) -> tuple[str, ...]:
    if "llvm" in wl.backend:
        from passtune.backend.passlist import llvm10_vocabulary

        return llvm10_vocabulary().passes
    from passtune.backend.mini import mini_vocabulary

    return mini_vocabulary().passes


def operations(wl: Workload, files: Files) -> Operations:
    """One operation is one function (or target) through one stage.

    Stages: each training function tuned, each tuned function's record
    built, each single-pass target given its one record, each test
    function's prediction scored.
    """
    train = [r["id"] for r in read_jsonl(files.train)]
    test = [r["id"] for r in read_jsonl(files.test)]
    tuned = {r["function_id"] for r in read_jsonl(files.tuned)}
    records = {r["function_id"] for r in read_jsonl(files.records)}
    per_target = Counter(r["target_pass"] for r in read_jsonl(files.single_pass))
    rows = {r["function_id"]: r for r in read_jsonl(files.rows)}
    targets = _single_pass_targets(wl)

    failed = [f"autotune {i}" for i in train if i not in tuned]
    failed += [f"dataset {i}" for i in train if i in tuned and i not in records]
    failed += [f"single-pass-dataset {t}" for t in targets if per_target[t] < 1]
    failed += [
        f"evaluate {i}"
        for i in test
        if i not in rows or rows[i]["prediction_failed"] or rows[i]["prediction_missing"]
    ]
    return Operations(len(train) + len(tuned) + len(targets) + len(test), failed)


# ---------------------------------------------------------------------------
# counts


def count_instructions(text: str) -> int:
    """Instructions in the function bodies of IR text.

    Reads normalized text (no comments). Written apart from
    `passtune.ircore`: labels, `define` headers and
    closing braces are not instructions, and the bracketed case list of a
    `switch` (or `indirectbr`) belongs to the instruction that opens it.
    """
    count = 0
    inside = in_list = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if not inside:
            inside = line.startswith("define ") and line.endswith("{")
        elif in_list:
            in_list = not line.endswith("]")
        elif line == "}":
            inside = False
        elif not _LABEL.match(line):
            count += 1
            in_list = line.endswith("[")
    return count


_HEADER = re.compile(r"^Run passes ((?:\S+ )*)to reduce instruction count from (\d+) to (\d+):$")


def check_counts(records: list[dict], tuned: dict[str, dict]) -> list[str]:
    """Each record's counts against the independent counter and the tuner."""
    problems = []
    for rec in records:
        fid = rec["function_id"]
        header, _, code = rec["answer"].partition("\n\n")
        m = _HEADER.match(header)
        if m is None:
            problems.append(f"{fid}: answer header {header!r} does not match the template")
            continue
        stated_in, stated_out = int(m.group(2)), int(m.group(3))
        own_in, own_out = count_instructions(rec["prompt"]), count_instructions(code)
        if not own_in == stated_in == rec["input_count"]:
            problems.append(
                f"{fid}: input count {rec['input_count']} (answer {stated_in}), counted {own_in}"
            )
        if not own_out == stated_out == rec["output_count"] == tuned[fid]["best_count"]:
            problems.append(
                f"{fid}: output count {rec['output_count']} (answer {stated_out}, "
                f"best_count {tuned[fid]['best_count']}), counted {own_out}"
            )
    return problems


# ---------------------------------------------------------------------------
# properties of the method


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_properties(
    records: list[dict], tuned: dict[str, dict], rows: list[dict], summary: dict[str, str]
) -> list[str]:
    from passtune.dataset import AnswerParseError, parse_answer

    problems = []
    for fid, res in tuned.items():
        if res["best_count"] > res["baseline_count"]:
            problems.append(
                f"{fid}: best_count {res['best_count']} > baseline_count {res['baseline_count']}"
            )
    for rec in records:
        fid = rec["function_id"]
        try:
            items = parse_answer(rec["answer"])[0]
        except AnswerParseError as err:
            problems.append(f"{fid}: parse_answer rejects the answer: {err}")
            continue
        if list(items) != tuned[fid]["best_pass_list"].split():
            problems.append(
                f"{fid}: parse_answer gives {' '.join(items)!r}, "
                f"tuned {tuned[fid]['best_pass_list']!r}"
            )
    for row in rows:
        if row["predicted_count"] > row["oz_count"]:
            problems.append(
                f"{row['function_id']}: predicted_count {row['predicted_count']} > "
                f"oz_count {row['oz_count']} despite --oz-backup"
            )
    sum_oz = sum(r["oz_count"] for r in rows)
    sum_pred = sum(r["predicted_count"] for r in rows)
    expected = (sum_oz - sum_pred) / sum_pred * 100
    try:
        stated = float(summary["overall_improvement"])
    except (KeyError, ValueError):
        return problems + ["summary has no numeric overall_improvement"]
    if abs(stated - expected) > 1e-9 * max(1.0, abs(expected)):
        problems.append(f"overall_improvement {stated} != {expected} recomputed from the rows")
    return problems


# ---------------------------------------------------------------------------
# behaviour under lli


@dataclass(frozen=True)
class IrFunctionText:
    ret: str
    params: tuple[str, ...]  # parameter types
    body: str  # the whole definition, renamed
    declares: tuple[str, ...]


def extract_function(text: str, new_name: str) -> IrFunctionText:
    """The single definition in ``text``, renamed, with attribute refs dropped."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("define "))
    end = next(i for i in range(start, len(lines)) if lines[i].strip() == "}")
    header = _ATTR_GROUP.sub("", lines[start])
    m = _DEFINE.match(header)
    if m is None:
        raise ValueError(f"unsupported definition {lines[start]!r}")
    ret, name, params = m.group(1), m.group(2), m.group(3)
    types = tuple(p.split()[0] for p in params.split(",") if p.strip())
    if any(not re.fullmatch(r"i\d+", t) for t in types):
        raise ValueError(f"unsupported parameter types in {lines[start]!r}")
    header = header.replace(f"@{name}(", f"@{new_name}(", 1)
    body = "\n".join([header, *lines[start + 1 : end + 1]])
    declares = tuple(line for line in lines if line.startswith("declare "))
    return IrFunctionText(ret, types, body, declares)


def argument_vectors(seed: int, fid: str, n_params: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"{seed}:{fid}")
    return [
        tuple(rng.randint(*ARG_RANGE) for _ in range(n_params))
        for _ in range(VECTORS_PER_FUNCTION)
    ]


def _call(fn: IrFunctionText, name: str, args: tuple[int, ...], reg: str) -> list[str]:
    arglist = ", ".join(f"{t} {a}" for t, a in zip(fn.params, args))
    return [
        f"%{reg}.r = call {fn.ret} @{name}({arglist})",
        f"%{reg} = sext {fn.ret} %{reg}.r to i64",
    ]


def behaviour_module(
    pairs: list[tuple[IrFunctionText, IrFunctionText, list[tuple[int, ...]]]]
) -> str:
    """A module whose main prints `index vector original tuned` per call pair."""
    fmt = b"%d %d %lld %lld\n\0"
    fmt_ir = "".join(chr(c) if 32 <= c < 127 and c != 92 else f"\\{c:02X}" for c in fmt)
    n = len(fmt)
    out = [f'@fmt = private constant [{n} x i8] c"{fmt_ir}"', "declare i32 @printf(i8*, ...)"]
    declares = {d for orig, tuned, _ in pairs for d in orig.declares + tuned.declares}
    out.extend(sorted(declares))
    for orig, tuned, _ in pairs:
        out.extend([orig.body, tuned.body])
    out.append("define i32 @main() {")
    out.append("entry:")
    out.append(f"%f = getelementptr inbounds [{n} x i8], [{n} x i8]* @fmt, i64 0, i64 0")
    for i, (orig, tuned, vectors) in enumerate(pairs):
        for j, args in enumerate(vectors):
            a, b = f"a{i}_{j}", f"b{i}_{j}"
            out += _call(orig, f"orig{i}", args, a)
            out += _call(tuned, f"tuned{i}", args, b)
            out.append(
                f"call i32 (i8*, ...) @printf(i8* %f, i32 {i}, i32 {j}, i64 %{a}, i64 %{b})"
            )
    out += ["ret i32 0", "}"]
    return "\n".join(out) + "\n"


def check_behaviour(records: list[dict], seed: int) -> list[str]:
    """Tuned code and unoptimized function agree under `lli` on seeded inputs."""
    lli = shutil.which("lli")
    if lli is None:
        return ["lli not found; the behaviour check cannot run"]
    ids, pairs, problems = [], [], []
    for rec in records:
        k = len(pairs)
        try:
            orig = extract_function(rec["prompt"], f"orig{k}")
            tuned = extract_function(rec["answer"].partition("\n\n")[2], f"tuned{k}")
        except (StopIteration, ValueError) as err:
            problems.append(f"{rec['function_id']}: cannot run under lli: {err}")
            continue
        if orig.params != tuned.params or orig.ret != tuned.ret:
            problems.append(f"{rec['function_id']}: tuned signature differs")
            continue
        ids.append(rec["function_id"])
        pairs.append((orig, tuned, argument_vectors(seed, rec["function_id"], len(orig.params))))
    if not pairs:
        return problems
    proc = subprocess.run(
        [lli, "-"],
        input=behaviour_module(pairs),
        capture_output=True,
        text=True,
        timeout=LLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return problems + [f"lli exited {proc.returncode}: {proc.stderr.strip()[:500]}"]
    expected = sum(len(v) for _, _, v in pairs)
    lines = proc.stdout.splitlines()
    if len(lines) != expected:
        problems.append(f"lli printed {len(lines)} results, expected {expected}")
    for line in lines:
        k, j, want, got = line.split()
        if want != got:
            problems.append(f"{ids[int(k)]}: vector {j}: unoptimized returns {want}, tuned {got}")
    return problems


# ---------------------------------------------------------------------------


def check_outputs(wl: Workload, files: Files, seed: int) -> list[str]:
    """Every check on one round's outputs; an empty list means all passed."""
    records = read_jsonl(files.records)
    tuned = {r["function_id"]: r for r in read_jsonl(files.tuned)}
    rows = read_jsonl(files.rows)
    summary = read_summary(files.summary)
    return (
        check_counts(records, tuned)
        + check_properties(records, tuned, rows, summary)
        + check_behaviour(records, seed)
    )
