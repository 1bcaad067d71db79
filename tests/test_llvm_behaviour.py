"""LLVM-tuned pass lists keep the program's behaviour.

Mini functions are autotuned on the real optimizer (legacy pass manager),
then the unoptimized and the tuned code both run under ``lli`` on seeded
arguments. Each must return what the mini interpreter returns for the
unoptimized function. Skipped when ``opt`` or ``lli`` is missing.
"""

import random
import shutil
import subprocess

import pytest

from passtune.backend import BackendUnavailableError
from passtune.backend.llvm import resolve_opt_path
from passtune.backend.mini_interp import run_function
from passtune.backend.mini_ir import parse_function
from passtune.cli import main
from passtune.dataset import parse_answer
from passtune.ircore import read_corpus
from passtune.util import read_jsonl, stable_seed

VECTORS = 8
LLVM = ["--backend", "llvm", "--opt-arg=-enable-new-pm=0"]


def definition(text):
    """The lines of the one function definition in normalized IR text, and
    the declarations it needs."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("define "))
    end = lines.index("}", start)
    declares = [line for line in lines if line.startswith("declare ")]
    return lines[start : end + 1], declares


def run_under_lli(lli, functions):
    """Return values of each (function text, mini function, argument vectors)
    under lli.

    One module holds every function and a ``main`` that prints each call's
    i32 result on its own line.
    """
    body, declares, calls = [], {"declare i32 @printf(i8*, ...)"}, []
    for text, fn, vectors in functions:
        assert fn.ret_ty == "i32", fn.name
        lines, extra = definition(text)
        body += lines
        declares.update(extra)
        for args in vectors:
            k = len(calls)
            arglist = ", ".join(f"{ty} {a}" for (ty, _), a in zip(fn.params, args))
            calls += [
                f"%r{k} = call i32 @{fn.name}({arglist})",
                f"%p{k} = call i32 (i8*, ...) @printf(i8* getelementptr inbounds "
                f"([4 x i8], [4 x i8]* @fmt, i64 0, i64 0), i32 %r{k})",
            ]
    module = "\n".join(
        [
            '@fmt = private constant [4 x i8] c"%d\\0A\\00"',
            *sorted(declares),
            *body,
            "define i32 @main() {",
            *calls,
            "ret i32 0",
            "}",
        ]
    )
    proc = subprocess.run(
        [lli, "-"], input=module, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return [int(line) for line in proc.stdout.split()]


def test_llvm_tuned_lists_keep_behaviour(tmp_path):
    try:
        resolve_opt_path()
    except BackendUnavailableError:
        pytest.skip("no optimizer executable on PATH or in PASSTUNE_OPT")
    lli = shutil.which("lli")
    if lli is None:
        pytest.skip("no lli on PATH")
    corpus_file = tmp_path / "corpus.jsonl"
    tuned = tmp_path / "tuned.jsonl"
    records = tmp_path / "records.jsonl"
    assert main(["gen-mini-corpus", "--n", "6", "--seed", "4",
                 "--output", str(corpus_file)]) == 0
    assert main(["autotune", "--corpus", str(corpus_file), "--output", str(tuned),
                 "--budget-evals", "12", "--max-len", "3", "--seed", "1", *LLVM]) == 0
    assert main(["dataset", "--corpus", str(corpus_file), "--tune-results",
                 str(tuned), "--output", str(records), *LLVM]) == 0

    corpus = {fn.id: fn for fn in read_corpus(corpus_file)}
    unoptimized, optimized, expected = [], [], []
    for _, record in read_jsonl(records):
        fn = corpus[record["function_id"]]
        parsed = parse_function(fn.normalized_text)
        rng = random.Random(stable_seed(6, fn.id))
        vectors = [
            [rng.randint(-50, 50) for _ in parsed.params] for _ in range(VECTORS)
        ]
        unoptimized.append((fn.normalized_text, parsed, vectors))
        optimized.append((parse_answer(record["answer"])[3], parsed, vectors))
        expected += [run_function(parsed, args) for args in vectors]
    assert len(unoptimized) == len(corpus)
    # Not vacuous: the optimizer changed some function's code.
    assert any(a[0] != b[0] for a, b in zip(unoptimized, optimized))
    assert run_under_lli(lli, unoptimized) == expected
    assert run_under_lli(lli, optimized) == expected
