"""Training-data construction: pass-ordering and single-pass records.

Two corpora are produced from tuned functions:

- pass-ordering records pair an unoptimized function (prompt) with an
  answer holding the best pass list, the input/output instruction
  counts, and the optimized code;
- single-pass records pair an IR plus the name of one pass (prompt)
  with the IR that pass produces (answer), optionally pre-scrambling
  the input with a random pass prefix.

Both use bit-exact templates so answers round-trip through parsing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from passtune.backend import Backend, compile_items
from passtune.backend.passlist import sample_items
from passtune.ircore import DEFAULT_TOKEN_LIMIT, IrFunction, estimate_tokens
from passtune.ircore import split  # noqa: F401  (perfbench's tracer times it here)
from passtune.util import map_in_order, stable_seed


@dataclass(frozen=True)
class PassOrderingRecord:
    """One (prompt, answer) pair for pass-list prediction training."""

    function_id: str
    prompt: str
    answer: str
    pass_list: str
    input_count: int
    output_count: int
    truncated: bool


@dataclass(frozen=True)
class SinglePassRecord:
    """One (prompt, answer) pair for single-pass translation training."""

    function_id: str
    target_pass: str
    prefix_passes: str
    prompt: str
    answer: str
    truncated: bool


class AnswerParseError(ValueError):
    """Raised when text does not match the answer template."""


def render_answer(
    items: Sequence[str], input_count: int, output_count: int, optimized_ir: str
) -> str:
    """Answer template: header line, blank line, optimized code.

    The header is word-joined so an empty pass list cannot produce a
    double space.
    """
    words = [
        "Run",
        "passes",
        *items,
        "to",
        "reduce",
        "instruction",
        "count",
        "from",
        str(input_count),
        "to",
        f"{output_count}:",
    ]
    return " ".join(words) + "\n\n" + optimized_ir


_ANSWER_HEADER = re.compile(
    r"^Run passes\s*(.*?)\s*to reduce instruction count from (\d+) to (\d+):$"
)


def parse_answer(text: str) -> tuple[tuple[str, ...], int, int, str]:
    """Inverse of :func:`render_answer`.

    Returns (pass items, input count, output count, optimized code).
    Raises AnswerParseError if the header or the blank separator line is
    missing.
    """
    lines = text.split("\n")
    m = _ANSWER_HEADER.match(lines[0])
    if not m:
        raise AnswerParseError(f"answer header does not match template: {lines[0]!r}")
    if len(lines) < 2 or lines[1] != "":
        raise AnswerParseError("expected a blank line after the answer header")
    items = tuple(m.group(1).split())
    return items, int(m.group(2)), int(m.group(3)), "\n".join(lines[2:])


def render_single_pass_prompt(target_pass: str, ir_text: str) -> str:
    return f"Optimize the following LLVM-IR using {target_pass}:\n\n{ir_text}"


def _is_truncated(prompt: str, answer: str, token_limit: int) -> bool:
    return estimate_tokens(prompt) + estimate_tokens(answer) > token_limit


def _check_token_limit(token_limit: int) -> None:
    if token_limit < 0:
        raise ValueError(f"token_limit must be >= 0, got {token_limit}")


def build_pass_dataset(
    tune_results: Iterable,
    corpus: Sequence[IrFunction],
    backend: Backend,
    token_limit: int = DEFAULT_TOKEN_LIMIT,
    workers: int = 1,
) -> tuple[list[PassOrderingRecord], list[str]]:
    """Render one record per tune result; return the records and the failures.

    The best pass list is recompiled to obtain the optimized code for
    the answer; a failure (a timeout included) becomes the message
    ``"<function id>: <diagnostic>"`` instead of a record.
    Records whose prompt+answer exceed the token limit are flagged
    ``truncated``, never dropped. ``workers`` (at least 1) lists are
    compiled at once; records and failures keep the order of
    ``tune_results`` whatever it is.
    """
    _check_token_limit(token_limit)
    by_id = {fn.id: fn for fn in corpus}
    tune_results = list(tune_results)
    for result in tune_results:
        if result.function_id not in by_id:
            raise ValueError(f"tune result for unknown function {result.function_id!r}")

    def render(result) -> PassOrderingRecord | str:
        fn = by_id[result.function_id]
        items = tuple(result.best_pass_list.split())
        outcome = compile_items(backend, fn.ir, items)
        if not outcome.ok:
            return f"{fn.id}: {outcome.diagnostic.message}"
        prompt = fn.normalized_text
        answer = render_answer(
            items, fn.instruction_count, outcome.instruction_count, outcome.output.text
        )
        return PassOrderingRecord(
            function_id=fn.id,
            prompt=prompt,
            answer=answer,
            pass_list=result.best_pass_list,
            input_count=fn.instruction_count,
            output_count=outcome.instruction_count,
            truncated=_is_truncated(prompt, answer, token_limit),
        )

    rendered = map_in_order(render, tune_results, workers)
    records = [r for r in rendered if isinstance(r, PassOrderingRecord)]
    return records, [r for r in rendered if isinstance(r, str)]


def _single_pass_records(
    backend: Backend,
    corpus: Sequence[IrFunction],
    target: str,
    per_pass: int,
    max_prefix_len: int,
    seed: int,
    token_limit: int,
) -> list[SinglePassRecord]:
    """One target pass's records, drawn from its own seeded generator."""
    rng = random.Random(stable_seed(seed, target))
    records: list[SinglePassRecord] = []
    seen_prompts: set[str] = set()
    for _attempt in range(per_pass * 50):
        if len(seen_prompts) == per_pass:
            break
        fn = rng.choice(corpus)
        prefix = sample_items(rng, backend.vocabulary, rng.randint(0, max_prefix_len))
        pre = compile_items(backend, fn.ir, prefix)
        if not pre.ok:
            continue
        prompt_ir = pre.output.text
        prompt = render_single_pass_prompt(target, prompt_ir)
        if prompt in seen_prompts:
            continue
        out = compile_items(backend, pre.output, (target,))
        if not out.ok:
            continue
        seen_prompts.add(prompt)
        records.append(
            SinglePassRecord(
                function_id=fn.id,
                target_pass=target,
                prefix_passes=" ".join(prefix),
                prompt=prompt,
                answer=out.output.text,
                truncated=_is_truncated(prompt, out.output.text, token_limit),
            )
        )
    return records


def build_single_pass_dataset(
    backend: Backend,
    corpus: Sequence[IrFunction],
    passes: Sequence[str],
    per_pass: int,
    max_prefix_len: int,
    seed: int,
    token_limit: int = DEFAULT_TOKEN_LIMIT,
    workers: int = 1,
) -> list[SinglePassRecord]:
    """Sample (prompt, answer) pairs for each target pass.

    For each record a function and a random pass prefix (length uniform
    in [0, max_prefix_len]) are drawn; the prefix output becomes the
    prompt IR and the target pass's output the answer. Records are
    unique per (target_pass, prompt). A pass that runs out of attempts
    (``per_pass * 50``) before finding ``per_pass`` unique prompts gives
    fewer records; the caller counts them. A failed compilation (a
    timeout included) costs its attempt and nothing more.

    Each target pass draws from its own generator, seeded by ``seed``
    and the pass, so ``workers`` (at least 1) passes are sampled at once
    and the records, in the order of ``passes``, do not depend on it.
    """
    if per_pass < 1:
        raise ValueError(f"per_pass must be >= 1, got {per_pass}")
    if max_prefix_len < 0:
        raise ValueError(f"max_prefix_len must be >= 0, got {max_prefix_len}")
    _check_token_limit(token_limit)
    if not passes:
        raise ValueError("no target passes given")
    for i, flag in enumerate(passes):
        if flag not in backend.vocabulary:
            raise ValueError(f"target pass {flag!r} not in backend vocabulary")
        if flag in passes[:i]:
            raise ValueError(f"target pass {flag!r} given twice")
    if not corpus:
        raise ValueError("corpus is empty")

    per_target = map_in_order(
        lambda target: _single_pass_records(
            backend, corpus, target, per_pass, max_prefix_len, seed, token_limit
        ),
        passes,
        workers,
    )
    return [record for records in per_target for record in records]
