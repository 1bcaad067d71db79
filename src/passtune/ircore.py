"""Canonical text handling for IR: normalization, counting, token estimates.

Every other module works on the normalized form produced here: no
indentation, single-space separated tokens, no comments, no debug
metadata, no attribute groups, newlines preserved. The corpus operations
that compile nothing (reading, deduplicating, splitting, stats) and the
headline metric over instruction counts, :func:`overall_improvement`,
live here too, so ``ingest`` loads no backend.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from passtune.util import read_records, unique_ids

# The reference tokenizer averages 2.02 characters per token on IR text.
# Kept as an exact rational (101/50) so the ceiling never drifts with
# float rounding.
_CHARS_PER_TOKEN_NUM = 101
_CHARS_PER_TOKEN_DEN = 50

DEFAULT_TOKEN_LIMIT = 2048


class MalformedIrError(ValueError):
    """Raised when function braces do not balance or a definition is nested."""


@dataclass(frozen=True)
class NormalizedIr:
    """IR text in canonical whitespace form."""

    text: str


# Trailing metadata attachments such as ", !dbg !7" or ", !tbaa !4".
_TRAILING_METADATA = re.compile(r"(?:,\s*![\w.$-]+\s+!\d+)+\s*$")
_ATTR_REF = re.compile(r"\s#\d+\b")
_SPACES = re.compile(r"[ \t]+")
# A quoted string: double quotes toggle string state (LLVM escapes a quote
# inside a string as \22, so quotes never nest), and a string left open
# runs to the end of the line.
_STRING_PATTERN = r'"[^"]*"?'
_STRING = re.compile(f"({_STRING_PATTERN})")
# A line up to its first `;` outside a string, where its comment starts.
_CODE = re.compile(rf'(?:[^";]+|{_STRING_PATTERN})*')
_LABEL_LINE = re.compile(r"^[\w.$%-]+:$")
# Continuation lines as `opt` prints them: a landingpad's clauses (these,
# or a bare `cleanup`) and an invoke's destinations. No instruction opens
# with these words.
_CONTINUATION = ("catch ", "filter ", "to ")
# What a stripped line must hold for normalize to change more than its ends:
# a string or comment, metadata, an attribute reference or group, or a run
# of horizontal whitespace.
_NOT_CANONICAL = re.compile(r'[";!#\t]|  ')


def normalize(raw: str) -> NormalizedIr:
    """Normalize IR text.

    Removes comments, debug-metadata lines and trailing attachments, and
    attribute groups; strips indentation and collapses runs of horizontal
    whitespace to single spaces (quoted string contents are preserved
    verbatim). Newlines are kept; lines left empty by deletion are
    dropped. Total on any text: unparseable fragments just get the
    whitespace treatment.

    A line is canonical once stripped when it holds none of ``"``, ``;``,
    ``!``, ``#``, a tab or two spaces in a row: then it has no string,
    comment, metadata or attribute to remove and no run to collapse, so it
    is kept as it is, stripped, and only the other lines get the full work.
    """
    out_lines: list[str] = []
    for line in raw.splitlines():
        stripped = line.strip()
        if not _NOT_CANONICAL.search(stripped):
            if stripped:
                out_lines.append(stripped)
            continue
        line = _CODE.match(line).group()
        stripped = line.strip()
        if not stripped or stripped.startswith(("!", "attributes #")):
            continue  # blank, a metadata definition or an attribute group
        # Outside parts at even positions, strings at odd ones.
        parts = _STRING.split(_TRAILING_METADATA.sub("", line))
        parts[::2] = [_SPACES.sub(" ", _ATTR_REF.sub("", p)) for p in parts[::2]]
        line = "".join(parts).strip()
        if line:
            out_lines.append(line)
    return NormalizedIr("\n".join(out_lines))


def count_instructions(ir: NormalizedIr | str) -> int:
    """Count instructions inside function bodies.

    A line counts unless it is a `define ... {` header, a closing `}`, or
    a label (line ending in `:`). An instruction printed over several
    lines counts once: the lines after one ending in `[` up to the closing
    `]` (a `switch`'s cases), a `landingpad`'s `cleanup`/`catch`/`filter`
    clause lines and an `invoke`'s `to label ...` line belong to the line
    that opens the instruction. Lines outside any body contribute 0.
    """
    text = ir.text if isinstance(ir, NormalizedIr) else ir
    inside = False
    in_list = False
    count = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if inside:
            if in_list:
                in_list = line != "]"
                continue
            if line == "}":
                inside = False
            elif line.startswith("define"):
                raise MalformedIrError("nested function definition")
            elif line.endswith(":") and _LABEL_LINE.match(line):
                continue
            elif line != "cleanup" and not line.startswith(_CONTINUATION):
                count += 1
                in_list = line.endswith("[")
        else:
            if line.startswith("define") and line.endswith("{"):
                inside = True
            elif line == "}":
                raise MalformedIrError("unbalanced '}'")
    if inside:
        raise MalformedIrError("unbalanced '{'")
    return count


def estimate_tokens(text: str) -> int:
    """Upper-bound token count: ceil(len(text) / 2.02), computed exactly."""
    n = len(text)
    return -(-n * _CHARS_PER_TOKEN_DEN // _CHARS_PER_TOKEN_NUM)


@dataclass(frozen=True)
class IrFunction:
    """One normalized IR function with its origin label and size measures."""

    id: str
    source_dataset: str
    raw_text: str
    normalized_text: str
    instruction_count: int
    token_estimate: int

    @property
    def ir(self) -> NormalizedIr:
        """The normalized text; canonical once :meth:`validate` has passed."""
        return NormalizedIr(self.normalized_text)

    @classmethod
    def from_raw(cls, id: str, source_dataset: str, raw_text: str) -> "IrFunction":
        norm = normalize(raw_text).text
        lines = norm.splitlines()  # each already stripped
        if sum(line.startswith("define") and line.endswith("{") for line in lines) != 1:
            raise MalformedIrError(
                f"function {id!r} must contain exactly one definition"
            )
        return cls(
            id=id,
            source_dataset=source_dataset,
            raw_text=raw_text,
            normalized_text=norm,
            instruction_count=count_instructions(norm),
            token_estimate=estimate_tokens(norm),
        )

    def validate(self) -> None:
        """Check that the row is what :meth:`from_raw` makes of its own text."""
        derived = IrFunction.from_raw(self.id, self.source_dataset, self.normalized_text)
        if derived.normalized_text != self.normalized_text:
            raise ValueError(f"{self.id}: normalized_text is not a fixed point")
        if derived.instruction_count != self.instruction_count:
            raise ValueError(f"{self.id}: instruction_count mismatch")
        if derived.token_estimate != self.token_estimate:
            raise ValueError(f"{self.id}: token_estimate mismatch")


def read_corpus(path: str | Path) -> list[IrFunction]:
    """Read and validate a corpus: the one place its text is checked.

    Every row's ``normalized_text`` must be a fixed point of
    :func:`normalize`, so later stages can compile ``fn.ir`` as it is,
    and no two rows may share an ``id``, which later stages key on. A
    corpus with no rows is a ValueError too.
    """
    unique = unique_ids(lambda fn: fn.id)

    def check(fn: IrFunction) -> None:
        fn.validate()
        unique(fn)

    corpus = read_records(IrFunction, path, check=check)
    if not corpus:
        raise ValueError(f"corpus {path} is empty")
    return corpus


def dedup(corpus: Iterable[IrFunction]) -> list[IrFunction]:
    """Keep the first function per distinct normalized text."""
    seen: set[str] = set()
    out: list[IrFunction] = []
    for fn in corpus:
        if fn.normalized_text in seen:
            continue
        seen.add(fn.normalized_text)
        out.append(fn)
    return out


def split(
    corpus: Sequence[IrFunction],
    fractions: Mapping[str, float],
    seed: int,
) -> dict[str, list[IrFunction]]:
    """Deterministic disjoint partition by named fractions summing to 1.

    Every part must get at least one function.
    """
    if not fractions:
        raise ValueError("fractions must be non-empty")
    for name, frac in fractions.items():
        if not frac > 0:  # written so that NaN fails too
            raise ValueError(f"fraction {name!r} must be positive")
    total = sum(fractions.values())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"fractions must sum to 1, got {total}")
    shuffled = list(corpus)
    random.Random(seed).shuffle(shuffled)
    out: dict[str, list[IrFunction]] = {}
    n = len(shuffled)
    cumulative = 0.0
    start = 0
    names = list(fractions)
    for i, name in enumerate(names):
        cumulative += fractions[name]
        end = n if i == len(names) - 1 else round(cumulative * n)
        if end == start:
            raise ValueError(f"split part {name!r} gets none of the {n} functions")
        out[name] = shuffled[start:end]
        start = end
    return out


def corpus_stats(functions: Sequence[IrFunction]) -> dict[str, int]:
    """Corpus accounting: sizes in functions, instructions, tokens, bytes."""
    return {
        "functions": len(functions),
        "total_instructions": sum(fn.instruction_count for fn in functions),
        "total_tokens": sum(fn.token_estimate for fn in functions),
        "text_bytes": sum(len(fn.normalized_text.encode("utf-8")) for fn in functions),
    }


def overall_improvement(sum_oz: int, sum_predicted: int) -> float:
    """Percent improvement of a predictor over the -Oz baseline.

    Positive when the predictor's total instruction count is below the
    baseline's. The denominator is the predictor's total.
    """
    if sum_predicted <= 0:
        raise ValueError("sum_predicted must be positive")
    return (sum_oz - sum_predicted) / sum_predicted * 100.0
