"""Canonical text handling for IR: normalization, counting, token estimates.

Every other module works on the normalized form produced here: no
indentation, single-space separated tokens, no comments, no debug
metadata, no attribute groups, newlines preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
_LABEL_LINE = re.compile(r"^[\w.$%-]+:$")
# Continuation lines as `opt` prints them: a landingpad's clauses (these,
# or a bare `cleanup`) and an invoke's destinations. No instruction opens
# with these words.
_CONTINUATION = ("catch ", "filter ", "to ")


def _split_string_segments(line: str) -> Iterator[tuple[bool, str]]:
    """Yield (inside_string, segment) pairs for a line.

    Double quotes toggle string state. LLVM escapes quotes as \\22 inside
    strings, so raw quotes never nest; toggling is sufficient and, being
    deterministic, keeps normalization idempotent.
    """
    inside = False
    start = 0
    for i, ch in enumerate(line):
        if ch == '"':
            yield inside, line[start : i + 1]
            inside = not inside
            start = i + 1
    if start <= len(line) - 1 or start == 0:
        yield inside, line[start:]


def _strip_comment(line: str) -> str:
    out: list[str] = []
    for inside, seg in _split_string_segments(line):
        if not inside and ";" in seg:
            out.append(seg[: seg.index(";")])
            break
        out.append(seg)
    return "".join(out)


def _clean_outside_strings(line: str) -> str:
    """Apply metadata/attribute/whitespace rules outside quoted strings."""
    pieces: list[str] = []
    for inside, seg in _split_string_segments(line):
        if inside:
            pieces.append(seg)
        else:
            seg = _ATTR_REF.sub("", seg)
            seg = re.sub(r"[ \t]+", " ", seg)
            pieces.append(seg)
    return "".join(pieces)


def normalize(raw: str) -> NormalizedIr:
    """Normalize IR text.

    Removes comments, debug-metadata lines and trailing attachments, and
    attribute groups; strips indentation and collapses runs of horizontal
    whitespace to single spaces (quoted string contents are preserved
    verbatim). Newlines are kept; lines left empty by deletion are
    dropped. Total on any text: unparseable fragments just get the
    whitespace treatment.
    """
    out_lines: list[str] = []
    for line in raw.splitlines():
        line = _strip_comment(line.rstrip("\r"))
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("!"):
            continue  # standalone metadata definition
        if stripped.startswith("attributes #"):
            continue  # attribute group
        line = _TRAILING_METADATA.sub("", line)
        line = _clean_outside_strings(line).strip()
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


def _count_definitions(text: str) -> int:
    return sum(
        1
        for line in text.splitlines()
        if line.startswith("define") and line.rstrip().endswith("{")
    )


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
        if _count_definitions(norm) != 1:
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
        """Check the record's internal consistency."""
        if normalize(self.normalized_text).text != self.normalized_text:
            raise ValueError(f"{self.id}: normalized_text is not a fixed point")
        if count_instructions(self.normalized_text) != self.instruction_count:
            raise ValueError(f"{self.id}: instruction_count mismatch")
        if estimate_tokens(self.normalized_text) != self.token_estimate:
            raise ValueError(f"{self.id}: token_estimate mismatch")
        if _count_definitions(self.normalized_text) != 1:
            raise ValueError(f"{self.id}: expected exactly one definition")


def read_corpus(path: str | Path) -> list[IrFunction]:
    """Read and validate a corpus: the one place its text is checked.

    Every row's ``normalized_text`` must be a fixed point of
    :func:`normalize`, so later stages can compile ``fn.ir`` as it is,
    and no two rows may share an ``id``, which later stages key on.
    """
    unique = unique_ids(lambda fn: fn.id)

    def check(fn: IrFunction) -> None:
        fn.validate()
        unique(fn)

    return read_records(IrFunction, path, check=check)
