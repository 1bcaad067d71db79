"""Reference implementations that tests check the library against.

The search oracles deliberately share no code with the search
implementation: the space is enumerated with itertools and the winner
picked by the same (count, length, items) order the tuner documents.
:func:`reference_normalize` is the character-walking normalizer that
``ircore.normalize`` replaced, kept as it was; :func:`jaccard_similarity`
is the score retrieval must reproduce.
"""

import re
from collections import Counter
from itertools import product
from typing import Iterator

from passtune.backend import compile_items
from passtune.ircore import NormalizedIr


def all_valid_lists(vocabulary, max_len):
    """Every flag tuple of length 1..max_len with each meta-flag at most once."""
    meta = set(vocabulary.meta_flags)
    for length in range(1, max_len + 1):
        for items in product(vocabulary.all_flags, repeat=length):
            metas = [f for f in items if f in meta]
            if len(metas) == len(set(metas)):
                yield items


def count_all_valid_lists(vocabulary, max_len):
    return sum(1 for _ in all_valid_lists(vocabulary, max_len))


def best_by_enumeration(backend, fn, max_len):
    """(best_items, best_count) over the whole space; failures skipped."""
    ir = NormalizedIr(fn.normalized_text)
    best = None
    for items in all_valid_lists(backend.vocabulary, max_len):
        outcome = compile_items(backend, ir, items)
        if not outcome.ok:
            continue
        key = (outcome.instruction_count, len(items), items)
        if best is None or key < best:
            best = key
    if best is None:
        raise AssertionError(f"no valid pass list compiles {fn.id}")
    count, _, items = best
    return items, count


def jaccard_similarity(a: Counter, b: Counter) -> float:
    """Multiset Jaccard: shared token occurrences over combined ones."""
    union = sum((a | b).values())
    if union == 0:
        return 0.0
    return sum((a & b).values()) / union


_TRAILING_METADATA = re.compile(r"(?:,\s*![\w.$-]+\s+!\d+)+\s*$")
_ATTR_REF = re.compile(r"\s#\d+\b")


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


def reference_normalize(raw: str) -> NormalizedIr:
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
