"""Pass vocabularies and validated pass lists.

A pass list is an ordered sequence of optimizer flags, rendered as a
space-joined string (``-Oz -mem2reg``). Ordinary passes may repeat, but
those in :data:`ONCE_PER_LIST`; meta-flags (``-O0`` .. ``-Oz``), which
expand to whole pipelines, may each appear at most once per list too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

OZ_ITEMS = ("-Oz",)  # the baseline every list is scored against
# Passes that may appear at most once per list: on a list that repeats
# -attributor, LLVM 14's opt gives different outputs from run to run.
ONCE_PER_LIST = ("-attributor",)


class InvalidPassListError(ValueError):
    """Raised for unknown flags or repeated meta-flags or once-only passes."""


@dataclass(frozen=True)
class PassVocabulary:
    """The flag universe a backend accepts.

    ``passes`` are transform flags, repeatable but for
    :data:`ONCE_PER_LIST`; ``meta_flags`` are pipeline aliases restricted
    to one occurrence per list.
    """

    passes: tuple[str, ...]
    meta_flags: tuple[str, ...]
    _flags: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.passes)) != len(self.passes):
            raise ValueError("duplicate entries in passes")
        if len(set(self.meta_flags)) != len(self.meta_flags):
            raise ValueError("duplicate entries in meta_flags")
        overlap = set(self.passes) & set(self.meta_flags)
        if overlap:
            raise ValueError(f"flags listed as both pass and meta: {sorted(overlap)}")
        object.__setattr__(self, "_flags", frozenset(self.all_flags))

    @property
    def all_flags(self) -> tuple[str, ...]:
        return self.passes + self.meta_flags

    def __contains__(self, flag: str) -> bool:
        return flag in self._flags

    def problem(self, items: tuple[str, ...]) -> Optional[str]:
        """Why ``items`` is not a valid list here, or None if it is: the
        first unknown flag, else the first meta-flag that repeats, else the
        first pass of :data:`ONCE_PER_LIST` that repeats."""
        flags = self._flags
        for flag in items:
            if flag not in flags:
                return f"unknown flag {flag!r}"
        for meta in self.meta_flags:
            if items.count(meta) > 1:
                return f"meta-flag {meta!r} appears more than once"
        for flag in ONCE_PER_LIST:
            if items.count(flag) > 1:
                return f"flag {flag!r} appears more than once"
        return None


@dataclass(frozen=True)
class PassList:
    """Validated, ordered flag sequence, as ``Backend.apply`` receives it.

    Equality and hashing follow the item tuple, not the vocabulary.
    """

    items: tuple[str, ...]
    vocabulary: PassVocabulary = field(compare=False, hash=False)

    def __post_init__(self) -> None:
        problem = self.vocabulary.problem(self.items)
        if problem is not None:
            raise InvalidPassListError(problem)

    def render(self) -> str:
        return " ".join(self.items)


def sample_items(
    rng: "random.Random", vocabulary: PassVocabulary, length: int
) -> tuple[str, ...]:
    """Draw a valid random flag tuple: uniform flags, redrawn until
    ``vocabulary`` has no problem with it (meta-flags and the passes of
    :data:`ONCE_PER_LIST` at most once each)."""
    flags, choice = vocabulary.all_flags, rng.choice
    while True:
        items = tuple([choice(flags) for _ in range(length)])
        if vocabulary.problem(items) is None:
            return items


def llvm10_vocabulary() -> PassVocabulary:
    """The production vocabulary: 122 transform passes plus 6 meta-flags.

    Derived from the LLVM 10 legacy pass-manager flag space (the optimizer
    this harness targets); coverage-instrumentation flags are excluded.
    """
    path = Path(__file__).with_name("data") / "llvm10_passes.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    return PassVocabulary(tuple(data["passes"]), tuple(data["meta_flags"]))
