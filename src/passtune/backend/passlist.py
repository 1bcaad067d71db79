"""Pass vocabularies and validated pass lists.

A pass list is an ordered sequence of optimizer flags, rendered as a
space-joined string (``-Oz -mem2reg``). Ordinary passes may repeat;
meta-flags (``-O0`` .. ``-Oz``), which expand to whole pipelines, may
each appear at most once per list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator

DEFAULT_MAX_LEN = 12

META_FLAGS = ("-O0", "-O1", "-O2", "-O3", "-Os", "-Oz")
OZ_ITEMS = ("-Oz",)  # the baseline every list is scored against


class InvalidPassListError(ValueError):
    """Raised for unknown flags or repeated meta-flags."""


@dataclass(frozen=True)
class PassVocabulary:
    """The flag universe a backend accepts.

    ``passes`` are freely repeatable transform flags; ``meta_flags`` are
    pipeline aliases restricted to one occurrence per list.
    """

    passes: tuple[str, ...]
    meta_flags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.passes)) != len(self.passes):
            raise ValueError("duplicate entries in passes")
        if len(set(self.meta_flags)) != len(self.meta_flags):
            raise ValueError("duplicate entries in meta_flags")
        overlap = set(self.passes) & set(self.meta_flags)
        if overlap:
            raise ValueError(f"flags listed as both pass and meta: {sorted(overlap)}")

    @property
    def all_flags(self) -> tuple[str, ...]:
        return self.passes + self.meta_flags

    def __contains__(self, flag: str) -> bool:
        return flag in self.passes or flag in self.meta_flags

    def __len__(self) -> int:
        return len(self.passes) + len(self.meta_flags)


@dataclass(frozen=True)
class PassList:
    """Validated, ordered flag sequence.

    Equality and hashing follow the item tuple, so pass lists can key
    dicts and sets (deduplication during search relies on this).
    """

    items: tuple[str, ...]
    vocabulary: PassVocabulary = field(compare=False, hash=False)

    def __post_init__(self) -> None:
        for flag in self.items:
            if flag not in self.vocabulary:
                raise InvalidPassListError(f"unknown flag {flag!r}")
        for meta in self.vocabulary.meta_flags:
            if self.items.count(meta) > 1:
                raise InvalidPassListError(f"meta-flag {meta!r} appears more than once")

    def render(self) -> str:
        return " ".join(self.items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __str__(self) -> str:
        return self.render()


def sample_items(
    rng: "random.Random", vocabulary: PassVocabulary, length: int
) -> tuple[str, ...]:
    """Draw a valid random flag tuple: uniform flags, meta-flags at most
    once each (enforced by rejection)."""
    flags = vocabulary.all_flags
    meta = set(vocabulary.meta_flags)
    while True:
        items = tuple(rng.choice(flags) for _ in range(length))
        seen_meta: set[str] = set()
        ok = True
        for item in items:
            if item in meta:
                if item in seen_meta:
                    ok = False
                    break
                seen_meta.add(item)
        if ok:
            return items


def llvm10_vocabulary() -> PassVocabulary:
    """The production vocabulary: 122 transform passes plus 6 meta-flags.

    Derived from the LLVM 10 legacy pass-manager flag space (the optimizer
    this harness targets); coverage-instrumentation flags are excluded.
    """
    text = (
        resources.files("passtune.backend").joinpath("data/llvm10_passes.json")
    ).read_text(encoding="utf-8")
    data = json.loads(text)
    return PassVocabulary(tuple(data["passes"]), tuple(data["meta_flags"]))
