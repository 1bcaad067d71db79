"""Brute-force enumeration oracles for checking search results.

These deliberately share no code with the search implementation: the
space is enumerated with itertools and the winner picked by the same
(count, length, items) order the tuner documents.
"""

from itertools import product

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
