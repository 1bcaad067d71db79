"""Golden output of the mini backend.

The mini backend writes the optimized code that every dataset record,
prediction check and report holds, so what it outputs is data.
"""

import hashlib
import itertools
import json

from passtune.backend import compile_items
from passtune.backend.mini import MiniBackend
from passtune.backend.passlist import InvalidPassListError, PassList
from passtune.minigen import generate_corpus

GOLDEN_SHA256 = "cbf8b34924104752dad4644965348257c752516b0b16480de78fae96fe2237eb"


def _lists_up_to_two(vocabulary):
    for length in range(3):
        for items in itertools.product(vocabulary.all_flags, repeat=length):
            try:
                PassList(items, vocabulary)
            except InvalidPassListError:
                continue
            yield items


def test_mini_backend_output_matches_the_golden_digest():
    """Every list of length <= 2 on ``generate_corpus(30, seed=5)``.

    The digest covers (id, items, ok, output text or diagnostic, count)
    of 1,680 compiles. A change to it is a change to data files: a change
    that moves it must say so and say why.
    """
    backend = MiniBackend()
    lists = list(_lists_up_to_two(backend.vocabulary))
    digest = hashlib.sha256()
    for fn in generate_corpus(30, seed=5):
        for items in lists:
            out = compile_items(backend, fn.ir, items)
            body = (
                out.output.text
                if out.ok
                else f"{out.diagnostic.category.value}: {out.diagnostic.message}"
            )
            row = [fn.id, list(items), out.ok, body, out.instruction_count]
            digest.update(json.dumps(row).encode() + b"\n")
    assert len(lists) == 56
    assert digest.hexdigest() == GOLDEN_SHA256
