import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from passtune.backend.passlist import (
    InvalidPassListError,
    PassList,
    PassVocabulary,
    llvm10_vocabulary,
    sample_items,
)
from passtune.util import DEFAULT_MAX_LEN

TINY = PassVocabulary(("-a", "-b", "-c"), ("-Oz", "-O2"))


def test_vocabulary_rejects_duplicates_and_overlap():
    with pytest.raises(ValueError):
        PassVocabulary(("-a", "-a"), ())
    with pytest.raises(ValueError):
        PassVocabulary(("-a",), ("-Oz", "-Oz"))
    with pytest.raises(ValueError):
        PassVocabulary(("-a", "-Oz"), ("-Oz",))


def test_vocabulary_membership_and_size():
    assert "-a" in TINY and "-Oz" in TINY
    assert "-zz" not in TINY
    assert len(TINY.all_flags) == 5
    assert TINY.all_flags == ("-a", "-b", "-c", "-Oz", "-O2")


def test_pass_list_validates_flags():
    with pytest.raises(InvalidPassListError):
        PassList(("-nope",), TINY)
    with pytest.raises(InvalidPassListError):
        PassList(("-Oz", "-a", "-Oz"), TINY)
    # ordinary passes may repeat; distinct meta-flags may coexist
    PassList(("-a", "-a", "-Oz", "-O2"), TINY)


def test_parse_render_inverse():
    pl = PassList(tuple("-Oz -a -b".split()), TINY)
    assert pl.items == ("-Oz", "-a", "-b")
    assert pl.render() == "-Oz -a -b"
    assert PassList(tuple(pl.render().split()), TINY) == pl


def test_pass_list_equality_ignores_vocabulary():
    other = PassVocabulary(("-a", "-b", "-c", "-d"), ("-Oz", "-O2"))
    assert PassList(("-a",), TINY) == PassList(("-a",), other)
    assert hash(PassList(("-a",), TINY)) == hash(PassList(("-a",), other))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
def test_sample_items_always_valid(length, seed):
    items = sample_items(random.Random(seed), TINY, length)
    assert len(items) == length
    PassList(items, TINY)  # validates flags + meta-once constraint


def test_sample_items_deterministic():
    a = [sample_items(random.Random(7), TINY, 5) for _ in range(10)]
    b = [sample_items(random.Random(7), TINY, 5) for _ in range(10)]
    assert a == b


def test_default_max_len():
    assert DEFAULT_MAX_LEN == 12


def test_meta_flags_are_the_six_optimization_levels():
    assert llvm10_vocabulary().meta_flags == ("-O0", "-O1", "-O2", "-O3", "-Os", "-Oz")


def test_llvm10_vocabulary_shape():
    vocab = llvm10_vocabulary()
    assert len(vocab.passes) == 122
    assert len(vocab.all_flags) == 128
    for flag in ("-mem2reg", "-instcombine", "-simplifycfg", "-gvn", "-adce"):
        assert flag in vocab
    assert all(flag.startswith("-") for flag in vocab.all_flags)


def test_the_vocabulary_reads_as_it_did_through_importlib_resources():
    vocab = llvm10_vocabulary()
    text = json.dumps([vocab.passes, vocab.meta_flags])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0c294defaca5c8ebe0ca58637c3d505790618a2b7c7a19340d32e6d4ed69ebaf"
    )
