import random

import pytest
from hypothesis import given, strategies as st

from passtune.backend.passlist import (
    DEFAULT_MAX_LEN,
    META_FLAGS,
    InvalidPassListError,
    PassList,
    PassVocabulary,
    llvm10_vocabulary,
    sample_items,
)

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
    assert len(TINY) == 5
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
    assert str(pl) == pl.render()
    assert list(pl) == ["-Oz", "-a", "-b"]
    assert len(pl) == 3


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
    assert META_FLAGS == ("-O0", "-O1", "-O2", "-O3", "-Os", "-Oz")


def test_llvm10_vocabulary_shape():
    vocab = llvm10_vocabulary()
    assert len(vocab.passes) == 122
    assert vocab.meta_flags == META_FLAGS
    assert len(vocab) == 128
    for flag in ("-mem2reg", "-instcombine", "-simplifycfg", "-gvn", "-adce"):
        assert flag in vocab
    assert all(flag.startswith("-") for flag in vocab.all_flags)
