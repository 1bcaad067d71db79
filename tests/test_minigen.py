import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passtune.backend.mini import mini_vocabulary
from passtune.backend.passlist import PassList
from passtune.ircore import NormalizedIr, count_instructions, normalize
from passtune.minigen import generate_corpus, generate_function

KINDS = {"arith", "constbranch", "dynbranch", "deadheavy", "phaseorder", "loop"}


@pytest.fixture(scope="module")
def corpus80():
    return generate_corpus(80, seed=3)


def test_generation_is_deterministic():
    assert generate_corpus(12, seed=5) == generate_corpus(12, seed=5)
    assert generate_function(4, seed=5) == generate_function(4, seed=5)


def test_ids_are_stable_and_unique(corpus80):
    ids = [fn.id for fn in corpus80]
    assert ids[0] == "mini-00000"
    assert len(set(ids)) == len(ids)


def test_every_function_compiles(backend, corpus80):
    empty = PassList((), backend.vocabulary)
    for fn in corpus80:
        outcome = backend.apply(NormalizedIr(fn.normalized_text), empty)
        assert outcome.ok, fn.id
        assert outcome.instruction_count == fn.instruction_count


def test_sizes_stay_small(corpus80):
    for fn in corpus80:
        assert 2 <= fn.instruction_count <= 30


def test_all_kinds_appear(corpus80):
    seen = {fn.source_dataset.split("/", 1)[1] for fn in corpus80}
    assert seen == KINDS


def test_most_functions_are_improvable(backend, corpus80):
    oz = PassList(("-Oz",), backend.vocabulary)
    improved = 0
    for fn in corpus80:
        outcome = backend.apply(NormalizedIr(fn.normalized_text), oz)
        assert outcome.ok
        if outcome.instruction_count < fn.instruction_count:
            improved += 1
    assert improved >= len(corpus80) // 2


def test_phase_ordering_functions_beat_oz_with_extra_round(backend, corpus80):
    """The point of the phaseorder family: -Oz alone is not optimal."""
    oz = PassList(("-Oz",), backend.vocabulary)
    longer = PassList(("-Oz", "-mem2reg"), backend.vocabulary)
    targets = [fn for fn in corpus80 if fn.source_dataset == "mini/phaseorder"]
    assert targets
    for fn in targets:
        ir = NormalizedIr(fn.normalized_text)
        oz_count = backend.apply(ir, oz).instruction_count
        long_count = backend.apply(ir, longer).instruction_count
        assert long_count < oz_count, fn.id


def test_loop_functions_resist_oz(backend, corpus80):
    oz = PassList(("-Oz",), backend.vocabulary)
    targets = [fn for fn in corpus80 if fn.source_dataset == "mini/loop"]
    assert targets
    for fn in targets:
        outcome = backend.apply(NormalizedIr(fn.normalized_text), oz)
        assert outcome.instruction_count == fn.instruction_count, fn.id


def test_normalized_text_is_canonical(corpus80):
    for fn in corpus80:
        assert count_instructions(fn.normalized_text) == fn.instruction_count


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        generate_corpus(0, seed=1)


@settings(max_examples=150, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**16),
    items=st.lists(
        st.sampled_from(mini_vocabulary().all_flags), max_size=3
    ).filter(lambda xs: xs.count("-Oz") <= 1),
)
def test_mini_output_is_canonical_and_counted(backend, index, seed, items):
    # MiniBackend.apply does not normalize what it renders; this is the
    # guarantee that lets it skip the work.
    fn = generate_function(index, seed)
    outcome = backend.apply(fn.ir, PassList(tuple(items), backend.vocabulary))
    assert outcome.ok
    assert normalize(outcome.output.text) == outcome.output
    assert outcome.instruction_count == count_instructions(outcome.output.text)
