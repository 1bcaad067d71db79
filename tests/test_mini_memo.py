"""The mini backend's (state, pass) memo changes no output and hides no check.

The memo is checked against :func:`oracles.reference_apply`, which runs one
live function from parse to render with no memo. A small bound makes the
memo clear, and compiles re-enter it cold, in the middle of a run.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_apply
from passtune.backend import compile_items, mini, mini_passes
from passtune.backend.mini import MiniBackend
from passtune.backend.passlist import sample_items
from passtune.ircore import NormalizedIr
from passtune.minigen import generate_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import trace  # noqa: E402

CORPUS = generate_corpus(8, seed=23)
SHARED = MiniBackend()  # one memo across every example


@settings(max_examples=300, deadline=None)
@given(
    first=st.integers(0, len(CORPUS) - 1),
    second=st.integers(0, len(CORPUS) - 1),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 5),
    cut=st.integers(1, 5),
)
def test_memo_output_equals_the_memo_free_reference(first, second, seed, length, cut):
    items = sample_items(random.Random(seed), SHARED.vocabulary, length)
    prefix = items[: min(cut, length)]
    a, b = CORPUS[first].ir, CORPUS[second].ir
    # the whole list on ``a`` walks the prefix's states after another
    # function's compile; the last compile is hits alone, unless cleared
    compiles = ((a, prefix), (b, items), (a, items), (a, prefix))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mini, "MEMO_ENTRIES", 7)
        for ir, compiled in compiles:
            out = compile_items(SHARED, ir, compiled)
            assert (out.output.text, out.instruction_count) == reference_apply(
                ir, compiled
            ), compiled


def test_every_step_asks_the_memo(monkeypatch):
    # ``-gvn`` leaves this function as it is, so a compile that starts with
    # it comes back to the input, whose later steps the memo already holds
    ir = NormalizedIr(
        "define i32 @f(i32 %a) {\n%x = add i32 2, 3\n%y = add i32 %a, %x\n"
        "%z = mul i32 %a, 4\nret i32 %y\n}"
    )
    items = ("-gvn", "-constfold", "-dce")
    assert reference_apply(ir, ("-gvn",))[0] == ir.text
    expected = reference_apply(ir, items)
    ran = []

    def counted(flag, run_pass):
        def run(fn):
            ran.append(flag)
            run_pass(fn)

        return run

    for flag, run_pass in list(mini_passes.PASSES.items()):
        monkeypatch.setitem(mini_passes.PASSES, flag, counted(flag, run_pass))
    backend = MiniBackend()
    compile_items(backend, ir, items[1:])
    assert ran == ["-constfold", "-dce"]
    ran.clear()
    out = compile_items(backend, ir, items)
    assert ran == ["-gvn"]
    assert (out.output.text, out.instruction_count) == expected


def test_an_input_not_in_the_renderers_form_is_rendered_at_its_first_step():
    # ``-gvn`` changes nothing here, but the output is the renderer's form
    # of the input (``true`` is the literal 1), never the input text itself
    ir = NormalizedIr(
        "define i1 @f() {\nentry:\nbr i1 true, label %t, label %e\n"
        "t:\nret i1 false\ne:\nret i1 true\n}"
    )
    expected = reference_apply(ir, ("-gvn",))
    assert "br i1 1," in expected[0]
    backend = MiniBackend()
    for _ in range(2):  # cold, then from the memo
        out = compile_items(backend, ir, ("-gvn",))
        assert (out.output.text, out.instruction_count) == expected


def test_verification_is_not_memoized_away(monkeypatch):
    calls = []

    def corrupt(fn):
        calls.append(fn)
        fn.blocks[-1].instrs[-1].operands = ("nowhere",)  # parses, fails verify

    monkeypatch.setitem(mini_passes.PASSES, "-dce", corrupt)
    backend = MiniBackend()
    ir = NormalizedIr("define i32 @f(i32 %a) {\n%x = add i32 %a, 1\nret i32 %x\n}")
    for _ in range(2):
        with pytest.raises(RuntimeError, match="produced invalid IR"):
            compile_items(backend, ir, ("-gvn", "-dce"))
    assert len(calls) == 1  # the second compile was all memo hits


def test_tracer_sees_the_passes_and_renders_of_a_cold_compile():
    tracer = trace.Tracer("test")
    tracer.install()
    try:
        out = compile_items(MiniBackend(), CORPUS[0].ir, ("-Oz",))
    finally:
        tracer.uninstall()
    assert out.ok
    assert tracer.leaves["mini_passes.gvn"][0] > 0
    assert tracer.leaves["mini_ir.render_function"][0] > 0
