import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passtune.backend.mini_interp import run_function
from passtune.backend.mini_ir import parse_function, render_function, verify_function
from passtune.backend.mini_passes import (
    OZ_PIPELINE,
    OZ_ROUND,
    PASSES,
    constfold,
    dce,
    expand_flags,
    gvn,
    instcombine,
    mem2reg,
    simplifycfg,
    wrap,
)
from passtune.ircore import count_instructions
from passtune.minigen import generate_function

from oracles import run_pipeline


def _apply(text, *passes):
    fn = parse_function(text)
    verify_function(fn)
    out = run_pipeline(fn, passes)
    verify_function(out)
    return out


def _body(fn):
    lines = render_function(fn).splitlines()
    return lines[1:-1]  # strip define header and closing brace


def test_wrap_twos_complement():
    assert wrap(2**31, 32) == -(2**31)
    assert wrap(-(2**31) - 1, 32) == 2**31 - 1
    assert wrap(2**31 - 1, 32) == 2**31 - 1
    assert wrap(2**64 + 5, 64) == 5
    assert wrap(1, 1) == -1  # i1 true is -1 in signed form
    assert wrap(0, 1) == 0


def test_constfold_folds_and_propagates():
    out = _apply(
        "define i32 @f() {\n%x = add i32 2, 3\n%y = mul i32 %x, 4\nret i32 %y\n}",
        "-constfold",
    )
    assert _body(out) == ["ret i32 20"]


def test_constfold_wraps_like_the_machine():
    out = _apply(
        "define i32 @f() {\n%x = add i32 2147483647, 1\nret i32 %x\n}",
        "-constfold",
    )
    assert _body(out) == ["ret i32 -2147483648"]


def test_constfold_collapses_literal_branch():
    out = _apply(
        "define i32 @f() {\nentry:\n%c = icmp slt i32 1, 2\n"
        "br i1 %c, label %t, label %e\nt:\nret i32 1\ne:\nret i32 2\n}",
        "-constfold",
    )
    # branch decided; the dead arm survives until -simplifycfg
    assert "br label %t" in render_function(out)
    assert "icmp" not in render_function(out)
    assert len(out.blocks) == 3


def test_dce_removes_unused_chains():
    out = _apply(
        "define i32 @f(i32 %a) {\n%d1 = add i32 %a, 1\n%d2 = mul i32 %d1, 2\n"
        "ret i32 %a\n}",
        "-dce",
    )
    assert _body(out) == ["ret i32 %a"]


def test_dce_keeps_stores_and_terminators():
    text = (
        "define i32 @f(i32 %a) {\n%p = alloca i32\nstore i32 %a, i32* %p\n"
        "ret i32 %a\n}"
    )
    out = _apply(text, "-dce")
    assert len(_body(out)) == 3


def test_mem2reg_promotes_single_store():
    out = _apply(
        "define i32 @f(i32 %a) {\n%p = alloca i32\nstore i32 %a, i32* %p\n"
        "%v = load i32, i32* %p\nret i32 %v\n}",
        "-mem2reg",
    )
    assert _body(out) == ["ret i32 %a"]


def test_mem2reg_skips_two_stores():
    text = (
        "define i32 @f(i32 %a) {\n%p = alloca i32\nstore i32 0, i32* %p\n"
        "store i32 %a, i32* %p\n%v = load i32, i32* %p\nret i32 %v\n}"
    )
    out = _apply(text, "-mem2reg")
    assert len(_body(out)) == 5  # unchanged


def test_mem2reg_requires_store_before_load_in_block():
    text = (
        "define i32 @f(i32 %a) {\n%p = alloca i32\n%v = load i32, i32* %p\n"
        "store i32 %a, i32* %p\nret i32 %v\n}"
    )
    out = _apply(text, "-mem2reg")
    assert len(_body(out)) == 4  # load happens first: not promotable


def test_mem2reg_promotes_across_dominated_blocks():
    out = _apply(
        "define i32 @f(i32 %a) {\nentry:\n%p = alloca i32\nstore i32 %a, i32* %p\n"
        "br label %next\nnext:\n%v = load i32, i32* %p\nret i32 %v\n}",
        "-mem2reg",
    )
    assert "load" not in render_function(out)
    assert "ret i32 %a" in render_function(out)


def test_instcombine_identities():
    out = _apply(
        "define i32 @f(i32 %a) {\n%x = add i32 %a, 0\n%y = mul i32 1, %x\n"
        "%z = sub i32 %y, 0\nret i32 %z\n}",
        "-instcombine",
    )
    assert _body(out) == ["ret i32 %a"]


def test_instcombine_double_negation_drops_two_instructions():
    out = _apply(
        "define i32 @f(i32 %a, i32 %b) {\n%n1 = sub i32 0, %a\n"
        "%n2 = sub i32 0, %n1\n%r = add i32 %n2, %b\nret i32 %r\n}",
        "-instcombine",
    )
    assert _body(out) == ["%r = add i32 %a, %b", "ret i32 %r"]


def test_instcombine_keeps_needed_negation():
    # the inner negation has another user, so only the outer one folds
    text = (
        "define i32 @f(i32 %a) {\n%n1 = sub i32 0, %a\n%n2 = sub i32 0, %n1\n"
        "%r = add i32 %n2, %n1\nret i32 %r\n}"
    )
    out = _apply(text, "-instcombine")
    assert "%n1 = sub i32 0, %a" in _body(out)
    assert "%r = add i32 %a, %n1" in _body(out)


def test_gvn_merges_commutative_duplicates_in_block():
    out = _apply(
        "define i32 @f(i32 %a, i32 %b) {\n%d1 = add i32 %a, %b\n"
        "%d2 = add i32 %b, %a\n%r = mul i32 %d1, %d2\nret i32 %r\n}",
        "-gvn",
    )
    assert _body(out) == [
        "%d1 = add i32 %a, %b",
        "%r = mul i32 %d1, %d1",
        "ret i32 %r",
    ]


def test_gvn_respects_operand_order_of_sub():
    text = (
        "define i32 @f(i32 %a, i32 %b) {\n%d1 = sub i32 %a, %b\n"
        "%d2 = sub i32 %b, %a\n%r = add i32 %d1, %d2\nret i32 %r\n}"
    )
    out = _apply(text, "-gvn")
    assert len(_body(out)) == 4  # nothing merged


def test_gvn_is_per_block():
    text = (
        "define i32 @f(i32 %a) {\nentry:\n%d1 = add i32 %a, %a\nbr label %next\n"
        "next:\n%d2 = add i32 %a, %a\nret i32 %d2\n}"
    )
    out = _apply(text, "-gvn")
    assert "%d2 = add i32 %a, %a" in render_function(out)


_NUMERIC_NAMES = (
    "define i32 @f(i32 %0, i32 %1) {\n%3 = mul i32 %1, 5\n%4 = add i32 1, 2\n"
    "%5 = add i32 %1, 2\n%6 = sub i32 %0, 0\n%7 = icmp slt i32 %3, %5\n"
    "br i1 %7, label %8, label %10\n8:\n%9 = add i32 %4, %6\nret i32 %9\n"
    "10:\n%11 = mul i32 %5, %6\nret i32 %11\n}"
)


def test_numeric_register_names_are_never_literals():
    # %0 is not the literal 0 and %1 is not 1: only %6 is an identity
    # (x - 0) and only %4 folds
    rest = [
        "%7 = icmp slt i32 %3, %5",
        "br i1 %7, label %8, label %10",
        "8:",
    ]
    assert _body(_apply(_NUMERIC_NAMES, "-instcombine")) == [
        "%3 = mul i32 %1, 5",
        "%4 = add i32 1, 2",
        "%5 = add i32 %1, 2",
        *rest,
        "%9 = add i32 %4, %0",
        "ret i32 %9",
        "10:",
        "%11 = mul i32 %5, %0",
        "ret i32 %11",
    ]
    assert render_function(_apply(_NUMERIC_NAMES, "-gvn")) == _NUMERIC_NAMES
    assert _body(_apply(_NUMERIC_NAMES, "-constfold")) == [
        "%3 = mul i32 %1, 5",
        "%5 = add i32 %1, 2",
        "%6 = sub i32 %0, 0",
        *rest,
        "%9 = add i32 3, %6",
        "ret i32 %9",
        "10:",
        "%11 = mul i32 %5, %6",
        "ret i32 %11",
    ]
    oz = _apply(_NUMERIC_NAMES, "-Oz")
    assert _body(oz) == [
        "%3 = mul i32 %1, 5",
        "%5 = add i32 %1, 2",
        *rest,
        "%9 = add i32 3, %0",
        "ret i32 %9",
        "10:",
        "%11 = mul i32 %5, %0",
        "ret i32 %11",
    ]
    assert count_instructions(render_function(oz)) == 8


def test_simplifycfg_merges_linear_chain():
    out = _apply(
        "define i32 @f(i32 %a) {\nentry:\nbr label %next\nnext:\n"
        "%x = add i32 %a, 1\nbr label %last\nlast:\nret i32 %x\n}",
        "-simplifycfg",
    )
    assert len(out.blocks) == 1
    assert _body(out) == ["entry:", "%x = add i32 %a, 1", "ret i32 %x"]


def test_simplifycfg_drops_unreachable_blocks():
    out = _apply(
        "define i32 @f(i32 %a) {\nentry:\nret i32 %a\ndead:\nret i32 0\n}",
        "-simplifycfg",
    )
    assert [b.label for b in out.blocks] == ["entry"]


def test_simplifycfg_keeps_loops():
    text = (
        "define i32 @f(i32 %n) {\nentry:\nbr label %head\nhead:\n"
        "%c = icmp slt i32 0, %n\nbr i1 %c, label %head, label %exit\n"
        "exit:\nret i32 0\n}"
    )
    out = _apply(text, "-simplifycfg")
    assert "head" in {b.label for b in out.blocks}


def test_oz_pipeline_shape():
    assert OZ_ROUND == (
        "-mem2reg",
        "-constfold",
        "-instcombine",
        "-gvn",
        "-dce",
        "-simplifycfg",
    )
    assert OZ_PIPELINE == OZ_ROUND * 2
    assert expand_flags(("-dce", "-Oz")) == ["-dce", *OZ_PIPELINE]
    assert set(OZ_ROUND) == set(PASSES)


def test_run_pipeline_leaves_input_untouched():
    fn = parse_function(
        "define i32 @f(i32 %a) {\n%x = add i32 %a, 0\nret i32 %x\n}"
    )
    before = render_function(fn)
    out = run_pipeline(fn, ("-Oz",))
    assert render_function(fn) == before
    assert render_function(out) != before


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(0, 199),
    flags=st.lists(st.sampled_from(sorted(PASSES)), min_size=1, max_size=8),
)
def test_a_pass_that_reports_no_change_leaves_the_text_as_it_was(index, flags):
    # the mini backend keeps a step's state text when its pass returns False
    fn = parse_function(generate_function(index, seed=7).normalized_text)
    for flag in flags:
        before = render_function(fn)
        changed = PASSES[flag](fn)
        assert type(changed) is bool, flag
        if not changed:
            assert render_function(fn) == before, flag


def test_oz_reaches_fixpoint_on_enable_chain():
    # collapsing the constant branch leaves one store, which the second
    # round's mem2reg can promote
    text = (
        "define i32 @f(i32 %a) {\nentry:\n%m = alloca i32\n"
        "%c = icmp slt i32 1, 2\nbr i1 %c, label %t, label %e\n"
        "t:\nstore i32 7, i32* %m\nbr label %j\n"
        "e:\nstore i32 8, i32* %m\nbr label %j\n"
        "j:\n%v = load i32, i32* %m\n%r = add i32 %v, %a\nret i32 %r\n}"
    )
    out = _apply(text, "-Oz")
    assert _body(out) == ["entry:", "%r = add i32 7, %a", "ret i32 %r"]


@pytest.mark.parametrize("index", [0, 3, 11, 17, 29])
def test_each_pass_preserves_observed_behavior(index):
    fn_record = generate_function(index, seed=55)
    base = parse_function(fn_record.normalized_text)
    verify_function(base)
    rng = random.Random(index)
    for flag in (*PASSES, "-Oz"):
        opt = run_pipeline(base, (flag,))
        verify_function(opt)
        for _ in range(8):
            args = [rng.randint(-6, 6) for _ in base.params]
            assert run_function(base, args) == run_function(opt, args)
