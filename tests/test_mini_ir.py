import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passtune.backend import compile_items
from passtune.backend.classify import ErrorCategory, classify_error
from passtune.backend.mini_ir import (
    LINE_CACHE_ENTRIES,
    MiniParseError,
    MiniVerifyError,
    _instr_fields,
    parse_function,
    render_function,
    verify_function,
)
from passtune.backend.passlist import sample_items
from passtune.ircore import count_instructions
from passtune.minigen import generate_corpus

DIAMOND = """\
define i32 @f(i32 %a, i32 %b) {
entry:
%c = icmp slt i32 %a, %b
br i1 %c, label %low, label %high
low:
%x = add i32 %a, 1
br label %join
high:
%x2 = sub i32 %b, 1
br label %join
join:
%m = alloca i32
store i32 0, i32* %m
%v = load i32, i32* %m
ret i32 %v
}"""


def _parse(text):
    fn = parse_function(text)
    verify_function(fn)
    return fn


def test_parse_basic_structure():
    fn = _parse(DIAMOND)
    assert fn.name == "f"
    assert fn.ret_ty == "i32"
    assert fn.params == (("i32", "a"), ("i32", "b"))
    assert [b.label for b in fn.blocks] == ["entry", "low", "high", "join"]
    assert count_instructions(render_function(fn)) == 10
    assert fn.entry.successors() == ("low", "high")


def test_render_parse_round_trip():
    fn = _parse(DIAMOND)
    text = render_function(fn)
    again = _parse(text)
    assert render_function(again) == text
    assert text == DIAMOND  # already in canonical form


def test_implicit_entry_block_gets_fresh_label():
    fn = _parse("define i32 @f(i32 %a) {\nret i32 %a\n}")
    assert len(fn.blocks) == 1
    assert not fn.blocks[0].explicit_label
    # the implicit label is omitted when rendering
    assert render_function(fn) == "define i32 @f(i32 %a) {\nret i32 %a\n}"


def test_implicit_entry_does_not_collide_with_named_entry():
    # first block is unlabeled but a later block claims the name "entry"
    text = "define i32 @f(i32 %a) {\nbr label %entry\nentry:\nret i32 %a\n}"
    fn = _parse(text)
    assert fn.blocks[0].label != "entry"
    assert fn.blocks[1].label == "entry"
    again = _parse(render_function(fn))
    assert count_instructions(render_function(again)) == 2


def test_operand_literals_accept_signed_and_unsigned_range():
    _parse("define i32 @f() {\n%x = add i32 -2147483648, 4294967295\nret i32 %x\n}")
    _parse("define i1 @g() {\n%x = add i1 true, false\nret i1 %x\n}")


@pytest.mark.parametrize(
    "text, category, needle",
    [
        # literal outside [−2^31, 2^32)
        (
            "define i32 @f() {\n%x = add i32 4294967296, 0\nret i32 %x\n}",
            ErrorCategory.INVALID_CONSTANT,
            "integer constant too large",
        ),
        (
            "define i32 @f() {\n%x = add i32 1.5, 0\nret i32 %x\n}",
            ErrorCategory.INVALID_CONSTANT,
            "floating point constant",
        ),
        (
            "define i32 @f() {\n%x = fdiv i32 1, 2\nret i32 %x\n}",
            ErrorCategory.OTHER,
            "unsupported instruction",
        ),
        (
            "define i32 @f(i32* %p) {\nret i32 0\n}",
            ErrorCategory.SYNTAX_ERROR,
            "expected parameter",
        ),
        (
            "define i32 @f() {\n%x = call i32 @g()\nret i32 %x\n}",
            ErrorCategory.UNDEFINED_FUNCTION,
            "undefined function",
        ),
        (
            "define i32 @f(i32 %a) {\n%x = getelementptr i32, i32* %a, i32 1\nret i32 0\n}",
            ErrorCategory.INDEX_ERROR,
            "invalid index operation",
        ),
        (
            "define i32 @f() {\nentry:\nret i32 0\nentry:\nret i32 0\n}",
            ErrorCategory.INVALID_REDEFINITION,
            "redefinition of label",
        ),
        (
            "define i32 @f() {\nret i32 0\n",
            ErrorCategory.SYNTAX_ERROR,
            "expected '}' to close function body",
        ),
        (
            "i32 @f() {\nret i32 0\n}",
            ErrorCategory.SYNTAX_ERROR,
            "expected 'define' at start of function",
        ),
        (
            "define i32 @f() {\n}",
            ErrorCategory.SYNTAX_ERROR,
            "expected at least one basic block",
        ),
        (
            "define i32 @f() {\nret i32 0\n}\nret i32 1",
            ErrorCategory.SYNTAX_ERROR,
            "expected end of input, got 'ret i32 1'",
        ),
        (
            "define i32 @f() {\nret i32 %\n}",
            ErrorCategory.SYNTAX_ERROR,
            "expected value token, got '%'",
        ),
        (
            "define i32 @f() {\n%x = frob i32 1, 2\nret i32 %x\n}",
            ErrorCategory.SYNTAX_ERROR,
            "expected instruction opcode, got 'frob'",
        ),
    ],
)
def test_parse_errors_classify(text, category, needle):
    with pytest.raises(MiniParseError) as err:
        parse_function(text)
    assert needle in str(err.value)
    assert classify_error(str(err.value)) is category


@pytest.mark.parametrize(
    "text, category, needle",
    [
        (
            "define i32 @f() {\nret i32 %nope\n}",
            ErrorCategory.UNDEFINED_VALUE,
            "use of undefined value '%nope'",
        ),
        (
            "define i32 @f(i32 %a) {\n%x = add i1 %a, true\nret i32 0\n}",
            ErrorCategory.TYPE_ERROR,
            "'%a' defined with type 'i32' but expected 'i1'",
        ),
        (
            "define i32 @f(i32 %a) {\n%a = add i32 1, 2\nret i32 %a\n}",
            ErrorCategory.INVALID_REDEFINITION,
            "multiple definition of local value named '%a'",
        ),
        (
            "define i32 @f() {\nbr label %gone\n}",
            ErrorCategory.FORWARD_REFERENCE,
            "forward reference to undefined label '%gone'",
        ),
        (
            "define i1 @f(i32 %a) {\nret i32 %a\n}",
            ErrorCategory.TYPE_ERROR,
            "but expected",
        ),
        (
            "define i32 @f() {\n%p = alloca i64\nstore i32 1, i32* %p\nret i32 0\n}",
            ErrorCategory.TYPE_ERROR,
            "'%p' defined with type 'i64*' but expected 'i32*'",
        ),
        (
            "define i32 @f() {\n%p = alloca i64\n%x = load i32, i32* %p\nret i32 %x\n}",
            ErrorCategory.TYPE_ERROR,
            "'%p' defined with type 'i64*' but expected 'i32*'",
        ),
        (
            "define i32 @f(i32 %a, i32 %a) {\nret i32 %a\n}",
            ErrorCategory.INVALID_REDEFINITION,
            "multiple definition of local value named '%a'",
        ),
    ],
)
def test_verify_errors_classify(text, category, needle):
    fn = parse_function(text)
    with pytest.raises(MiniVerifyError) as err:
        verify_function(fn)
    assert needle in str(err.value)
    assert classify_error(str(err.value)) is category


def test_verify_rejects_terminator_in_middle():
    text = "define i32 @f() {\nret i32 0\n%x = add i32 1, 2\nret i32 %x\n}"
    with pytest.raises(MiniVerifyError):
        verify_function(parse_function(text))


def test_verify_rejects_missing_terminator():
    text = "define i32 @f(i32 %a) {\nentry:\n%x = add i32 %a, 1\nnext:\nret i32 %x\n}"
    with pytest.raises(MiniVerifyError):
        verify_function(parse_function(text))


def test_verify_rejects_branch_into_entry():
    text = (
        "define i32 @f(i32 %a) {\nentry:\nbr label %loop\n"
        "loop:\nbr label %entry\n}"
    )
    with pytest.raises(MiniVerifyError):
        verify_function(parse_function(text))


def test_verify_dominance_across_blocks():
    # %x is defined in one arm but used in the join: not dominated
    text = (
        "define i32 @f(i32 %a, i32 %b) {\nentry:\n%c = icmp eq i32 %a, %b\n"
        "br i1 %c, label %t, label %j\nt:\n%x = add i32 %a, 1\nbr label %j\n"
        "j:\nret i32 %x\n}"
    )
    with pytest.raises(MiniVerifyError) as err:
        verify_function(parse_function(text))
    assert "does not dominate all uses" in str(err.value)


def test_verify_same_block_use_before_def():
    text = "define i32 @f(i32 %a) {\n%y = add i32 %x, 1\n%x = add i32 %a, 1\nret i32 %y\n}"
    with pytest.raises(MiniVerifyError):
        verify_function(parse_function(text))


def test_unreachable_block_may_use_undominated_values():
    # dominance is only enforced on reachable blocks, like the real verifier
    text = (
        "define i32 @f(i32 %a) {\nentry:\nret i32 %a\n"
        "dead:\n%x = add i32 %x0, 1\nret i32 %x\n}"
    )
    with pytest.raises(MiniVerifyError):
        # %x0 is undefined everywhere: still an error
        verify_function(parse_function(text))


# The line cache: a parse through it equals a parse without it, whatever
# earlier parses or their users did.

CORPUS = generate_corpus(12, seed=37)


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(0, len(CORPUS) - 1),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 4),
)
def test_a_parse_through_a_warm_cache_equals_a_cold_one(backend, index, seed, length):
    ir = CORPUS[index].ir
    if length:
        items = sample_items(random.Random(seed), backend.vocabulary, length)
        ir = compile_items(backend, ir, items).output
    parse_function(ir.text)
    warm = parse_function(ir.text)
    _instr_fields.cache_clear()
    assert parse_function(ir.text) == warm


def test_changing_a_parse_changes_no_later_parse():
    first = parse_function(DIAMOND)
    for instr in first.instructions():
        instr.opcode, instr.result, instr.ty, instr.pred = "mul", "zz", "i64", "ne"
        for name in ("operands", "labels"):
            value = getattr(instr, name)
            try:
                value[:] = ["zz"] * len(value)  # in place, where the value allows
            except TypeError:
                setattr(instr, name, ("zz",) * len(value))
    again = parse_function(DIAMOND)
    _instr_fields.cache_clear()
    assert again == parse_function(DIAMOND) != first


@pytest.mark.parametrize(
    "line, message",
    [
        ("%x = add i32 1.5, %a", "floating point constant invalid for type 'i32'"),
        ("store i32 %a, i64* %p", "'%p' defined with type 'i64*' but expected 'i32*'"),
        ("%x = frob i32 1, 2", "expected instruction opcode, got 'frob'"),
    ],
)
def test_a_malformed_line_fails_alike_on_every_parse(line, message):
    text = f"define i32 @f(i32 %a) {{\n{line}\nret i32 %a\n}}"
    for _ in range(2):
        with pytest.raises(MiniParseError) as err:
            parse_function(text)
        assert str(err.value) == message


def test_the_line_cache_holds_at_most_its_bound():
    _instr_fields.cache_clear()
    body = "\n".join(f"%x{i} = add i32 %a, {i}" for i in range(LINE_CACHE_ENTRIES + 9))
    parse_function(f"define i32 @f(i32 %a) {{\n{body}\nret i32 %a\n}}")
    info = _instr_fields.cache_info()
    assert info.misses == LINE_CACHE_ENTRIES + 10
    assert info.currsize == info.maxsize == LINE_CACHE_ENTRIES
