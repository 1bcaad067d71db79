import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from passtune import ircore
from passtune.ircore import (
    IrFunction,
    MalformedIrError,
    NormalizedIr,
    count_instructions,
    estimate_tokens,
    normalize,
    read_corpus,
)
from passtune.util import read_jsonl, write_records

from oracles import reference_normalize

ROOT = Path(__file__).parent.parent

MESSY = """\
; ModuleID = 'x.c'
source_filename = "x.c"

define i32 @f(i32 %a) #0 {   ; function body
entry:
  %x = add    i32   %a, 1, !dbg !7
  ret i32 %x ; done
}

attributes #0 = { nounwind "frame-pointer"="all" }
!7 = !{!"line 3"}
"""


def test_normalize_strips_comments_metadata_attributes():
    text = normalize(MESSY).text
    assert ";" not in text
    assert "!dbg" not in text and "!7" not in text
    assert "attributes" not in text and "#0" not in text
    assert "  " not in text  # horizontal runs collapsed
    assert text.splitlines()[0] == 'source_filename = "x.c"'


def test_normalize_preserves_string_contents():
    raw = 'source_filename = "a ; b  c"  ; real comment'
    text = normalize(raw).text
    assert text == 'source_filename = "a ; b  c"'


def test_normalize_drops_blank_lines_and_is_idempotent():
    text = normalize(MESSY).text
    assert "" not in text.splitlines()
    assert normalize(text).text == text


@given(
    st.text(
        alphabet=' \t\n;!"abcdefg{}%=,',
        max_size=300,
    )
)
def test_normalize_idempotent_on_arbitrary_text(raw):
    once = normalize(raw).text
    assert normalize(once).text == once


# What normalize treats specially, as whole pieces, plus plain text, plus
# whitespace that str.strip and str.splitlines see and [ \t]+ does not: the
# edge between canonical lines and the others.
IR_PIECES = [
    '"', ";", "#0", "!", ", !dbg !7", "attributes #0",
    " ", "  ", "\t", "\r", "\n", "\x0b", "a", "b", "x",
    "\xa0", "\x0c", "\x85", "\u2028", "\x1c",
]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(IR_PIECES), max_size=40).map("".join))
def test_normalize_matches_the_reference(raw):
    assert normalize(raw) == reference_normalize(raw)


def test_normalize_matches_the_reference_on_the_data_files():
    texts = [
        row["raw_text"]
        for path in sorted(ROOT.glob("perfbench/data/*.jsonl"))
        for _, row in read_jsonl(path)
    ]
    texts += [p.read_text() for p in sorted(ROOT.glob("tests/data/*.ll"))]
    assert len(texts) == 1180 + 11
    for raw in texts:
        assert normalize(raw) == reference_normalize(raw)


def test_count_instructions_excludes_labels_and_header():
    assert count_instructions(normalize(MESSY)) == 2
    multi = normalize(
        """
define i32 @g(i32 %a) {
entry:
  %c = icmp slt i32 %a, 0
  br i1 %c, label %neg, label %pos
neg:
  ret i32 0
pos:
  ret i32 %a
}
"""
    )
    assert count_instructions(multi) == 4


def test_count_instructions_counts_a_switch_once():
    # As opt prints it: one case per line and a closing bracket.
    text = normalize(
        """
define i32 @s(i32 %x) {
entry:
  switch i32 %x, label %d [
    i32 0, label %a
    i32 1, label %b
    i32 2, label %c
  ]
a:
  ret i32 1
b:
  ret i32 2
c:
  ret i32 3
d:
  ret i32 0
}
"""
    )
    assert count_instructions(text) == 5


LANDINGPAD = """
define i32 @g() personality i32 (...)* @__gxx_personality_v0 {
entry:
  invoke void @h()
          to label %ok unwind label %lp
ok:
  ret i32 1
lp:
  %e = landingpad { i8*, i32 }
          cleanup
          catch i8* null
  resume { i8*, i32 } %e
}
"""


def test_count_instructions_counts_a_landingpad_once():
    assert count_instructions(normalize(LANDINGPAD)) == 4
    one_line = LANDINGPAD.replace("\n          ", " ")
    assert count_instructions(normalize(one_line)) == 4


def test_count_instructions_rejects_imbalance():
    with pytest.raises(MalformedIrError):
        count_instructions("define i32 @f() {\nret i32 0\n")
    with pytest.raises(MalformedIrError):
        count_instructions("}")
    with pytest.raises(MalformedIrError):
        count_instructions("define i32 @f() {\ndefine i32 @g() {\n}\n}")


def test_estimate_tokens_exact_ceiling():
    # ceil(n / 2.02), computed in integers: 101 chars is exactly 50 tokens
    assert estimate_tokens("") == 0
    assert estimate_tokens("x") == 1
    assert estimate_tokens("a" * 101) == 50
    assert estimate_tokens("a" * 102) == 51
    assert estimate_tokens("a" * 202) == 100
    assert estimate_tokens("a" * 203) == 101


@given(st.integers(min_value=0, max_value=10_000))
def test_estimate_tokens_matches_rational_ceiling(n):
    want = -((-n * 50) // 101)
    assert estimate_tokens("y" * n) == want


def test_from_raw_requires_exactly_one_define():
    with pytest.raises(MalformedIrError):
        IrFunction.from_raw(id="x", source_dataset="t", raw_text="ret i32 0")
    two = MESSY + "\ndefine i32 @g() {\nret i32 0\n}\n"
    with pytest.raises(MalformedIrError):
        IrFunction.from_raw(id="x", source_dataset="t", raw_text=two)


def test_from_raw_populates_derived_fields():
    fn = IrFunction.from_raw(id="f1", source_dataset="unit", raw_text=MESSY)
    assert fn.instruction_count == 2
    assert fn.normalized_text == normalize(MESSY).text
    assert fn.token_estimate == estimate_tokens(fn.normalized_text)
    fn.validate()


def test_validate_rejects_tampered_fields():
    fn = IrFunction.from_raw(id="f1", source_dataset="unit", raw_text=MESSY)
    broken = IrFunction(
        id=fn.id,
        source_dataset=fn.source_dataset,
        raw_text=fn.raw_text,
        normalized_text=fn.normalized_text,
        instruction_count=fn.instruction_count + 1,
        token_estimate=fn.token_estimate,
    )
    with pytest.raises(ValueError):
        broken.validate()


@pytest.mark.parametrize(
    "field,change,message",
    [
        (
            "normalized_text",
            lambda t: "  " + t,
            "f1: normalized_text is not a fixed point",
        ),
        ("instruction_count", lambda n: n + 1, "f1: instruction_count mismatch"),
        ("token_estimate", lambda n: n - 1, "f1: token_estimate mismatch"),
        (
            "normalized_text",
            lambda t: t + "\n" + t,
            "function 'f1' must contain exactly one definition",
        ),
    ],
)
def test_validate_names_the_rule_a_row_breaks(field, change, message):
    fn = IrFunction.from_raw(id="f1", source_dataset="unit", raw_text=MESSY)
    broken = replace(fn, **{field: change(getattr(fn, field))})
    with pytest.raises(ValueError) as err:
        broken.validate()
    assert str(err.value) == message


def test_read_corpus_rejects_text_that_is_not_normalized(tmp_path, corpus20):
    row = asdict(corpus20[0])
    row["normalized_text"] = row["normalized_text"].replace("\n", "\n  ", 1)
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="not a fixed point"):
        read_corpus(path)


def test_read_corpus_rejects_an_empty_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError) as err:
        read_corpus(path)
    assert str(err.value) == f"corpus {path} is empty"


def test_read_corpus_normalizes_each_row_once(tmp_path, corpus20, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    write_records(corpus20, path)
    calls = []

    def counting(raw):
        calls.append(raw)
        return normalize(raw)

    monkeypatch.setattr(ircore, "normalize", counting)
    assert read_corpus(path) == corpus20
    assert calls == [fn.normalized_text for fn in corpus20]


def test_corpus_round_trip(tmp_path, corpus20):
    path = tmp_path / "corpus.jsonl"
    assert write_records(corpus20, path) == len(corpus20)
    again = read_corpus(path)
    assert again == corpus20
    # plain JSON lines, one object per function
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {row["id"] for row in rows} == {fn.id for fn in corpus20}


def test_normalized_ir_is_value_like():
    a = NormalizedIr("ret i32 0")
    assert a.text == "ret i32 0"
    assert a == NormalizedIr("ret i32 0")
