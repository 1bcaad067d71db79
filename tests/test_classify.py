import hashlib
import json

import pytest

from passtune.backend.classify import (
    _TABLE,
    ErrorCategory,
    IrDiagnostic,
    classify_error,
    diagnostic_from_message,
)

CASES = [
    ("error: expected instruction opcode", ErrorCategory.SYNTAX_ERROR),
    ("error: unterminated string constant", ErrorCategory.SYNTAX_ERROR),
    ("'%a' defined with type 'i32' but expected 'i1'", ErrorCategory.TYPE_ERROR),
    ("store operand and pointer type mismatch", ErrorCategory.TYPE_ERROR),
    ("error: use of undefined value '%x'", ErrorCategory.UNDEFINED_VALUE),
    (
        "error: forward reference to undefined label '%later'",
        ErrorCategory.FORWARD_REFERENCE,
    ),
    (
        "error: multiple definition of local value named '%x'",
        ErrorCategory.INVALID_REDEFINITION,
    ),
    ("error: redefinition of label 'entry'", ErrorCategory.INVALID_REDEFINITION),
    (
        "error: floating point constant invalid for type 'i32'",
        ErrorCategory.INVALID_CONSTANT,
    ),
    ("error: integer constant too large", ErrorCategory.INVALID_CONSTANT),
    ("error: undefined function '@memcpy'", ErrorCategory.UNDEFINED_FUNCTION),
    ("error: invalid indices for getelementptr", ErrorCategory.INDEX_ERROR),
    ("opt: LLVM ERROR: out of memory", ErrorCategory.OTHER),
    ("", ErrorCategory.OTHER),
]


@pytest.mark.parametrize("message, category", CASES)
def test_classify_examples(message, category):
    assert classify_error(message) is category


def test_classification_is_case_insensitive():
    assert classify_error("USE OF UNDEFINED VALUE '%X'") is ErrorCategory.UNDEFINED_VALUE


def test_constant_diagnostics_win_over_type_patterns():
    # contains "invalid for type", but the constant wording is decisive
    msg = "floating point constant invalid for type 'i64'"
    assert classify_error(msg) is ErrorCategory.INVALID_CONSTANT


def test_type_diagnostics_win_over_syntax_patterns():
    # contains "expected", but the type wording is decisive
    msg = "'%v' defined with type 'i64' but expected 'i32'"
    assert classify_error(msg) is ErrorCategory.TYPE_ERROR


def test_diagnostic_keeps_raw_message():
    diag = diagnostic_from_message("error: use of undefined value '%q'")
    assert diag == IrDiagnostic(
        ErrorCategory.UNDEFINED_VALUE, "error: use of undefined value '%q'"
    )


def test_nine_categories():
    assert len(ErrorCategory) == 9
    assert {c.value for c in ErrorCategory} == {
        "type_error",
        "forward_reference",
        "undefined_value",
        "invalid_redefinition",
        "syntax_error",
        "invalid_constant",
        "undefined_function",
        "index_error",
        "other",
    }


def test_the_table_reads_as_it_did_through_importlib_resources():
    text = json.dumps([(category.value, patterns) for category, patterns in _TABLE])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a3af9a21158b307789073e20e4f77c717a3853cff555b305fbbe726e5e799c01"
    )
