"""Failure-diagnostic taxonomy shared by all backends.

Nine categories cover the ways a compile can fail on model-written or
mutated IR. Classification is a first-match scan over an ordered
substring table (``data/error_patterns.json``); anything unmatched is
``other``. Table order matters twice over: constant diagnostics like
``floating point constant invalid for type`` contain ``invalid for
type``, so the constant patterns precede the type ones; and type
diagnostics like ``defined with type 'i32' but expected 'i1'`` contain
``expected``, so type patterns precede the generic syntax ones.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path


class ErrorCategory(enum.Enum):
    TYPE_ERROR = "type_error"
    FORWARD_REFERENCE = "forward_reference"
    UNDEFINED_VALUE = "undefined_value"
    INVALID_REDEFINITION = "invalid_redefinition"
    SYNTAX_ERROR = "syntax_error"
    INVALID_CONSTANT = "invalid_constant"
    UNDEFINED_FUNCTION = "undefined_function"
    INDEX_ERROR = "index_error"
    OTHER = "other"


@dataclass(frozen=True)
class IrDiagnostic:
    """A classified compile failure; ``message`` keeps the raw text."""

    category: ErrorCategory
    message: str


def _load_table() -> list[tuple[ErrorCategory, tuple[str, ...]]]:
    path = Path(__file__).with_name("data") / "error_patterns.json"
    text = path.read_text(encoding="utf-8")
    table = []
    for entry in json.loads(text):
        table.append(
            (ErrorCategory(entry["category"]), tuple(entry["patterns"]))
        )
    return table


_TABLE = _load_table()


def classify_error(message: str) -> ErrorCategory:
    """Map a compiler diagnostic to its category (case-insensitive)."""
    lowered = message.lower()
    for category, patterns in _TABLE:
        for pattern in patterns:
            if pattern.lower() in lowered:
                return category
    return ErrorCategory.OTHER


def diagnostic_from_message(message: str) -> IrDiagnostic:
    return IrDiagnostic(classify_error(message), message)
