"""Small shared helpers: seeding, time limits, JSON Lines IO, file digests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

_T = TypeVar("_T")
DEFAULT_TIMEOUT_SECONDS = 60.0


def stable_seed(seed: int, tag: str) -> int:
    """Deterministic per-item seed derived from a run seed and a tag.

    Independent of process hash randomization and of the order items are
    visited in, so parallel and serial runs agree.
    """
    digest = hashlib.sha256(f"{seed}\x1f{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def positive_seconds(seconds: float, what: str) -> float:
    """``seconds`` if it is positive and finite (NaN is not), else a ValueError."""
    if not seconds > 0:
        raise ValueError(f"{what} must be positive, got {seconds}")
    if seconds == math.inf:
        raise ValueError(f"{what} must be finite, got {seconds}")
    return seconds


def write_jsonl(rows: Iterable[dict[str, Any]], path: str | Path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``("path:line", object)`` for every non-blank line.

    A line that is not UTF-8 text or not a JSON object is a ValueError
    naming its place.
    """
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            where = f"{path}:{number}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{where}: not UTF-8 text") from None
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{where}: not JSON: {err}") from None
            if not isinstance(row, dict):
                raise ValueError(f"{where}: expected a JSON object")
            yield where, row


def write_records(records: Iterable[Any], path: str | Path) -> int:
    """Write dataclass records as JSON Lines; returns the number written."""
    return write_jsonl((dataclasses.asdict(r) for r in records), path)


def _has_type(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits a field's type (JSON true is not an int)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if hint is int and isinstance(value, bool):
        return False
    return isinstance(value, hint)


def read_records(
    cls: type[_T], path: str | Path, check: Optional[Callable[[_T], None]] = None
) -> list[_T]:
    """Read JSON Lines written by :func:`write_records` back into ``cls``.

    A row that is not a JSON object, lacks a field without a default,
    has a field ``cls`` does not know, holds a value of the wrong JSON
    type, or fails the record's own checks or ``check`` is a ValueError
    naming ``path:line``.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    known = {f.name for f in fields}
    out = []
    for where, row in read_jsonl(path):
        missing = sorted(required - row.keys())
        if missing:
            raise ValueError(f"{where}: missing field(s) {', '.join(missing)}")
        unknown = sorted(row.keys() - known)
        if unknown:
            raise ValueError(f"{where}: unknown field(s) {', '.join(unknown)}")
        for name, value in row.items():
            if not _has_type(value, hints[name]):
                raise ValueError(
                    f"{where}: field {name} has the wrong type: {json.dumps(value)}"
                )
        try:
            out.append(cls(**row))
            if check is not None:
                check(out[-1])
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return out


def unique_ids(key: Callable[[_T], str]) -> Callable[[_T], None]:
    """A ``check`` for :func:`read_records` that rejects a repeated id.

    ``key`` gives a record's function id; every stage keys on it, so a
    second record with the same id is a ValueError.
    """
    seen: set[str] = set()

    def check(record: _T) -> None:
        fid = key(record)
        if fid in seen:
            raise ValueError(f"repeated function id {fid!r}")
        seen.add(fid)

    return check


def file_digest(path: str | Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()
