"""Small shared helpers: seeding, time limits, the usable CPUs, the compile
pool (workers on forked processes), JSON Lines IO, file digests, and the
defaults that the command line's help shows, so that building the parser
loads no stage module."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
import types
import typing
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Iterable,
    Iterator,
    NoReturn,
    Optional,
    TypeVar,
)

_T = TypeVar("_T")
_R = TypeVar("_R")
DEFAULT_TIMEOUT_SECONDS = 60.0
DEFAULT_MAX_LEN = 12  # the longest pass list the tuner samples
DEFAULT_WALL_CLOCK_SECONDS = 780.0  # the tuner's search time per function


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


def worker_count(workers: int) -> int:
    """``workers`` if it is at least 1, else a ValueError."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers_run_as(workers: int) -> str:
    """What :func:`map_in_order` runs ``workers`` workers as, at this moment:
    ``"inline"`` or ``"forked processes"``."""
    if workers < 2 or threading.active_count() > 1:
        return "inline"
    return "forked processes"


def map_in_order(fn: Callable[[_T], _R], items: Iterable[_T], workers: int) -> list[_R]:
    """``[fn(item) for item in items]``, run by ``workers`` workers at once.

    Every stage that compiles item by item maps through here. Results come
    back in input order whatever order they finish in, and the first
    exception in input order is raised, so the output does not depend on
    ``workers``. One worker, or fewer than two items, runs here, inline.

    The workers are forked processes (see :func:`_map_on_forks`), so they
    overlap a backend's Python code and its waits on other processes
    alike. A process with other threads alive is never forked: it runs
    the items inline, in the calling thread.
    """
    items = list(items)
    workers = min(worker_count(workers), len(items))
    if workers_run_as(workers) == "inline":
        return [fn(item) for item in items]
    return _map_on_forks(fn, items, workers)


# What a forked worker runs before it exits; None in any other process.
_exit_hooks: Optional[list[Callable[[], Any]]] = None


def at_worker_exit(hook: Callable[[], Any]) -> None:
    """Run ``hook`` when this forked worker of :func:`map_in_order` exits,
    which it does by ``os._exit``, running no finalizer or ``atexit`` hook;
    in any other process, do nothing."""
    if _exit_hooks is not None:
        _exit_hooks.append(hook)


class WorkerError(RuntimeError):
    """A forked worker failed; its message is the worker's own traceback, or
    says why no reply came."""


def _map_on_forks(fn: Callable[[_T], _R], items: list[_T], workers: int) -> list[_R]:
    """:func:`map_in_order` on ``workers`` forked processes.

    Worker *k* inherits ``fn`` and ``items``, maps items *k*, *k* +
    ``workers``, and so on, in order, up to its first exception, and sends
    back one pickled list of ``(index, ok, value)`` through a pipe. So the
    lowest index that failed in any worker is the first exception in input
    order, and every item before it has a result. A worker that exits
    without a reply fails at its first item. Every worker is reaped before
    this returns or raises; on an error here (an interrupt, say) the
    workers still running are killed first.
    """
    import pickle
    import signal

    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for first in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    indices = range(first, len(items), workers)
                    _serve(fn, items, indices, write_end, pipes)
            finally:
                os.close(write_end)
            pids.append(pid)
        failures: list[tuple[int, BaseException, str]] = []
        results: dict[int, Any] = {}
        for first, pipe in enumerate(pipes):
            reply = pipe.read()
            _, status = os.waitpid(pids[first], 0)
            pids[first] = 0
            try:
                replies = pickle.loads(reply)
            except Exception as err:  # none (the worker died), cut or unreadable
                code = os.waitstatus_to_exitcode(status)
                why = f"worker {first} (exit status {code}) sent no usable reply: {err!r}"
                failures.append((first, WorkerError(why), ""))
                continue
            for index, ok, value in replies:
                if ok:
                    results[index] = value
                else:
                    failures.append((index, *value))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failures:
        _, error, trace = min(failures, key=lambda failure: failure[0])
        raise error from (WorkerError(trace) if trace else None)
    return [results[index] for index in range(len(items))]


def _serve(
    fn: Callable[[_T], _R],
    items: list[_T],
    indices: range,
    write_end: int,
    inherited: list[BinaryIO],
) -> NoReturn:
    """A forked worker: map ``items`` at ``indices``, reply, run the hooks
    registered by :func:`at_worker_exit`, and exit."""
    global _exit_hooks
    _exit_hooks = []
    status = 1
    try:
        import pickle

        for pipe in inherited:  # the parent's ends of the pipes
            pipe.close()
        replies: list[tuple[int, bool, Any]] = []
        for index in indices:
            try:
                replies.append((index, True, fn(items[index])))
            except BaseException as err:  # the parent raises it
                import traceback

                replies.append((index, False, (err, traceback.format_exc())))
                break
        try:
            reply = pickle.dumps(replies)
        except Exception as err:
            why = WorkerError(f"cannot send the results of items {indices}: {err!r}")
            reply = pickle.dumps([(indices[0], False, (why, ""))])
        with open(write_end, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        try:
            for hook in _exit_hooks:
                hook()
        finally:
            os._exit(status)


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
    """Write dataclass records as JSON Lines; returns the number written.

    Records are flat: every field holds a JSON scalar (str, int, bool or
    None), so each row is read off the record's fields as they are.
    """
    return write_jsonl(
        ({f.name: getattr(r, f.name) for f in dataclasses.fields(r)} for r in records),
        path,
    )


def _json_types(hint: Any) -> frozenset[type]:
    """The types of the JSON values that fit a field's type: each member of
    a union, flattened. JSON true is a bool, so it fits only a bool field."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return frozenset().union(*map(_json_types, typing.get_args(hint)))
    return frozenset({hint})


def read_records(
    cls: type[_T], path: str | Path, check: Optional[Callable[[_T], None]] = None
) -> list[_T]:
    """Read JSON Lines written by :func:`write_records` back into ``cls``.

    Records are flat: each field holds a JSON scalar (str, int, bool or
    None). A row that is not a JSON object, lacks a field without a
    default, has a field ``cls`` does not know, holds a value of the wrong
    JSON type, or fails the record's own checks or ``check`` is a
    ValueError naming ``path:line``.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    accepts = {f.name: _json_types(hints[f.name]) for f in fields}
    out = []
    for where, row in read_jsonl(path):
        missing = sorted(required - row.keys())
        if missing:
            raise ValueError(f"{where}: missing field(s) {', '.join(missing)}")
        unknown = sorted(row.keys() - accepts.keys())
        if unknown:
            raise ValueError(f"{where}: unknown field(s) {', '.join(unknown)}")
        for name, value in row.items():
            if type(value) not in accepts[name]:
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
