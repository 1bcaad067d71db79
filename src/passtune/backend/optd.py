"""Build and run ``optd``, a long-lived ``opt -S -enable-new-pm=0``.

``optd.cpp``, next to this file, runs LLVM 14's legacy passes by name the
way ``opt`` does, one compile per request, and stays up between requests.
Checked against LLVM 14 only, it is built only for an ``opt`` of LLVM 14:
once, with g++, against the ``llvm-config`` beside ``opt``, else on PATH.
It links LLVM's static archives of :data:`LLVM_COMPONENTS` into a non-PIE
executable, since a shared ``libLLVM`` costs each server the 7.4 MiB of
its ``.data.rel.ro``, which the server relocates, and so writes, when it
starts. Where ``llvm-config --link-static`` fails, as on an install with
only the shared library, it links that library as ``opt`` does. The
binary is cached under ``${XDG_CACHE_HOME:-~/.cache}/passtune/`` (or the
temporary directory if that is not writable), keyed by the sha256 of the
source, ``llvm-config --version``, ``opt --version``, the components and
the link mode. That cache is the only one: a build runs in its own
temporary directory and renames the binary into place, so builds that
race each other are safe.

The same directory keeps the answers of the start-up queries
(``opt --help-hidden``, ``opt --version``, ``llvm-config --version`` and
the static link flags): :func:`cached_run` keys each on the executable's
resolved path, device, inode, size and modification time, and on its
arguments, so a subcommand on a warm cache starts no process before its
first compile. An install without LLVM's archives is the exception: a
query that fails is not kept, so there each subcommand asks
``llvm-config --link-static`` again.

A :class:`ServerPool` keeps one server per process, keyed by its pid and
started by its first compile, so a forked worker never writes to its
parent's server. A compile that hits its time limit kills its server; a
server that dies costs only the compile it was running, and the next
compile replaces it. Servers exit when their standard input closes: a
``weakref.finalize`` closes it and reaps the server when the pool is
dropped, when Python exits, or when a forked worker does (see
:func:`passtune.util.at_worker_exit`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import select
import shlex
import shutil
import subprocess
import tempfile
import time
import weakref
from pathlib import Path
from typing import Callable, Optional

from passtune.backend import BackendUnavailableError
from passtune.util import DEFAULT_TIMEOUT_SECONDS, at_worker_exit

SOURCE = Path(__file__).with_name("optd.cpp")

_PRINTED = 0  # optd.cpp's reply status for a printed module; 1 is a failure
# g++ takes seconds on this source; a build that takes this long is stuck.
_BUILD_SECONDS = 600.0
# How long a server that was asked to stop may take to exit.
_STOP_SECONDS = 5.0
# The LLVM libraries optd links statically: those whose passes optd.cpp
# registers (its initialize* calls), and every target, for
# initializeTargetsOnce. They are named because a bare
# `llvm-config --link-static --libs` names Polly too, of which Debian's
# LLVM 14 ships no archive, so that link fails.
LLVM_COMPONENTS = (
    "core", "coroutines", "scalaropts", "objcarcopts", "vectorize", "ipo",
    "analysis", "transformutils", "instcombine", "aggressiveinstcombine",
    "instrumentation", "target", "codegen", "irreader", "asmparser", "all-targets",
)


class OptdUnavailable(RuntimeError):
    """optd cannot be built here; the message says why."""


def find_llvm_config(opt_path: str) -> Optional[str]:
    """The ``llvm-config`` beside ``opt_path`` (links resolved), else on PATH."""
    beside = Path(os.path.realpath(opt_path)).with_name("llvm-config")
    return str(beside) if os.access(beside, os.X_OK) else shutil.which("llvm-config")


def server_binary(opt_path: str, opt_version: str) -> str:
    """The optd built for ``opt_path`` (whose ``--version`` is ``opt_version``),
    from the cache or built now; raises :class:`OptdUnavailable`."""
    gxx = shutil.which("g++")
    if gxx is None:
        raise OptdUnavailable("no g++ on PATH")
    opt_llvm = llvm_version_of(opt_version)
    if not (opt_llvm or "").startswith("14."):
        raise OptdUnavailable(f"optd runs LLVM 14 only; opt is LLVM {opt_llvm}")
    config = find_llvm_config(opt_path)
    if config is None:
        raise OptdUnavailable("no llvm-config beside opt or on PATH")

    def run(command: list[str], check: bool = True) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                command,
                capture_output=True,
                text=True,
                check=check,
                timeout=DEFAULT_TIMEOUT_SECONDS,
            )
        except (OSError, subprocess.SubprocessError) as err:
            raise OptdUnavailable(f"{' '.join(command)} failed: {err}") from err

    def query(option: str) -> str:
        return run([config, option]).stdout.strip()

    llvm_version = cached_run([config, "--version"], run).stdout.strip()
    if opt_llvm != llvm_version:
        raise OptdUnavailable(
            f"opt is LLVM {opt_llvm} but {config} is LLVM {llvm_version}"
        )
    try:
        source = SOURCE.read_bytes()
    except OSError as err:
        raise OptdUnavailable(f"cannot read {SOURCE}: {err}") from err
    static = cached_run(
        [config, "--link-static", "--libs", *LLVM_COMPONENTS, "--system-libs"],
        lambda command: run(command, check=False),
    )
    mode = "static" if static.returncode == 0 else "shared"
    named = (llvm_version, opt_version, " ".join(LLVM_COMPONENTS), mode)
    key = hashlib.sha256(b"\0".join([source, *map(str.encode, named)])).hexdigest()
    cache = _cache_dir()
    target = cache / f"optd-{key[:16]}"
    if os.access(target, os.X_OK):
        return str(target)
    if mode == "static":
        libs = [*shlex.split(static.stdout), "-no-pie"]
    else:  # only the shared library: link it as opt does
        libs = [*shlex.split(query("--libs")), f"-Wl,-rpath,{query('--libdir')}"]
    flags = [query(option) for option in ("--cxxflags", "--ldflags")]
    try:
        # Built apart and renamed into place, so no process runs half a file.
        with tempfile.TemporaryDirectory(dir=cache, prefix=".optd-") as scratch:
            partial = os.path.join(scratch, "optd")
            cmd = [gxx, *shlex.split(flags[0]), "-O2", str(SOURCE), "-o", partial]
            cmd += [*shlex.split(flags[1]), *libs]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=_BUILD_SECONDS
            )
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
                raise OptdUnavailable(f"g++ could not build optd: {lines[-1]}")
            os.replace(partial, target)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise OptdUnavailable(f"g++ could not build optd: {err}") from err
    return str(target)


def llvm_version_of(version_text: str) -> Optional[str]:
    """The version number in ``opt --version`` text, e.g. ``14.0.6``."""
    words = version_text.split()
    for word, following in zip(words, words[1:]):
        if word == "version" and following[:1].isdigit():
            return following
    return None


def _cache_dir() -> Path:
    """The first of the user's cache and a private temporary directory we can write."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    private = Path(tempfile.gettempdir(), f"passtune-{os.getuid()}")
    for candidate in (Path(base, "passtune"), private):
        try:
            candidate.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if candidate.stat().st_uid == os.getuid() and os.access(candidate, os.W_OK):
            return candidate
    raise OptdUnavailable(f"no writable cache directory for optd (tried {base})")


def cached_run(
    command: list[str], run: Callable[[list[str]], subprocess.CompletedProcess]
) -> subprocess.CompletedProcess:
    """``run(command)``, or the answer that the same executable gave before.

    An answer is reused while the file at the executable's resolved path
    keeps its device, inode, size and modification time. Only an answer
    that exited 0 is kept, and only its standard output. A cache that
    cannot be read or written just means ``run`` runs.
    """
    try:
        path = os.path.realpath(command[0])
        st = os.stat(path)
        key = [path, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, *command[1:]]
        digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()
        entry = _cache_dir() / f"query-{digest[:16]}.json"
    except (OSError, OptdUnavailable):
        return run(command)
    try:
        stored = json.loads(entry.read_text(encoding="utf-8"))
        if stored["key"] == key and isinstance(stored["stdout"], str):
            return subprocess.CompletedProcess(command, 0, stored["stdout"], "")
    except (OSError, ValueError, TypeError, KeyError):
        pass  # missing or corrupt: ask again, and store the new answer
    proc = run(command)
    if proc.returncode != 0:
        return proc
    try:  # written apart and renamed into place, as the binary is
        fd, partial = tempfile.mkstemp(dir=entry.parent, prefix=".query-")
    except OSError:
        return proc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"key": key, "stdout": proc.stdout}, fh)
        os.replace(partial, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(partial)
    return proc


class _ServerDied(Exception):
    """The server exited during a compile."""


def _stop(proc: subprocess.Popen, stderr) -> None:
    """Close ``proc``'s input, so that it exits, and reap it."""
    try:
        proc.stdin.close()
    except OSError:  # a dead server's pipe
        pass
    try:
        proc.wait(timeout=_STOP_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    stderr.close()


class _Server:
    """One optd process; only the process that started it talks to it."""

    def __init__(self, command: list[str]) -> None:
        self._stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
        except OSError as err:
            self._stderr.close()
            raise BackendUnavailableError(f"cannot start {command[0]}: {err}") from err
        self.close = weakref.finalize(self, _stop, self.proc, self._stderr)
        self._stderr_mark = 0  # where the current request's stderr starts

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def exchange(self, request: bytes, timeout: float) -> tuple[int, bytes]:
        """(status, body) of one request; raises TimeoutExpired or _ServerDied."""
        deadline = time.monotonic() + timeout
        self._stderr_mark = self._stderr.seek(0, os.SEEK_END)
        try:
            self.proc.stdin.write(request)
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise _ServerDied from None
        reply = bytearray()
        while b"\n" not in reply:
            reply += self._read(deadline, timeout)
        head, _, body = bytes(reply).partition(b"\n")
        status, size = map(int, head.split())
        reply = bytearray(body)
        while len(reply) < size:
            reply += self._read(deadline, timeout)
        return status, bytes(reply)

    def _read(self, deadline: float, timeout: float) -> bytes:
        fd = self.proc.stdout.fileno()
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise subprocess.TimeoutExpired(self.proc.args, timeout)
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            raise _ServerDied
        return chunk

    def last_stderr(self) -> str:
        """What the server wrote to standard error during the last request."""
        self._stderr.seek(self._stderr_mark)
        return self._stderr.read().decode("utf-8", errors="replace")


class ServerPool:
    """The optd server of each process that compiles, at most one each."""

    def __init__(self, binary: str, opt_path: str) -> None:
        self._command = [binary, opt_path]
        self._servers: dict[int, _Server] = {}  # by the pid that started it

    def _server(self) -> _Server:
        """This process's live server, started now if it has none."""
        pid = os.getpid()
        server = self._servers.get(pid)
        if server is not None:
            if server.proc.poll() is None:
                return server
            server.close()  # killed at its time limit, or died: reap it
        server = self._servers[pid] = _Server(self._command)
        at_worker_exit(server.close)
        return server

    def compile(
        self, items: tuple[str, ...], text: str, timeout: float
    ) -> tuple[bool, str]:
        """(True, output) or (False, what opt would print) for ``items`` on ``text``.

        A repeated ``-O`` level or a flag that is not a pass fails with a line
        naming it. A compile past ``timeout`` seconds kills its server and
        raises ``subprocess.TimeoutExpired``.
        """
        server = self._server()
        data = text.encode()
        request = f"{len(data)} {' '.join(items)}\n".encode() + data
        try:
            status, body = server.exchange(request, timeout)
        except subprocess.TimeoutExpired:
            server.kill()
            raise
        except _ServerDied:
            message = server.last_stderr().strip()
            server.close()
            return False, message or f"exit code {server.proc.returncode}"
        if status == _PRINTED:
            return True, body.decode()
        return False, body.decode().strip() or "exit code 1"
