"""Build and run ``optd``, a long-lived ``opt -S -enable-new-pm=0``.

``optd.cpp``, next to this file, runs LLVM 14's legacy passes by name the
way ``opt`` does, one compile per request, and stays up between requests.
Checked against LLVM 14 only, it is built only for an ``opt`` of LLVM 14:
once, with g++, against the ``llvm-config`` beside ``opt``, else on PATH.
It links LLVM's static archives of :data:`LLVM_COMPONENTS` into a non-PIE
executable, since a shared ``libLLVM`` costs each server the 7.4 MiB of
its ``.data.rel.ro``, which the server relocates, and so writes, when it
starts. Of LLVM's targets it links the host's alone, which keeps each
server about 10 MB smaller: a module whose triple names another target
fails, with a line naming the triple, where ``opt`` would compile it.
Where ``llvm-config --link-static`` fails, as on an install without
LLVM's static archives, optd is not built: :class:`OptdUnavailable`
names ``--link-static`` and the archives it lacks, and the backend runs
one ``opt`` per compile. The binary is cached under
``${XDG_CACHE_HOME:-~/.cache}/passtune/`` (or the temporary directory if
that is not writable), keyed by the sha256 of the source,
``llvm-config --version``, ``opt --version``, the components and the
word ``static``, the one link there is. That cache is the only one: a
build runs in its own temporary directory and renames the binary into
place, so builds that race each other are safe. A build then removes the
other binaries, and the directories of builds that were killed, that are
a week old; a binary taken from the cache is touched, so one in use
stays.

Every start-up question passtune asks ``opt`` and ``llvm-config``
(``opt --help-hidden`` and ``--version``; ``llvm-config --version``,
``--link-static``, ``--cxxflags`` and ``--ldflags``) goes through
:func:`query`, which keeps the answers in the same directory, keyed on
the executable's resolved path, device, inode, size and modification
time, and on its arguments, so a subcommand on a warm cache starts no
process before its first compile. A question that fails raises the
caller's error and is not kept, so on an install without LLVM's
archives each subcommand asks ``llvm-config --link-static`` again.

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
from typing import Optional

from passtune.backend import BackendUnavailableError
from passtune.util import DEFAULT_TIMEOUT_SECONDS, at_worker_exit

SOURCE = Path(__file__).with_name("optd.cpp")

_PRINTED = 0  # optd.cpp's reply status for a printed module; 1 is a failure
# g++ takes seconds on this source; a build that takes this long is stuck.
_BUILD_SECONDS = 600.0
# How long a server that was asked to stop may take to exit.
_STOP_SECONDS = 5.0
# A build removes the other binaries and build directories in the cache
# that nothing has used or written for this long.
_STALE_SECONDS = 7 * 24 * 3600.0
# The LLVM libraries optd links statically: those whose passes optd.cpp
# registers (its initialize* calls), and the host target, for
# initializeTargetsOnce. They are named because a bare
# `llvm-config --link-static --libs` names Polly too, of which Debian's
# LLVM 14 ships no archive, so that link fails.
LLVM_COMPONENTS = (
    "core", "coroutines", "scalaropts", "objcarcopts", "vectorize", "ipo",
    "analysis", "transformutils", "instcombine", "aggressiveinstcombine",
    "instrumentation", "target", "codegen", "irreader", "asmparser", "native",
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
    opt_llvm = llvm_version_of(opt_version)
    if not (opt_llvm or "").startswith("14."):
        said = f"is LLVM {opt_llvm}" if opt_llvm else "--version names no LLVM version"
        raise OptdUnavailable(f"optd runs LLVM 14 only; opt {said}")
    gxx = shutil.which("g++")
    if gxx is None:
        raise OptdUnavailable("no g++ on PATH")
    config = find_llvm_config(opt_path)
    if config is None:
        raise OptdUnavailable("no llvm-config beside opt or on PATH")
    llvm_version = query([config, "--version"], OptdUnavailable).strip()
    if opt_llvm != llvm_version:
        raise OptdUnavailable(
            f"opt is LLVM {opt_llvm} but {config} is LLVM {llvm_version}"
        )
    try:
        source = SOURCE.read_bytes()
    except OSError as err:
        raise OptdUnavailable(f"cannot read {SOURCE}: {err}") from err
    # Fails, naming each archive it lacks, on an install without them.
    static = query(
        [config, "--link-static", "--libs", *LLVM_COMPONENTS, "--system-libs"],
        OptdUnavailable,
    )
    named = (llvm_version, opt_version, " ".join(LLVM_COMPONENTS), "static")
    key = hashlib.sha256(b"\0".join([source, *map(str.encode, named)])).hexdigest()
    cache = _cache_dir()
    target = cache / f"optd-{key[:16]}"
    if os.access(target, os.X_OK):
        with contextlib.suppress(OSError):
            os.utime(target)  # in use, so never stale
        return str(target)
    cxxflags = query([config, "--cxxflags"], OptdUnavailable)
    ldflags = query([config, "--ldflags"], OptdUnavailable)
    try:
        # Built apart and renamed into place, so no process runs half a file.
        with tempfile.TemporaryDirectory(dir=cache, prefix=".optd-") as scratch:
            partial = os.path.join(scratch, "optd")
            cmd = [gxx, *shlex.split(cxxflags), "-O2", str(SOURCE), "-o", partial]
            cmd += [*shlex.split(ldflags), *shlex.split(static), "-no-pie"]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=_BUILD_SECONDS
            )
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
                raise OptdUnavailable(f"g++ could not build optd: {lines[-1]}")
            os.replace(partial, target)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise OptdUnavailable(f"g++ could not build optd: {err}") from err
    _remove_stale(cache, target)
    return str(target)


def _remove_stale(cache: Path, built: Path) -> None:
    """Remove the optd binaries but ``built``, and the directories of builds
    that were killed, that have not been touched for :data:`_STALE_SECONDS`."""
    cutoff = time.time() - _STALE_SECONDS
    with contextlib.suppress(OSError):
        for entry in cache.iterdir():
            if entry == built or not entry.name.startswith(("optd-", ".optd-")):
                continue
            with contextlib.suppress(OSError):
                if entry.lstat().st_mtime >= cutoff:
                    continue
                if entry.is_dir() and not entry.is_symlink():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()


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


def query(command: list[str], fail: type[Exception]) -> str:
    """The standard output of ``command``, asked once per executable file.

    The answer is kept in the cache directory and reused while the file at
    the executable's resolved path keeps its device, inode, size and
    modification time. A cache that cannot be read or written only means
    the command runs again. It runs under :data:`DEFAULT_TIMEOUT_SECONDS`;
    one that cannot start, runs past that or exits non-zero raises
    ``fail`` with one line, ``<exe> <option> failed: <why>``, and nothing
    is kept.
    """
    entry = None
    try:
        path = os.path.realpath(command[0])
        st = os.stat(path)
        key = [path, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, *command[1:]]
        digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()
        entry = _cache_dir() / f"query-{digest[:16]}.json"
        stored = json.loads(entry.read_text(encoding="utf-8"))
        if stored["key"] == key and isinstance(stored["stdout"], str):
            return stored["stdout"]
    except (OSError, OptdUnavailable, ValueError, TypeError, KeyError):
        pass  # no cache, or no answer in it (or a corrupt one): ask
    asked = " ".join(command[:2])
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=DEFAULT_TIMEOUT_SECONDS
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        raise fail(f"{asked} failed: {err}") from err
    if proc.returncode != 0:
        said = "; ".join(proc.stderr.strip().splitlines())
        raise fail(f"{asked} failed: {said or f'exit {proc.returncode}'}")
    if entry is None:
        return proc.stdout
    try:  # written apart and renamed into place, as the binary is
        fd, partial = tempfile.mkstemp(dir=entry.parent, prefix=".query-")
    except OSError:
        return proc.stdout
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"key": key, "stdout": proc.stdout}, fh)
        os.replace(partial, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(partial)
    return proc.stdout


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

        A repeated ``-O`` level, a flag that is not a pass, or a target triple
        of a target the server does not link fails with a line naming it. A
        compile past ``timeout`` seconds kills its server and
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
