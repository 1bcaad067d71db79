"""Backend that compiles with LLVM's ``opt``.

A compile is ``opt -S <flags...>`` on the IR, read from standard input,
so the output names its source ``<stdin>``. The vocabulary is LLVM 10's
legacy pass flags, so wherever ``opt --help-hidden`` lists
``-enable-new-pm`` (LLVM 13 and later, whose default pass manager is the
new one) the backend adds ``-enable-new-pm=0`` itself, unless the extra
arguments already set that switch. A compile runs in one of two ways:

- ``opt-server``: the compile is a request to ``optd`` (see ``optd.py``),
  a long-lived process that runs LLVM 14's legacy passes by name exactly
  as ``opt -enable-new-pm=0`` does, without starting a process each time.
  This is the path when optd builds, no extra argument but that switch is
  given and ``opt`` is the LLVM 14 that ``llvm-config`` names.
- ``opt``: the reference, one ``opt`` process per compile, where optd cannot run.

The path is chosen when the backend is built, and every compile takes it:
its attribute :attr:`LlvmBackend.compile_path` says which one, and why not
the server when it is not. Either way the output is re-normalized. A
failure, unparseable output and a time-limit hit each become a classified
failure outcome, so a crash or hang costs one failed compilation and
nothing more.

The executable is found via the constructor argument, the
``PASSTUNE_OPT`` environment variable, or ``opt`` on PATH, in that
order. Extra fixed arguments can be supplied with ``extra_args``. The
vocabulary keeps only the flags that ``opt --help-hidden`` lists (see
:func:`listed_vocabulary`), so a flag the installed ``opt`` does not know
is never sampled; the dropped flags are logged as one warning. That
listing and ``opt --version`` are read once per ``opt`` file and kept
beside optd's binary (see :func:`~passtune.backend.optd.cached_run`), so
on a warm cache a backend starts no process before its first compile.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import subprocess
from typing import Callable, Optional, Sequence

from passtune.backend import BackendUnavailableError, CompileOutcome
from passtune.backend.classify import diagnostic_from_message
from passtune.backend.optd import (
    OptdUnavailable,
    ServerPool,
    cached_run,
    llvm_version_of,
    server_binary,
)
from passtune.backend.passlist import PassList, PassVocabulary, llvm10_vocabulary
from passtune.ircore import MalformedIrError, NormalizedIr, count_instructions, normalize
from passtune.util import DEFAULT_TIMEOUT_SECONDS, positive_seconds

logger = logging.getLogger(__name__)

OPT_ENV_VAR = "PASSTUNE_OPT"
# The legacy pass manager's switch, implied wherever opt lists it: the one
# extra opt argument under which optd compiles as opt does.
SERVER_ARGS = ("-enable-new-pm=0",)

# An option line of the help listing: "  --dce   - Dead Code Elimination".
_LISTED_OPTION = re.compile(r"^\s*--?([\w.-]+)", re.MULTILINE)
# An argument that sets the switch, in any spelling: then none is implied.
_SETS_NEW_PM = re.compile(r"--?enable-new-pm(=|$)")


def resolve_opt_path(explicit: Optional[str] = None) -> str:
    """Locate the optimizer executable or raise BackendUnavailableError."""
    candidate = explicit or os.environ.get(OPT_ENV_VAR) or "opt"
    resolved = shutil.which(candidate)
    if resolved is None:
        raise BackendUnavailableError(
            f"optimizer executable {candidate!r} not found; install LLVM, set "
            f"{OPT_ENV_VAR}, or pass an explicit path"
        )
    return resolved


def _query(opt_path: str, option: str) -> subprocess.CompletedProcess:
    """``opt <option>``: cached per ``opt`` file (see ``optd.cached_run``),
    else run under the default limit, not the per-compile one."""

    def run(cmd: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                cmd, capture_output=True, text=True, timeout=DEFAULT_TIMEOUT_SECONDS
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            raise BackendUnavailableError(f"cannot run {opt_path!r}: {err}") from err

    return cached_run([opt_path, option], run)


def listed_vocabulary(opt_path: str) -> tuple[PassVocabulary, bool]:
    """The flags of LLVM 10's vocabulary that ``opt --help-hidden`` lists,
    and whether it lists ``-enable-new-pm``."""
    proc = _query(opt_path, "--help-hidden")
    if proc.returncode != 0:
        raise BackendUnavailableError(
            f"{opt_path} --help-hidden exited with {proc.returncode}"
        )
    listed = {f"-{name}" for name in _LISTED_OPTION.findall(proc.stdout)}
    vocabulary = llvm10_vocabulary()
    dropped = [f for f in vocabulary.all_flags if f not in listed]
    if dropped:
        logger.warning(
            "%s does not list %d vocabulary flag(s); dropped: %s",
            opt_path,
            len(dropped),
            " ".join(dropped),
        )
    kept = PassVocabulary(
        tuple(f for f in vocabulary.passes if f in listed),
        tuple(f for f in vocabulary.meta_flags if f in listed),
    )
    return kept, "-enable-new-pm" in listed


class LlvmBackend:
    """Applies pass lists through optd servers or ``opt`` processes.

    Each process that compiles, the caller's or a forked worker, has its
    own optd server (see :class:`~passtune.backend.optd.ServerPool`).
    """

    def __init__(
        self,
        opt_path: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        extra_args: Sequence[str] = (),
    ) -> None:
        self.timeout = positive_seconds(timeout, "timeout")
        self.opt_path = resolve_opt_path(opt_path)
        self.vocabulary, names_new_pm = listed_vocabulary(self.opt_path)
        self.extra_args = tuple(extra_args)
        if names_new_pm and not any(map(_SETS_NEW_PM.match, self.extra_args)):
            self.extra_args += SERVER_ARGS
        # How every compile runs: ``path`` (``opt-server`` or ``opt``), the LLVM
        # version and under ``opt`` the ``fallback_reason``; and its function.
        self.compile_path, self._compile = self._choose_path()

    def version(self) -> str:
        proc = _query(self.opt_path, "--version")
        return " ".join(proc.stdout.split()) or f"opt at {self.opt_path}"

    def _choose_path(self) -> tuple[dict, Callable[..., tuple[bool, str]]]:
        version = self.version()
        path = {"path": "opt", "llvm_version": llvm_version_of(version)}
        if self.extra_args not in ((), SERVER_ARGS):
            path["fallback_reason"] = (
                f"extra opt arguments are {' '.join(self.extra_args)}; "
                f"optd takes only {' '.join(SERVER_ARGS)}"
            )
            return path, self._run_opt
        try:
            binary = server_binary(self.opt_path, version)
        except OptdUnavailable as err:
            path["fallback_reason"] = str(err)
            return path, self._run_opt
        path["path"] = "opt-server"
        return path, ServerPool(binary, self.opt_path).compile

    def _command(self, items: tuple[str, ...]) -> list[str]:
        return [self.opt_path, "-S", *self.extra_args, *items]

    def _run_opt(
        self, items: tuple[str, ...], text: str, timeout: float
    ) -> tuple[bool, str]:
        """(True, output) or (False, failure message) of one ``opt`` process."""
        cmd = self._command(items)
        try:
            proc = subprocess.run(
                cmd, input=text, capture_output=True, text=True, timeout=timeout
            )
        except OSError as err:
            raise BackendUnavailableError(
                f"cannot run {self.opt_path!r}: {err}"
            ) from err
        if proc.returncode != 0:
            return False, proc.stderr.strip() or f"exit code {proc.returncode}"
        return True, proc.stdout

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome:
        try:
            ok, out = self._compile(passes.items, ir.text + "\n", self.timeout)
        except subprocess.TimeoutExpired:
            cmd = " ".join(self._command(passes.items))
            message = f"{cmd} exceeded {self.timeout:g}s"
            return CompileOutcome.failure(diagnostic_from_message(message))
        if not ok:
            return CompileOutcome.failure(diagnostic_from_message(out))
        out = normalize(out)
        try:
            count = count_instructions(out)
        except MalformedIrError as err:
            return CompileOutcome.failure(
                diagnostic_from_message(f"unparseable optimizer output: {err}")
            )
        return CompileOutcome.success(out, count)
