"""Backend that drives an external LLVM ``opt`` executable.

Each application runs ``opt -S <flags...>`` with a wall-clock limit and
feeds it the IR on standard input. There is no temporary file, so the
output names its source ``<stdin>`` on every run. The output is
re-normalized. A nonzero exit, unparseable output and a time-limit hit
each become a classified failure outcome, so a hang costs one failed
compilation and nothing more.

The executable is found via the constructor argument, the
``PASSTUNE_OPT`` environment variable, or ``opt`` on PATH, in that
order. Extra fixed arguments (for example ``-enable-new-pm=0`` on
newer LLVM releases, whose default pass manager does not accept the
legacy flag set) can be supplied with ``extra_args``. The vocabulary
keeps only the flags that ``opt --help-hidden`` lists, so a flag the
installed ``opt`` does not know is never sampled; the dropped flags are
logged as one warning.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import subprocess
from typing import Optional, Sequence

from passtune.backend.classify import diagnostic_from_message
from passtune.backend.passlist import PassList, PassVocabulary, llvm10_vocabulary
from passtune.backend.types import BackendUnavailableError, CompileOutcome
from passtune.ircore import MalformedIrError, NormalizedIr, count_instructions, normalize
from passtune.util import DEFAULT_TIMEOUT_SECONDS, positive_seconds

logger = logging.getLogger(__name__)

OPT_ENV_VAR = "PASSTUNE_OPT"

# An option line of the help listing: "  --dce   - Dead Code Elimination".
_LISTED_OPTION = re.compile(r"^\s*--?([\w.-]+)", re.MULTILINE)


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


class LlvmBackend:
    """Applies pass lists by invoking ``opt`` in a subprocess."""

    def __init__(
        self,
        opt_path: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        extra_args: Sequence[str] = (),
    ) -> None:
        self.timeout = positive_seconds(timeout, "timeout")
        self.opt_path = resolve_opt_path(opt_path)
        self.extra_args = tuple(extra_args)
        self._vocabulary = self._listed_only(llvm10_vocabulary())

    @property
    def vocabulary(self) -> PassVocabulary:
        return self._vocabulary

    def _query(self, option: str) -> subprocess.CompletedProcess:
        """Run ``opt <option>`` under the default limit, not the per-compile one."""
        try:
            return subprocess.run(
                [self.opt_path, option],
                capture_output=True,
                text=True,
                timeout=DEFAULT_TIMEOUT_SECONDS,
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            raise BackendUnavailableError(
                f"cannot run {self.opt_path!r}: {err}"
            ) from err

    def _listed_only(self, vocabulary: PassVocabulary) -> PassVocabulary:
        """The flags of ``vocabulary`` that ``opt --help-hidden`` lists."""
        proc = self._query("--help-hidden")
        if proc.returncode != 0:
            raise BackendUnavailableError(
                f"{self.opt_path} --help-hidden exited with {proc.returncode}"
            )
        listed = {f"-{name}" for name in _LISTED_OPTION.findall(proc.stdout)}
        dropped = [f for f in vocabulary.all_flags if f not in listed]
        if dropped:
            logger.warning(
                "%s does not list %d vocabulary flag(s); dropped: %s",
                self.opt_path,
                len(dropped),
                " ".join(dropped),
            )
        return PassVocabulary(
            tuple(f for f in vocabulary.passes if f in listed),
            tuple(f for f in vocabulary.meta_flags if f in listed),
        )

    def version(self) -> str:
        proc = self._query("--version")
        return " ".join(proc.stdout.split()) or f"opt at {self.opt_path}"

    def apply(self, ir: NormalizedIr, passes: PassList) -> CompileOutcome:
        cmd = [self.opt_path, "-S", *self.extra_args, *passes.items]
        try:
            proc = subprocess.run(
                cmd,
                input=ir.text + "\n",
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            message = f"{' '.join(cmd)} exceeded {self.timeout:g}s"
            return CompileOutcome.failure(diagnostic_from_message(message))
        except OSError as err:
            raise BackendUnavailableError(
                f"cannot run {self.opt_path!r}: {err}"
            ) from err
        if proc.returncode != 0:
            message = proc.stderr.strip() or f"exit code {proc.returncode}"
            return CompileOutcome.failure(diagnostic_from_message(message))
        out = normalize(proc.stdout)
        try:
            count = count_instructions(out)
        except MalformedIrError as err:
            return CompileOutcome.failure(
                diagnostic_from_message(f"unparseable optimizer output: {err}")
            )
        return CompileOutcome.success(out, count)
