import json
import logging
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import pytest

from passtune.backend.classify import ErrorCategory
from passtune.backend import BackendUnavailableError, compile_items
from passtune.backend.llvm import (
    OPT_ENV_VAR,
    LlvmBackend,
    resolve_opt_path,
)
from passtune.backend.passlist import llvm10_vocabulary
from passtune.ircore import normalize

DATA = Path(__file__).parent / "data"

# A stand-in for opt: echoes the input module (a file argument, or standard
# input when there is none, as opt does), with a few trigger flags for
# exercising the backend's failure paths. Trigger flags are passed via
# extra_args so they bypass vocabulary validation. `--help-hidden` lists
# the options in LISTED, one line each, as opt prints them. With a LOG
# path, every run appends its arguments there as one line.
STUB_OPT = """\
#!/usr/bin/env python3
import sys, time

LISTED = {listed}
LOG = {log}
args = sys.argv[1:]
if LOG:
    with open(LOG, "a") as fh:
        fh.write(" ".join(args) + "\\n")
if "--version" in args:
    print("stub LLVM (http://llvm.org/) version 10.0.0")
    sys.exit(0)
if "--help-hidden" in args:
    print("OPTIONS:")
    for flag in LISTED:
        print(f"  -{flag:<40} - the {flag} option")
    sys.exit(0)
if "--stub-crash" in args:
    sys.stderr.write("stub: error: '%a' defined with type 'i32' but expected 'i1'\\n")
    sys.exit(1)
if "--stub-hang" in args:
    time.sleep(30)
if "--stub-garbage" in args:
    sys.stdout.write("}\\n")
    sys.exit(0)

files = [a for a in args if not a.startswith("-")]
text = open(files[-1]).read() if files else sys.stdin.read()
if "-dce" in args:
    text = "\\n".join(l for l in text.splitlines() if "%dead" not in l)
sys.stdout.write(text)
"""


def write_stub(tmp_path, omit=(), log=None, also=()):
    """A stub opt that lists the vocabulary but ``omit``, and the options ``also``."""
    # The backend caches what opt answers at start-up, keyed on its file;
    # a stub's answers belong in the test's own cache (see private_cache).
    assert os.environ.get("XDG_CACHE_HOME", "").startswith(str(tmp_path))
    listed = [f for f in llvm10_vocabulary().all_flags if f not in omit] + list(also)
    path = tmp_path / "stub-opt"
    text = STUB_OPT.replace("{listed}", repr(listed))
    path.write_text(text.replace("{log}", repr(log and str(log))))
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(path)


@pytest.fixture
def stub_opt(tmp_path, private_cache):
    return write_stub(tmp_path)


@pytest.fixture
def sample_ir():
    return normalize((DATA / "sample.ll").read_text())


def test_resolve_prefers_explicit_path(stub_opt, monkeypatch):
    monkeypatch.setenv(OPT_ENV_VAR, "/nonexistent/opt")
    assert resolve_opt_path(stub_opt) == stub_opt


def test_resolve_falls_back_to_env(stub_opt, monkeypatch):
    monkeypatch.setenv(OPT_ENV_VAR, stub_opt)
    assert resolve_opt_path() == stub_opt


def test_resolve_missing_raises(monkeypatch):
    monkeypatch.delenv(OPT_ENV_VAR, raising=False)
    monkeypatch.setenv("PATH", "/definitely/empty")
    with pytest.raises(BackendUnavailableError):
        resolve_opt_path()


def test_version_reports_stub(stub_opt):
    backend = LlvmBackend(stub_opt)
    assert "10.0.0" in backend.version()


def test_apply_success_counts_output(stub_opt, sample_ir):
    backend = LlvmBackend(stub_opt)
    outcome = compile_items(backend, sample_ir, ())
    assert outcome.ok
    assert outcome.instruction_count == 5
    assert outcome.output == sample_ir  # identity stub round-trips normalization


def test_apply_pass_effect_via_stub(stub_opt, sample_ir):
    backend = LlvmBackend(stub_opt)
    outcome = compile_items(backend, sample_ir, ("-dce",))
    assert outcome.ok
    assert outcome.instruction_count == 4  # %dead line dropped


def test_a_stub_that_no_optd_can_match_compiles_through_opt(stub_opt, sample_ir):
    # The stub reports LLVM 10.0.0 and is no LLVM build, so even under the
    # server's arguments the backend compiles through opt processes.
    backend = LlvmBackend(stub_opt, extra_args=("-enable-new-pm=0",))
    path = backend.compile_path
    assert (path["path"], path["llvm_version"]) == ("opt", "10.0.0")
    assert path["fallback_reason"]
    assert compile_items(backend, sample_ir, ("-dce",)).instruction_count == 4


# --- the legacy pass manager's switch ------------------------------------------


def _compiles(log):
    """The arguments of each compile the stub has run, not of its queries."""
    return [line.split() for line in log.read_text().splitlines() if line[:2] == "-S"]


def _switches(args):
    return [arg for arg in args if "enable-new-pm" in arg]


@pytest.mark.parametrize(
    "given,switch",
    [
        ((), "-enable-new-pm=0"),
        (("-enable-new-pm=0",), "-enable-new-pm=0"),
        (("--enable-new-pm=0",), "--enable-new-pm=0"),
    ],
)
def test_an_opt_that_lists_the_switch_gets_it_exactly_once(
    tmp_path, private_cache, sample_ir, given, switch
):
    log = tmp_path / "opt.log"
    stub = write_stub(tmp_path, log=log, also=("-enable-new-pm",))
    backend = LlvmBackend(stub, extra_args=given)
    for items in ((), ("-dce",), ("-Oz", "-dce")):
        assert compile_items(backend, sample_ir, items).ok
    compiles = _compiles(log)
    assert len(compiles) == 3
    assert all(_switches(args) == [switch] for args in compiles)


@pytest.mark.parametrize("given", ["-enable-new-pm=1", "-enable-new-pm"])
def test_an_opt_told_to_use_the_new_pass_manager_gets_no_switch_at_0(
    tmp_path, private_cache, sample_ir, given
):
    log = tmp_path / "opt.log"
    stub = write_stub(tmp_path, log=log, also=("-enable-new-pm",))
    backend = LlvmBackend(stub, extra_args=(given,))
    assert compile_items(backend, sample_ir, ("-dce",)).instruction_count == 4
    assert [_switches(args) for args in _compiles(log)] == [[given]]
    assert backend.compile_path == {
        "path": "opt",
        "llvm_version": "10.0.0",
        "fallback_reason": (
            f"extra opt arguments are {given}; optd takes only -enable-new-pm=0"
        ),
    }


def test_another_extra_argument_still_gets_the_switch_and_compiles_through_opt(
    tmp_path, private_cache, sample_ir
):
    log = tmp_path / "opt.log"
    stub = write_stub(tmp_path, log=log, also=("-enable-new-pm",))
    backend = LlvmBackend(stub, extra_args=("--stub-garbage",))
    assert not compile_items(backend, sample_ir, ("-dce",)).ok
    assert _compiles(log) == [["-S", "--stub-garbage", "-enable-new-pm=0", "-dce"]]
    assert backend.compile_path["fallback_reason"] == (
        "extra opt arguments are --stub-garbage -enable-new-pm=0; "
        "optd takes only -enable-new-pm=0"
    )


def test_an_opt_that_does_not_list_the_switch_gets_none(
    tmp_path, private_cache, sample_ir
):
    log = tmp_path / "opt.log"
    backend = LlvmBackend(write_stub(tmp_path, log=log))
    assert backend.extra_args == ()
    assert compile_items(backend, sample_ir, ("-dce",)).ok
    assert _compiles(log) == [["-S", "-dce"]]
    # No argument to rule optd out: the stub's LLVM 10 does.
    assert backend.compile_path["fallback_reason"].endswith("opt is LLVM 10.0.0")


def test_apply_failure_is_classified(stub_opt, sample_ir):
    backend = LlvmBackend(stub_opt, extra_args=("--stub-crash",))
    outcome = compile_items(backend, sample_ir, ())
    assert not outcome.ok
    assert outcome.diagnostic.category is ErrorCategory.TYPE_ERROR
    assert "but expected" in outcome.diagnostic.message


class ReturnedOutcomes:
    """Delegates to a backend and keeps every outcome its ``apply`` returned."""

    def __init__(self, inner):
        self._inner = inner
        self.outcomes = []

    @property
    def vocabulary(self):
        return self._inner.vocabulary

    def apply(self, ir, passes):
        outcome = self._inner.apply(ir, passes)
        self.outcomes.append(outcome)
        return outcome


def test_apply_timeout_is_a_failed_outcome(stub_opt, sample_ir):
    backend = LlvmBackend(stub_opt, timeout=0.3, extra_args=("--stub-hang",))
    returned = ReturnedOutcomes(backend)
    outcome = compile_items(returned, sample_ir, ())
    # the backend itself returns the failure; nothing raises past it
    assert returned.outcomes == [outcome]
    assert not outcome.ok
    assert outcome.diagnostic.message == (
        f"{backend.opt_path} -S --stub-hang exceeded 0.3s"
    )


@pytest.mark.parametrize(
    "timeout,message",
    [
        (0, "timeout must be positive"),
        (-0.5, "timeout must be positive"),
        (float("nan"), "timeout must be positive"),
        (float("inf"), "timeout must be finite, got inf"),
    ],
)
def test_a_timeout_that_is_not_positive_is_rejected(stub_opt, timeout, message):
    with pytest.raises(ValueError, match=message):
        LlvmBackend(stub_opt, timeout=timeout)


def test_start_up_queries_do_not_use_the_compile_timeout(tmp_path, private_cache):
    # Starting the stub takes far longer than 1 ms; only compiles get that limit.
    backend = LlvmBackend(write_stub(tmp_path, omit=("-die",)), timeout=0.001)
    assert backend.timeout == 0.001
    listed = set(llvm10_vocabulary().all_flags) - {"-die"}
    assert set(backend.vocabulary.all_flags) == listed
    assert "10.0.0" in backend.version()


def test_apply_unparseable_output_is_failure(stub_opt, sample_ir):
    backend = LlvmBackend(stub_opt, extra_args=("--stub-garbage",))
    outcome = compile_items(backend, sample_ir, ())
    assert not outcome.ok
    assert "unparseable optimizer output" in outcome.diagnostic.message


def test_extra_args_reach_the_command_line(stub_opt, sample_ir):
    # mixing a real pass flag with a stub trigger shows extra_args are
    # forwarded alongside the pass list, not swallowed
    backend = LlvmBackend(stub_opt, extra_args=("--stub-garbage",))
    outcome = compile_items(backend, sample_ir, ("-dce",))
    assert not outcome.ok
    assert "unparseable" in outcome.diagnostic.message


def test_backend_vocabulary_is_llvm10(stub_opt):
    backend = LlvmBackend(stub_opt)
    assert len(backend.vocabulary.passes) == 122
    assert "-Oz" in backend.vocabulary.meta_flags


def test_flags_opt_does_not_list_leave_the_vocabulary(tmp_path, private_cache, caplog):
    stub = write_stub(tmp_path, omit=("-die", "-O1"))
    with caplog.at_level(logging.WARNING, logger="passtune.backend.llvm"):
        backend = LlvmBackend(stub)
    assert "-die" not in backend.vocabulary
    assert "-O1" not in backend.vocabulary
    assert len(backend.vocabulary.all_flags) == len(llvm10_vocabulary().all_flags) - 2
    assert [r.getMessage() for r in caplog.records] == [
        f"{stub} does not list 2 vocabulary flag(s); dropped: -die -O1"
    ]


def test_a_failing_flag_listing_means_the_backend_is_unavailable(tmp_path):
    failing = tmp_path / "failing-opt"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    with pytest.raises(BackendUnavailableError, match="--help-hidden"):
        LlvmBackend(str(failing))


def test_the_vocabulary_drops_exactly_the_flags_the_installed_opt_rejects():
    opt = shutil.which("opt")
    if opt is None:
        pytest.skip("no opt on PATH")
    kept = LlvmBackend(opt).vocabulary
    for flag in llvm10_vocabulary().all_flags:
        proc = subprocess.run(
            [opt, "-S", "-enable-new-pm=0", flag],
            input="",
            capture_output=True,
            text=True,
            timeout=60,
        )
        unknown = "Unknown command line argument" in proc.stderr
        assert (proc.returncode != 0 and unknown) == (flag not in kept), flag


def test_nonexecutable_path_raises(tmp_path):
    plain = tmp_path / "not-opt"
    plain.write_text("just text")
    with pytest.raises(BackendUnavailableError):
        LlvmBackend(str(plain))


# --- the start-up query cache -------------------------------------------------


def _queries(log):
    """The start-up queries the stub has answered, in order."""
    lines = log.read_text().splitlines() if log.exists() else []
    return [line for line in lines if line in ("--help-hidden", "--version")]


def test_a_backend_asks_opt_everything_it_needs_when_it_is_built(
    tmp_path, private_cache
):
    log = tmp_path / "opt.log"
    backend = LlvmBackend(write_stub(tmp_path, log=log))
    assert log.read_text().splitlines() == ["--help-hidden", "--version"]
    assert backend.compile_path["path"] == "opt"
    assert log.read_text().splitlines() == ["--help-hidden", "--version"]


def test_a_second_backend_on_the_same_opt_runs_no_query(tmp_path, private_cache):
    log = tmp_path / "opt.log"
    stub = write_stub(tmp_path, omit=("-die",), log=log)
    first = LlvmBackend(stub)
    version = first.version()
    assert _queries(log) == ["--help-hidden", "--version"]
    second = LlvmBackend(stub)
    assert (second.vocabulary, second.version()) == (first.vocabulary, version)
    assert "-die" not in second.vocabulary
    assert _queries(log) == ["--help-hidden", "--version"]


def test_a_rewritten_opt_is_asked_again(tmp_path, private_cache):
    log = tmp_path / "opt.log"
    assert "-die" in LlvmBackend(write_stub(tmp_path, log=log)).vocabulary
    # The same file rewritten with another size: its listing lacks -die.
    stub = write_stub(tmp_path, omit=("-die",), log=log)
    assert "-die" not in LlvmBackend(stub).vocabulary
    # The same size and text with another modification time.
    st = os.stat(stub)
    os.utime(stub, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert "-die" not in LlvmBackend(stub).vocabulary
    assert _queries(log) == ["--help-hidden", "--version"] * 3


@pytest.mark.parametrize(
    "garbage", ["", "{", "[1]", '"text"', '{"key": null}', '{"key": [], "stdout": "x"}']
)
def test_a_corrupt_cache_entry_is_asked_again(tmp_path, private_cache, garbage):
    log = tmp_path / "opt.log"
    stub = write_stub(tmp_path, omit=("-die",), log=log)
    vocabulary = LlvmBackend(stub).vocabulary
    [entry] = [
        entry
        for entry in private_cache.glob("query-*")
        if json.loads(entry.read_text())["key"][-1] == "--help-hidden"
    ]
    entry.write_text(garbage)
    assert LlvmBackend(stub).vocabulary == vocabulary
    assert LlvmBackend(stub).vocabulary == vocabulary  # the entry was rewritten
    assert _queries(log) == ["--help-hidden", "--version", "--help-hidden"]


def test_without_a_writable_cache_every_backend_asks(
    tmp_path, private_cache, monkeypatch, sample_ir
):
    # A file where each cache directory would go: no one can make them there.
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    monkeypatch.setattr(tempfile, "tempdir", str(blocked))
    log = tmp_path / "opt.log"
    stub = write_stub(tmp_path, log=log)
    for _ in range(2):
        backend = LlvmBackend(stub)
        assert compile_items(backend, sample_ir, ("-dce",)).instruction_count == 4
    assert _queries(log) == ["--help-hidden", "--version"] * 2
