"""optd compiles as ``opt -S -enable-new-pm=0`` does, and costs one compile at most.

The property tests compare optd's output with ``opt``'s byte for byte and
count instructions through LLVM's C API, on llvm-tune's functions, minigen
and ``llvm-stress`` functions, and hand-written IR. optd links the host's
target alone; the inputs with a target triple name x86-64, which these
tests take to be the host's. The isolation tests time out,
kill and crash servers. The tests that run the installed ``opt`` are
skipped without it, and those that run optd without a built optd (``g++``,
``llvm-config``, LLVM's static archives and LLVM 14).
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import llvm_instruction_counter
from passtune.backend import BackendUnavailableError, compile_items
from passtune.backend import llvm, optd
from passtune.backend.classify import diagnostic_from_message
from passtune.backend.llvm import SERVER_ARGS, LlvmBackend, resolve_opt_path
from passtune.backend.optd import ServerPool, server_binary
from passtune.cli import main
from passtune.evaluator import EvalRow
from passtune.ircore import count_instructions, normalize
from passtune.minigen import generate_corpus
from passtune.predictor import Prediction
from passtune.util import map_in_order, read_records, write_records

from test_llvm_backend import write_stub

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
LIMIT = 60.0  # seconds; no compile here comes near it

STRUCT = """\
%struct.s = type { i32, i32 }
define i32 @second(%struct.s* %p) {
entry:
  %a = getelementptr inbounds %struct.s, %struct.s* %p, i32 0, i32 1
  %v = load i32, i32* %a
  %w = add i32 %v, 0
  ret i32 %w
}"""

SWITCH = """\
define i32 @pick(i32 %x) {
entry:
  switch i32 %x, label %other [
    i32 0, label %zero
    i32 1, label %one
    i32 7, label %seven
  ]
zero:
  ret i32 10
one:
  ret i32 20
seven:
  br label %other
other:
  %r = phi i32 [ 1, %entry ], [ 2, %seven ]
  ret i32 %r
}"""

INVOKE = """\
declare i32 @may_throw(i32)
declare i32 @__gxx_personality_v0(...)
define i32 @guarded(i32 %x) personality i8* bitcast (i32 (...)* @__gxx_personality_v0 to i8*) {
entry:
  %v = invoke i32 @may_throw(i32 %x)
          to label %ok unwind label %lpad
ok:
  %w = add i32 %v, 0
  ret i32 %w
lpad:
  %lp = landingpad { i8*, i32 }
          cleanup
          catch i8* null
          filter [0 x i8*] zeroinitializer
  ret i32 -1
}"""

# A module that parses but that the verifier rejects.
UNDOMINATED = """\
define i32 @f(i32 %a) {
entry:
  %x = add i32 %y, 1
  %y = add i32 %a, 1
  ret i32 %x
}"""

TRIPLE = 'target triple = "x86_64-unknown-linux-gnu"\n'
# A target that an x86-64 server does not link.
FOREIGN = 'target triple = "aarch64-unknown-linux-gnu"\n'


def as_sent(raw: str) -> str:
    """IR text as the backend sends it to optd or opt."""
    return normalize(raw).text + "\n"


def stress(seed: int) -> str:
    """The function that LLVM 14.0.6's ``llvm-stress -seed SEED -size 60``
    writes, as written: vectors, selects, floating point and loops."""
    return (DATA / f"llvm_stress_{seed}.ll").read_text()


def inputs() -> list[str]:
    llvm_tune = ROOT / "perfbench" / "data" / "llvm-tune.jsonl"
    rows = [json.loads(line) for line in llvm_tune.read_text().splitlines()]
    sample = (DATA / "sample.ll").read_text()
    return (
        [as_sent(row["raw_text"]) for row in rows]
        + [fn.normalized_text + "\n" for fn in generate_corpus(12, seed=7)]
        + [as_sent(stress(seed)) for seed in (7, 9, 10, 22, 27, 33, 37)]
        + [as_sent(TRIPLE + stress(7))]
        + [as_sent(sample), as_sent(TRIPLE + sample)]
    )


INPUTS = inputs()
HAND_WRITTEN = [as_sent(text) for text in (STRUCT, SWITCH, INVOKE)]
# opt prints this function two ways after a single -attributor, 4 and 6
# times in 10 runs, the order of a `; preds` comment apart. It is left out
# of INPUTS, whose random lists may print a rarer variant than the oracle's
# 20 runs can be sure to meet, and checked on -attributor alone.
TWO_WAY = as_sent(stress(74))


@pytest.fixture(scope="module")
def opt():
    try:
        return resolve_opt_path()
    except BackendUnavailableError:
        pytest.skip("no optimizer executable on PATH or in PASSTUNE_OPT")


def stop_servers(pool):
    """Stop the servers of ``pool`` now, not when the garbage collector
    frees it, so no server outlives this module."""
    for server in pool._servers.values():
        server.close()


@pytest.fixture(scope="module")
def backend(opt):
    backend = LlvmBackend(opt, extra_args=SERVER_ARGS)
    if backend.compile_path["path"] != "opt-server":
        pytest.skip(f"no optd: {backend.compile_path['fallback_reason']}")
    yield backend
    stop_servers(backend._compile.__self__)  # the backend's ServerPool


@pytest.fixture(scope="module")
def pool(backend):
    binary = server_binary(backend.opt_path, backend.version())
    pool = ServerPool(binary, backend.opt_path)
    yield pool
    stop_servers(pool)


@pytest.fixture
def started(monkeypatch):
    """The processes of every optd server started while the test runs."""
    procs = []

    class Recorded(optd._Server):
        def __init__(self, command):
            super().__init__(command)
            procs.append(self.proc)

    monkeypatch.setattr(optd, "_Server", Recorded)
    return procs


@pytest.fixture
def servers(tmp_path, monkeypatch):
    """Reads what became of every optd server started while the test runs,
    in this process or in a forked worker: ``{server pid: (pid of the
    process that started it, pid of the one that reaped it or None)}``."""
    log = tmp_path / "servers.log"
    stop = optd._stop

    def note(event, server_pid):
        line = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:  # one write, so the lines of two workers do not interleave
            os.write(line, f"{event} {server_pid} {os.getpid()}\n".encode())
        finally:
            os.close(line)

    class Logged(optd._Server):
        def __init__(self, command):
            super().__init__(command)
            note("start", self.proc.pid)

    def logged_stop(proc, stderr):
        stop(proc, stderr)
        note("reap", proc.pid)

    monkeypatch.setattr(optd, "_Server", Logged)
    monkeypatch.setattr(optd, "_stop", logged_stop)

    def read():
        fates = {}
        for line in log.read_text().splitlines() if log.exists() else []:
            event, server, pid = line.split()
            starter = int(pid) if event == "start" else fates[int(server)][0]
            fates[int(server)] = (starter, int(pid) if event == "reap" else None)
        return fates

    return read


def opt_reply(opt, items, text):
    """(True, output) or (False, stripped standard error) of opt itself."""
    proc = subprocess.run(
        [opt, "-S", *SERVER_ARGS, *items],
        input=text,
        capture_output=True,
        text=True,
        timeout=LIMIT,
    )
    if proc.returncode != 0:
        return False, proc.stderr.strip()
    return True, proc.stdout


# LLVM 14's opt is itself not deterministic on some lists: on `-attributor
# -attributor`, about one run in three of @f20 keeps a dead `mul` that the
# others drop. So the oracle is every reply opt gives, found by rerunning it:
# 20 runs all miss an output that one run in three gives with odds (2/3)**20,
# under one in a thousand.
OPT_RUNS = 20


def assert_opt_can_print(opt, items, text, reply):
    """``reply`` is byte for byte what some run of opt itself gives."""
    for _ in range(OPT_RUNS - 1):
        if opt_reply(opt, items, text) == reply:
            return
    assert reply == opt_reply(opt, items, text)


@st.composite
def flag_lists(draw, vocabulary):
    """1-12 listed flags that ``vocabulary`` accepts, each -O level at most
    once; the levels often adjacent."""
    passes = draw(st.lists(st.sampled_from(vocabulary.passes), max_size=12))
    room = 12 - len(passes)
    levels = draw(
        st.lists(st.sampled_from(vocabulary.meta_flags), unique=True, max_size=room)
    )
    assume(passes or levels)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(passes)))
        items = tuple(passes[:at] + levels + passes[at:])
    else:
        items = tuple(draw(st.permutations(passes + levels)))
    assume(vocabulary.problem(items) is None)
    return items


def test_the_server_is_chosen_on_llvm_14_wherever_gxx_and_llvms_archives_exist(opt):
    config = optd.find_llvm_config(opt)
    if shutil.which("g++") is None or config is None:
        pytest.skip("no g++ on PATH, or no llvm-config")
    archives = subprocess.run(
        [config, "--link-static", "--libs", "core"], capture_output=True, timeout=LIMIT
    )
    if archives.returncode != 0:
        pytest.skip("llvm-config finds no static LLVM archives")
    path = LlvmBackend(opt, extra_args=SERVER_ARGS).compile_path
    if not path["llvm_version"].startswith("14."):
        pytest.skip(f"opt is LLVM {path['llvm_version']}, not 14")
    assert path == {"path": "opt-server", "llvm_version": path["llvm_version"]}


def test_with_no_extra_argument_llvm_14_compiles_on_the_server(opt, backend):
    # The backend fixture gives the switch and is on the server; this one
    # is given nothing and implies the switch.
    implied = LlvmBackend(opt)
    assert implied.extra_args == SERVER_ARGS
    assert implied.compile_path == backend.compile_path
    assert implied.compile_path["path"] == "opt-server"


@pytest.mark.parametrize(
    "version,llvm_version,said",
    [
        ("stub LLVM version 15.0.7", "15.0.7", "is LLVM 15.0.7"),
        ("stub build", None, "--version names no LLVM version"),
    ],
    ids=["15.0.7", "no-version"],
)
def test_an_opt_of_another_llvm_than_14_compiles_without_the_server(
    tmp_path, private_cache, version, llvm_version, said
):
    if shutil.which("g++") is None:
        pytest.skip("no g++ on PATH")
    opt = Path(write_stub(tmp_path))
    named = "stub LLVM (http://llvm.org/) version 10.0.0"
    opt.write_text(opt.read_text().replace(named, version))
    config = tmp_path / "llvm-config"  # beside opt, so the one optd would use
    config.write_text("#!/bin/sh\necho 15.0.7\n")
    config.chmod(0o755)
    assert LlvmBackend(str(opt), extra_args=SERVER_ARGS).compile_path == {
        "path": "opt",
        "llvm_version": llvm_version,
        "fallback_reason": f"optd runs LLVM 14 only; opt {said}",
    }


def maps_libllvm(pool):
    """Whether this process's server in ``pool`` has a shared libLLVM mapped."""
    pid = pool._servers[os.getpid()].proc.pid
    return "libLLVM" in Path(f"/proc/{pid}/maps").read_text()


def test_where_llvms_archives_exist_the_server_maps_no_shared_libllvm(opt, pool):
    try:
        subprocess.run(
            [optd.find_llvm_config(opt), "--link-static", "--libs", "core"],
            capture_output=True,
            check=True,
            timeout=LIMIT,
        )
    except subprocess.CalledProcessError:
        pytest.skip("llvm-config finds no static LLVM archives")
    assert pool.compile(("-Oz",), INPUTS[0], LIMIT)[0]
    assert not maps_libllvm(pool)


# A stand-in for g++ that logs its runs and writes an executable to its -o.
FAKE_GXX = """#!/bin/sh
echo "$@" >> {log}
while [ "$1" != -o ]; do shift; done
printf '#!/bin/sh\\n' > "$2"
chmod 755 "$2"
"""

# A stand-in for an llvm-config without LLVM's static archives: it logs its
# runs, and fails --link-static as llvm-config does, one line per archive.
NO_ARCHIVES_CONFIG = """#!/bin/sh
echo "$@" >> {log}
case "$1" in
--version) echo 14.0.6 ;;
--link-static)
    echo "llvm-config: error: missing: /stub/lib/libLLVMCore.a" >&2
    echo "llvm-config: error: missing: /stub/lib/libLLVMipo.a" >&2
    exit 1 ;;
esac
"""


def test_without_llvms_archives_the_backend_compiles_through_opt(
    opt, tmp_path, private_cache, monkeypatch
):
    # opt, but reporting LLVM 14, so that only the archives keep the server
    # from building; beside it, the llvm-config that optd would use.
    wrapped = tmp_path / "opt"
    wrapped.write_text(
        "#!/bin/sh\n"
        '[ "$1" = --version ] && echo "LLVM version 14.0.6" && exit 0\n'
        f'exec {os.path.realpath(opt)} "$@"\n'
    )
    config_log, gxx_log = tmp_path / "llvm-config.log", tmp_path / "gxx.log"
    config = tmp_path / "llvm-config"
    config.write_text(NO_ARCHIVES_CONFIG.replace("{log}", str(config_log)))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "g++").write_text(FAKE_GXX.replace("{log}", str(gxx_log)))
    for stub in (wrapped, config, bin_dir / "g++"):
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    fallback = LlvmBackend(str(wrapped), extra_args=SERVER_ARGS)
    assert fallback.compile_path == {
        "path": "opt",
        "llvm_version": "14.0.6",
        "fallback_reason": (
            f"{config} --link-static failed: "
            "llvm-config: error: missing: /stub/lib/libLLVMCore.a; "
            "llvm-config: error: missing: /stub/lib/libLLVMipo.a"
        ),
    }
    reply = fallback._compile(("-Oz",), INPUTS[0], LIMIT)
    assert reply == opt_reply(opt, ("-Oz",), INPUTS[0])
    # A failed query is not kept: the next backend asks again.
    assert LlvmBackend(str(wrapped), extra_args=SERVER_ARGS).compile_path == (
        fallback.compile_path
    )
    asked = config_log.read_text().splitlines()
    assert [line.split()[0] for line in asked].count("--link-static") == 2
    assert not gxx_log.exists()


def test_a_binary_cached_under_the_key_without_the_link_mode_is_not_taken(
    backend, tmp_path, monkeypatch
):
    built = Path(server_binary(backend.opt_path, backend.version()))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "passtune"
    cache.mkdir()
    # An executable under the key of the releases that linked libLLVM shared:
    # the sha256 of the source, llvm-config --version and opt --version.
    config = optd.find_llvm_config(backend.opt_path)
    llvm_version = subprocess.run(
        [config, "--version"], capture_output=True, text=True, check=True
    ).stdout.strip()
    fields = (optd.SOURCE.read_bytes(), llvm_version.encode(), backend.version().encode())
    key = hashlib.sha256(b"\0".join(fields)).hexdigest()
    stale = cache / f"optd-{key[:16]}"
    stale.write_text("#!/bin/sh\nexit 1\n")
    stale.chmod(0o755)
    assert stale.name != built.name
    (cache / built.name).symlink_to(built)  # the current binary: nothing is built
    assert server_binary(backend.opt_path, backend.version()) == str(cache / built.name)


def _aged(path, days):
    """Set the modification time of ``path`` to ``days`` ago."""
    then = time.time() - days * 24 * 3600
    os.utime(path, (then, then), follow_symlinks=False)


# A stand-in for an llvm-config with LLVM's static archives: it logs its
# runs and answers each question of optd's build with a flag of its own.
ARCHIVES_CONFIG = """#!/bin/sh
echo "$@" >> {log}
case "$1" in
--version) echo 14.0.6 ;;
--link-static) echo -lLLVMStub ;;
--cxxflags) echo -I/stub/include ;;
--ldflags) echo -L/stub/lib ;;
esac
"""


def stub_build_tools(tmp_path, monkeypatch):
    """A stub opt of LLVM 14, ARCHIVES_CONFIG beside it and FAKE_GXX first
    on PATH: optd builds here in no time. Returns opt and the two logs."""
    opt = Path(write_stub(tmp_path))
    opt.write_text(opt.read_text().replace("version 10.0.0", "version 14.0.6"))
    config_log, gxx_log = tmp_path / "llvm-config.log", tmp_path / "gxx.log"
    config = tmp_path / "llvm-config"  # beside opt, so the one optd would use
    config.write_text(ARCHIVES_CONFIG.replace("{log}", str(config_log)))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "g++").write_text(FAKE_GXX.replace("{log}", str(gxx_log)))
    for stub in (config, bin_dir / "g++"):
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    return opt, config_log, gxx_log


def test_a_build_asks_llvm_config_each_question_once(
    tmp_path, private_cache, monkeypatch
):
    opt, config_log, gxx_log = stub_build_tools(tmp_path, monkeypatch)
    version = "stub LLVM version 14.0.6"
    built = Path(server_binary(str(opt), version))
    asked = [line.split()[0] for line in config_log.read_text().splitlines()]
    assert sorted(asked) == ["--cxxflags", "--ldflags", "--link-static", "--version"]
    # Without the binary the build runs again, on the answers in the cache.
    built.unlink()
    assert server_binary(str(opt), version) == str(built)
    assert len(config_log.read_text().splitlines()) == 4
    builds = gxx_log.read_text().splitlines()
    assert len(builds) == 2
    for build in builds:
        assert {"-I/stub/include", "-L/stub/lib", "-lLLVMStub"} <= set(build.split())


def test_a_build_removes_the_binaries_and_build_directories_a_week_old(
    tmp_path, private_cache, monkeypatch
):
    opt, _, gxx_log = stub_build_tools(tmp_path, monkeypatch)
    version = "stub LLVM version 14.0.6"  # a backend would build optd here
    private_cache.mkdir(parents=True, exist_ok=True)
    planted = {
        "optd-stale": 8, "optd-fresh": 6, ".optd-killed": 8, ".optd-building": 0,
        "query-old.json": 30,
    }
    for name, days in planted.items():
        entry = private_cache / name
        if name.startswith(".optd-"):
            entry.mkdir()
            (entry / "optd.o").write_text("")
        else:
            entry.write_text("")
        _aged(entry, days)
    built = Path(server_binary(str(opt), version))
    assert len(gxx_log.read_text().splitlines()) == 1
    left = {entry.name for entry in private_cache.iterdir()}
    assert {name for name in planted if name in left} == {
        "optd-fresh", ".optd-building", "query-old.json",
    }
    # A binary taken from the cache is touched and removes nothing.
    _aged(built, 8)
    _aged(private_cache / "optd-fresh", 8)
    assert server_binary(str(opt), version) == str(built)
    assert len(gxx_log.read_text().splitlines()) == 1
    assert built.stat().st_mtime > time.time() - 3600
    assert (private_cache / "optd-fresh").exists()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_the_server_prints_what_opt_prints(opt, backend, pool, data):
    text = data.draw(st.sampled_from(INPUTS + HAND_WRITTEN))
    items = data.draw(flag_lists(backend.vocabulary))
    assert_opt_can_print(opt, items, text, pool.compile(items, text, LIMIT))


@pytest.mark.parametrize(
    "text,items",
    [
        # The draw on which comparing with a single opt run failed.
        (next(text for text in INPUTS if "@f20(" in text), ("-attributor", "-attributor")),
        (TWO_WAY, ("-attributor",)),
    ],
    ids=["repeated", "single"],
)
def test_a_list_opt_prints_two_ways_gives_one_of_them(opt, pool, text, items):
    assert_opt_can_print(opt, items, text, pool.compile(items, text, LIMIT))


def test_a_reply_opt_never_gives_fails_the_oracle(opt):
    text = as_sent(STRUCT)
    ok, output = opt_reply(opt, ("-instcombine",), text)
    assert ok
    with pytest.raises(AssertionError):
        assert_opt_can_print(opt, ("-instcombine",), text, (ok, output + "\n"))


@pytest.mark.parametrize(
    "items",
    [
        ("-Oz", "-Os"),
        ("-Oz", "-Os", "-dce"),
        ("-O3", "-Oz"),
        ("-Os", "-O1", "-instcombine"),
        ("-gvn", "-Oz", "-O2", "-simplifycfg"),
    ],
)
# On llvm-tune's eighth function, each of these lists prints differently when
# the -O levels are added in list order rather than in opt's fixed order.
@pytest.mark.parametrize("text", [INPUTS[7], INPUTS[-1]], ids=["llvm-tune", "triple"])
def test_adjacent_o_levels_go_in_opts_fixed_order(opt, pool, items, text):
    assert pool.compile(items, text, LIMIT) == opt_reply(opt, items, text)


def test_a_named_struct_keeps_its_name_on_a_reused_server(opt, pool, started):
    text = as_sent(STRUCT)
    expected = opt_reply(opt, ("-instcombine",), text)
    assert expected[0] and "%struct.s = type" in expected[1]
    replies = [pool.compile(("-instcombine",), text, LIMIT) for _ in range(2)]
    assert replies == [expected, expected]
    assert "%struct.s.0" not in replies[1][1]
    assert len(started) <= 1  # both on the server the pool already had, or one new


@pytest.mark.parametrize(
    "text",
    [(DATA / f"{name}.ll").read_text() for name in ("bad_float", "bad_type")]
    + [UNDOMINATED],
    ids=["bad_float", "bad_type", "undominated"],
)
def test_a_broken_input_fails_with_opts_category_and_message(opt, backend, text):
    ir = normalize(text)
    ok, message = opt_reply(opt, ("-dce",), ir.text + "\n")
    assert not ok
    outcome = compile_items(backend, ir, ("-dce",))
    assert not outcome.ok
    assert outcome.diagnostic == diagnostic_from_message(message)


def test_every_flag_alone_gets_from_the_server_what_opt_prints(opt, backend, pool):
    text = INPUTS[0]  # an llvm-tune function
    for flag in backend.vocabulary.all_flags:
        assert_opt_can_print(opt, (flag,), text, pool.compile((flag,), text, LIMIT))


@pytest.mark.parametrize(
    "items,reason",
    [
        (("-not-a-pass",), "not a pass: -not-a-pass"),
        (("-Oz", "-dce", "-Oz"), "repeated -Oz"),
    ],
    ids=["not-a-pass", "repeated-level"],
)
def test_a_list_the_server_does_not_run_fails_with_a_line_naming_why(
    backend, pool, items, reason
):
    reply = pool.compile(items, INPUTS[0], LIMIT)
    assert reply == (False, f"{backend.opt_path}: {reason}")


def test_a_module_of_a_target_the_server_lacks_fails_with_a_line_naming_its_triple(
    backend, pool
):
    raw = FOREIGN + (DATA / "sample.ll").read_text()
    line = f"{backend.opt_path}: no target for triple 'aarch64-unknown-linux-gnu' in this server"
    assert pool.compile(("-Oz",), as_sent(raw), LIMIT) == (False, line)
    outcome = compile_items(backend, normalize(raw), ("-Oz",))
    assert not outcome.ok
    assert outcome.diagnostic == diagnostic_from_message(line)


def test_a_backend_on_the_server_path_starts_no_opt_process(backend, monkeypatch):
    def no_opt(*args):
        pytest.fail(f"an opt process was started: {args}")

    monkeypatch.setattr(LlvmBackend, "_run_opt", no_opt)
    fresh = LlvmBackend(backend.opt_path, extra_args=SERVER_ARGS)
    ir = normalize(INPUTS[0])
    try:
        for flag in fresh.vocabulary.all_flags:
            compile_items(fresh, ir, (flag,))
        assert compile_items(fresh, ir, ("-Oz", "-dce", "-O1")).ok
    finally:
        stop_servers(fresh._compile.__self__)


@pytest.fixture(scope="module")
def counter(opt):
    counter = llvm_instruction_counter(opt)
    if counter is None:
        pytest.skip("no shared libLLVM named by llvm-config")
    return counter


@pytest.mark.parametrize(
    "raw", [STRUCT, SWITCH, INVOKE], ids=["struct", "switch", "invoke"]
)
def test_hand_written_counts_match_the_llvm_walk(counter, raw):
    assert count_instructions(normalize(raw)) == counter(raw) > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_counts_of_server_outputs_match_the_llvm_walk(backend, pool, counter, data):
    text = data.draw(st.sampled_from(INPUTS + HAND_WRITTEN + [TWO_WAY]))
    items = data.draw(flag_lists(backend.vocabulary))
    ok, out = pool.compile(items, text, LIMIT)
    assume(ok)
    assert count_instructions(normalize(out)) == counter(out)


def test_a_compile_past_the_timeout_fails_and_the_next_gets_a_fresh_server(
    backend, started
):
    timed = LlvmBackend(backend.opt_path, timeout=1e-6, extra_args=SERVER_ARGS)
    ir = normalize((DATA / "sample.ll").read_text())
    outcome = compile_items(timed, ir, ("-Oz",))
    assert not outcome.ok
    assert outcome.diagnostic.message == (
        f"{timed.opt_path} -S -enable-new-pm=0 -Oz exceeded 1e-06s"
    )
    assert len(started) == 1 and started[0].poll() is not None
    timed.timeout = LIMIT
    assert compile_items(timed, ir, ("-Oz",)).ok
    assert len(started) == 2 and started[1].poll() is None


def test_a_server_killed_while_idle_is_replaced(backend, started):
    fresh = LlvmBackend(backend.opt_path, extra_args=SERVER_ARGS)
    ir = normalize((DATA / "sample.ll").read_text())
    first = compile_items(fresh, ir, ("-dce",))
    assert first.ok and len(started) == 1
    os.kill(started[0].pid, signal.SIGKILL)
    started[0].wait()
    assert compile_items(fresh, ir, ("-dce",)) == first
    assert len(started) == 2


def test_a_server_that_dies_costs_one_compile_and_its_stderr_is_the_message(
    tmp_path,
):
    fake = tmp_path / "dying-optd"
    fake.write_text('#!/bin/sh\nread request\necho "fake optd: $1 crashed" >&2\nexit 3\n')
    fake.chmod(0o755)
    pool = ServerPool(str(fake), "/usr/bin/opt")
    text = INPUTS[0]
    assert pool.compile(("-dce",), text, LIMIT) == (
        False,
        "fake optd: /usr/bin/opt crashed",
    )
    assert pool.compile(("-dce",), text, LIMIT) == (
        False,
        "fake optd: /usr/bin/opt crashed",
    )


def write_corpus_and_predictions(tmp_path, lists):
    """A corpus of ``len(lists)`` mini functions, and predictions that give
    function *i* the pass list ``lists[i]``."""
    corpus, predictions = tmp_path / "corpus.jsonl", tmp_path / "predictions.jsonl"
    assert main(["gen-mini-corpus", "--n", str(len(lists)), "--output", str(corpus)]) == 0
    ids = [json.loads(line)["id"] for line in corpus.read_text().splitlines()]
    write_records([Prediction(id_, items) for id_, items in zip(ids, lists)], predictions)
    return corpus, predictions


def test_predict_on_llvm_builds_no_server(opt, tmp_path, monkeypatch):
    if shutil.which("g++") is None:
        pytest.skip("no g++ on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    corpus, predictions = write_corpus_and_predictions(tmp_path, ["-dce", "-Oz"])
    out = tmp_path / "predicted.jsonl"
    code = main([
        "predict", "--corpus", str(corpus), "--method", "file",
        "--predictions-file", str(predictions), "--output", str(out),
        "--backend", "llvm", "--opt-path", opt,
    ])
    assert code == 0
    assert [p.pass_list for p in read_records(Prediction, out)] == ["-dce", "-Oz"]
    assert not list((tmp_path / "cache").rglob("optd-*"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("subcommand", ["autotune", "evaluate"])
def test_every_server_a_subcommand_starts_is_reaped_when_it_returns(
    backend, servers, tmp_path, subcommand, workers
):
    corpus, predictions = write_corpus_and_predictions(tmp_path, ["-dce"] * 4)
    out = tmp_path / "out.jsonl"
    if subcommand == "autotune":
        flags = ["--budget-evals", "4", "--seed", "1"]
    else:
        flags = ["--predictions", str(predictions)]
    code = main([
        subcommand, "--corpus", str(corpus), "--output", str(out), *flags,
        "--workers", str(workers),
        "--backend", "llvm", "--opt-path", backend.opt_path, "--opt-arg=-enable-new-pm=0",
    ])
    assert code == 0
    fates = servers()
    # each worker compiles, and stops and reaps the server it started itself
    assert fates and all(reaper == starter for starter, reaper in fates.values())
    starters = Counter(starter for starter, _ in fates.values())
    if workers == 1:
        assert starters == {os.getpid(): 1}
    else:
        assert sorted(starters.values()) == [1, 1] and os.getpid() not in starters
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert manifest["compile_path"] == backend.compile_path
    assert manifest["workers_run_as"] == ("inline", "forked processes")[workers - 1]


def test_forked_workers_start_their_own_servers_and_leave_the_parents_up(
    backend, servers
):
    fresh = LlvmBackend(backend.opt_path, extra_args=SERVER_ARGS)
    ir = normalize((DATA / "sample.ll").read_text())
    first = compile_items(fresh, ir, ("-dce",))
    assert first.ok and list(servers().values()) == [(os.getpid(), None)]
    (parents,) = servers()
    lists = [("-dce",), ("-gvn",), ("-instcombine",), ("-Oz",)]
    outcomes = map_in_order(lambda items: compile_items(fresh, ir, items), lists, 2)
    assert outcomes[0] == first and all(outcome.ok for outcome in outcomes)
    assert compile_items(fresh, ir, ("-dce",)) == first  # on the parent's server
    fates = servers()
    assert fates.pop(parents) == (os.getpid(), None)
    assert len({starter for starter, _ in fates.values()}) == len(fates) == 2
    assert all(starter == reaper != os.getpid() for starter, reaper in fates.values())
    del fresh
    assert servers()[parents] == (os.getpid(), os.getpid())


# A stand-in for optd: answers each request with its input unchanged, as a
# server that ran no pass would, but sleeps on a request whose list holds -gvn.
SLEEPY_OPTD = """#!{python}
import sys, time

while True:
    head = sys.stdin.buffer.readline()
    if not head:
        break
    size, *flags = head.split()
    text = sys.stdin.buffer.read(int(size))
    if b"-gvn" in flags:
        time.sleep(60)
    sys.stdout.buffer.write(b"%d %d\\n%s" % (0, len(text), text))
    sys.stdout.buffer.flush()
"""


def test_a_compile_that_times_out_on_a_forked_worker_costs_only_that_compile(
    tmp_path, private_cache, monkeypatch, servers
):
    sleepy = tmp_path / "sleepy-optd"
    sleepy.write_text(SLEEPY_OPTD.replace("{python}", sys.executable))
    sleepy.chmod(0o755)
    monkeypatch.setattr(llvm, "server_binary", lambda opt_path, version: str(sleepy))
    opt, timeout = write_stub(tmp_path), "1"
    # worker 0 scores functions 0 and 2, worker 1 functions 1 and 3
    corpus, predictions = write_corpus_and_predictions(
        tmp_path, ["-gvn", "-dce", "-dce", "-dce"]
    )
    rows = tmp_path / "rows.jsonl"
    code = main([
        "evaluate", "--corpus", str(corpus), "--predictions", str(predictions),
        "--output", str(rows), "--workers", "2", "--timeout", timeout,
        "--backend", "llvm", "--opt-path", opt, "--opt-arg=-enable-new-pm=0",
    ])
    assert code == 0
    scored = read_records(EvalRow, rows)
    assert [row.prediction_failed for row in scored] == [True, False, False, False]
    assert all(row.predicted_count == row.oz_count for row in scored)
    fates = servers()
    # worker 0's server was killed at -gvn, and its next compile started one
    assert sorted(Counter(starter for starter, _ in fates.values()).values()) == [1, 2]
    assert all(starter == reaper != os.getpid() for starter, reaper in fates.values())
    # the failure is a classified outcome with the time limit's message
    timed = LlvmBackend(opt, timeout=float(timeout), extra_args=SERVER_ARGS)
    assert timed.compile_path["path"] == "opt-server"
    ir = normalize((DATA / "sample.ll").read_text())
    lists = [("-gvn",), ("-dce",), ("-dce",)]  # worker 0 compiles the first and last
    outcomes = map_in_order(lambda items: compile_items(timed, ir, items), lists, 2)
    assert outcomes[0].diagnostic == diagnostic_from_message(
        f"{opt} -S -enable-new-pm=0 -gvn exceeded {timeout}s"
    )
    assert outcomes[1] == outcomes[2] and outcomes[2].ok
