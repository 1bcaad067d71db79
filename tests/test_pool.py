"""The compile pool: every stage that compiles item by item maps through
``util.map_in_order``, so its compiles overlap and its output keeps input
order and does not depend on the number of workers or on what they run
as, threads or forked processes."""

import gc
import os
import shutil
import signal
import sys
import threading
import time
from dataclasses import replace

import pytest

from passtune.autotuner import SearchBudget, autotune_corpus, broadcast_best_lists
from passtune.backend import mini
from passtune.backend.passlist import OZ_ITEMS
from passtune.cli import main
from passtune.dataset import build_pass_dataset, build_single_pass_dataset
from passtune.evaluator import evaluate_predictions
from passtune.predictor import Prediction
from passtune.util import WorkerError, map_in_order

from test_evaluator import DATA_TYPE_ERROR, claiming

TARGETS = ("-dce", "-gvn", "-mem2reg")


def test_map_in_order_keeps_input_order():
    assert map_in_order(lambda x: x * x, range(7), 3) == [x * x for x in range(7)]
    assert map_in_order(str, [], 2) == []


@pytest.mark.parametrize("workers", [0, -1])
def test_map_in_order_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        map_in_order(str, [1], workers)


def test_map_in_order_raises_the_first_failure_in_input_order():
    def fail_on_odd(x):
        if x % 2:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError, match="1"):
        map_in_order(fail_on_odd, range(6), 2)


# --- the fork carrier ---------------------------------------------------------


@pytest.fixture
def no_child_left():
    """The test starts and ends with no child process, running or unreaped.

    Earlier tests' optd servers that only the garbage collector frees are
    reaped first.
    """
    gc.collect()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returned to this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def test_forked_workers_keep_input_order(no_child_left, forks):
    out = map_in_order(lambda x: (x * x, os.getpid()), range(7), 3, fork=True)
    assert [square for square, _ in out] == [x * x for x in range(7)]
    assert {pid for _, pid in out} == set(forks)
    assert len(forks) == 3 and os.getpid() not in forks


def test_forked_workers_start_one_child_per_item_at_most(no_child_left, forks):
    assert map_in_order(str, range(3), 5, fork=True) == ["0", "1", "2"]
    assert len(forks) == 3
    assert map_in_order(str, range(3), 1, fork=True) == ["0", "1", "2"]
    assert map_in_order(str, [4], 2, fork=True) == ["4"]
    assert len(forks) == 3  # one worker or one item runs here


@pytest.mark.parametrize("failing,raised", [((2, 3), ValueError), ((3, 4), KeyError)])
def test_forked_workers_raise_the_lower_index_failure(no_child_left, failing, raised):
    # worker 0 maps the even items, worker 1 the odd ones, and each fails once
    def fail(x):
        if x in failing:
            raise (ValueError if x % 2 == 0 else KeyError)(x)
        return x

    with pytest.raises(raised) as caught:
        map_in_order(fail, range(6), 2, fork=True)
    assert caught.value.args == (min(failing),)
    assert isinstance(caught.value.__cause__, WorkerError)
    assert "in fail\n    raise" in str(caught.value.__cause__)  # the worker's traceback


def test_a_forked_worker_that_exits_is_an_error(no_child_left):
    def exit_on_three(x):
        if x == 3:
            os._exit(7)
        return x

    with pytest.raises(WorkerError, match=r"worker 1 \(exit status 7\) sent no usable reply"):
        map_in_order(exit_on_three, range(6), 2, fork=True)


def test_an_interrupt_kills_and_reaps_the_forked_workers(no_child_left):
    parent = os.getpid()

    def interrupt_on_one(x):
        if x == 1:
            time.sleep(0.5)  # every worker has been forked by now
            os.kill(parent, signal.SIGINT)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_in_order(interrupt_on_one, range(4), 2, fork=True)
    assert time.monotonic() - start < 30


def test_a_process_with_other_threads_maps_on_threads(no_child_left, forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        pids = map_in_order(lambda _: os.getpid(), range(4), 2, fork=True)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert pids == [os.getpid()] * 4 and forks == []


# --- the stages on threads ------------------------------------------------------


class _Wrapped:
    """A mini backend with a hook around each compile, run on threads."""

    in_process = False

    def __init__(self) -> None:
        self.inner = mini.MiniBackend()
        self.lock = threading.Lock()

    @property
    def vocabulary(self):
        return self.inner.vocabulary


class MeetingBackend(_Wrapped):
    """The first two compiles wait for each other, so they finish only if
    two threads compile at once; run one at a time, the barrier breaks."""

    def __init__(self) -> None:
        super().__init__()
        self.barrier = threading.Barrier(2, timeout=10)
        self.calls = 0

    def apply(self, ir, passes):
        with self.lock:
            self.calls += 1
            call = self.calls
        if call <= 2:
            self.barrier.wait()
        return self.inner.apply(ir, passes)


class LastFirstBackend(_Wrapped):
    """Compiles of the first item wait until a compile of the last one has
    finished, so the last item finishes first; ``finished`` logs items in
    the order their compiles end."""

    def __init__(self, item_of, first, last) -> None:
        super().__init__()
        self.item_of, self.first, self.last = item_of, first, last
        self.last_done = threading.Event()
        self.finished = []

    def apply(self, ir, passes):
        item = self.item_of(ir, passes)
        if item == self.first:
            assert self.last_done.wait(10), "the last item never compiled"
        outcome = self.inner.apply(ir, passes)
        with self.lock:
            self.finished.append(item)
        if item == self.last:
            self.last_done.set()
        return outcome


def _single_pass(backend, corpus, workers):
    return build_single_pass_dataset(
        backend, corpus, TARGETS, per_pass=2, max_prefix_len=1, seed=4, workers=workers
    )


@pytest.fixture(scope="module")
def tuned(corpus20):
    results, _ = autotune_corpus(
        mini.MiniBackend(), corpus20[:6], SearchBudget.evaluation_count(6), seed=2
    )
    return results


def _predictions(backend, corpus, tuned):
    """Predictions of every kind for ``corpus``: a tuned list, -Oz, claims
    that copy the compiler, broken claimed code, an invalid list, and none."""
    by_id = {r.function_id: r.best_pass_list for r in tuned}
    fns = corpus[:6]
    return [
        Prediction(fns[0].id, by_id[fns[0].id]),
        Prediction(fns[1].id, "-Oz"),
        claiming(backend, fns[2], "-dce"),
        claiming(backend, fns[3], "-gvn -dce", predicted_code=DATA_TYPE_ERROR),
        replace(claiming(backend, fns[4], "-mem2reg"), predicted_output_count=3),
        Prediction(fns[5].id, "-no-such-pass", parse_failed=True),
    ]  # corpus[6:] have none


def test_single_pass_targets_compile_at_once(corpus20):
    records = _single_pass(MeetingBackend(), corpus20, workers=2)
    assert records == _single_pass(mini.MiniBackend(), corpus20, workers=1)


def test_pass_records_compile_at_once(corpus20, tuned):
    records, failures = build_pass_dataset(tuned, corpus20, MeetingBackend(), workers=2)
    assert (records, failures) == build_pass_dataset(tuned, corpus20, mini.MiniBackend())


def test_evaluated_functions_compile_at_once(backend, corpus20, tuned):
    predictions = _predictions(backend, corpus20, tuned)
    scored = evaluate_predictions(predictions, corpus20[:8], MeetingBackend(), workers=2)
    assert scored == evaluate_predictions(predictions, corpus20[:8], mini.MiniBackend())


def test_single_pass_records_keep_target_order(corpus20):
    slow = LastFirstBackend(
        lambda ir, passes: passes.items if len(passes.items) == 1 else None,
        (TARGETS[0],),
        (TARGETS[-1],),
    )
    records = _single_pass(slow, corpus20, workers=len(TARGETS))
    assert slow.finished.index((TARGETS[-1],)) < slow.finished.index((TARGETS[0],))
    assert records == _single_pass(mini.MiniBackend(), corpus20, workers=1)
    assert list(dict.fromkeys(r.target_pass for r in records)) == list(TARGETS)


def test_pass_records_and_rows_keep_input_order(backend, corpus20, tuned):
    fns = corpus20[:3]
    first, last = fns[0].ir.text, fns[-1].ir.text

    def by_input(ir, passes):
        return ir.text

    slow = LastFirstBackend(by_input, first, last)
    records, _ = build_pass_dataset(tuned[:3], fns, slow, workers=3)
    assert slow.finished.index(last) < slow.finished.index(first)
    assert [r.function_id for r in records] == [fn.id for fn in fns]

    slow = LastFirstBackend(by_input, first, last)
    predictions = _predictions(backend, corpus20, tuned)[:3]  # those of fns
    summary, rows = evaluate_predictions(predictions, fns, slow, workers=3)
    assert slow.finished.index(last) < slow.finished.index(first)
    assert [row.function_id for row in rows] == [fn.id for fn in fns]
    assert (summary, rows) == evaluate_predictions(predictions, fns, backend)


class ThreadedMini(mini.MiniBackend):
    """The mini backend on threads, sharing its memos as a library caller may."""

    in_process = False


def _every_stage(corpus, workers, backend_class=mini.MiniBackend):
    """Tune, broadcast, both datasets and evaluation on a fresh backend."""
    backend = backend_class()
    budget = SearchBudget.evaluation_count(6)
    tuned, stats = autotune_corpus(
        backend, corpus[:8], budget, seed=5, broadcast=False, workers=workers
    )
    by_id = {r.function_id: r for r in tuned}
    predictions = _predictions(backend, corpus, tuned)
    return {
        "tuned": (tuned, stats),
        "broadcast": broadcast_best_lists(backend, corpus[:8], by_id, workers),
        "pass records": build_pass_dataset(tuned, corpus, backend, workers=workers),
        "single-pass records": _single_pass(backend, corpus, workers),
        "evaluated": [
            evaluate_predictions(predictions, corpus[:10], backend, backup, workers)
            for backup in (False, True)
        ],
    }


@pytest.mark.parametrize(
    "backend_class", [mini.MiniBackend, ThreadedMini], ids=["forks", "threads"]
)
def test_every_stage_is_the_same_at_one_and_three_workers(
    corpus20, monkeypatch, backend_class
):
    # each run starts cold with a small memo, so workers miss and clear it,
    # and threads switch often, so a lost update in a shared memo would show
    monkeypatch.setattr(mini, "MEMO_ENTRIES", 7)
    serial = _every_stage(corpus20, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        parallel = _every_stage(corpus20, workers=3, backend_class=backend_class)
    finally:
        sys.setswitchinterval(interval)
    assert serial == parallel
    tuned, _ = serial["tuned"]
    assert any(r.best_pass_list != " ".join(OZ_ITEMS) for r in tuned)


def test_llvm_outputs_are_byte_identical_at_one_and_two_workers(tmp_path):
    if shutil.which("opt") is None:
        pytest.skip("no opt on PATH")
    corpus, tuned = tmp_path / "corpus.jsonl", tmp_path / "tuned.jsonl"
    llvm = ["--backend", "llvm", "--opt-arg=-enable-new-pm=0"]
    assert main(["gen-mini-corpus", "--n", "6", "--seed", "2", "--output", str(corpus)]) == 0
    assert main([
        "autotune", "--corpus", str(corpus), "--output", str(tuned),
        "--budget-evals", "2", "--max-len", "2", "--no-minimize", "--no-broadcast",
        "--seed", "1", *llvm,
    ]) == 0
    outputs = {}
    for workers in ("1", "2"):
        single, records = tmp_path / f"single{workers}", tmp_path / f"records{workers}"
        single_code = main([
            "single-pass-dataset", "--corpus", str(corpus), "--output", str(single),
            "--passes=-dce,-gvn,-instcombine,-mem2reg,-simplifycfg,-sroa",
            "--per-pass", "2", "--seed", "3", "--workers", workers, *llvm,
        ])
        records_code = main([
            "dataset", "--corpus", str(corpus), "--tune-results", str(tuned),
            "--output", str(records), "--workers", workers, *llvm,
        ])
        outputs[workers] = (
            single_code, records_code, single.read_bytes(), records.read_bytes()
        )
    assert outputs["1"] == outputs["2"]
    assert outputs["1"][2] and outputs["1"][3]
