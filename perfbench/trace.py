"""The traced run: one pipeline round inside this process, every layer wrapped.

The program is measured from outside. Before the round, `Tracer.install`
replaces, in the loaded `passtune` modules, the functions listed in
`LAYERS`: the class attribute `apply` of both backends, the module-level
names that `backend/mini.py` and `backend/llvm.py` import, the entries of
`mini_passes.PASSES`, the autotuner phases, and the dataset, predictor and
evaluator entry points. `Tracer.uninstall` puts the originals back.

Coarse layers (a subcommand, a tuner phase, one `apply`) are recorded as
spans: name, start, end, parent, workload. Hot leaves (normalize, parse,
each mini pass, the `opt` process) are only counted and timed, and their
time is subtracted from the enclosing span's self time. The tracer's own
work inside a span (rendering a mini pass's input state to key
`mini_passes.state_repeat_share`) is timed as the leaf `trace.render` and
subtracted from the self time of that span and the inclusive time of every
span open in the same thread. Spans stay in memory and are written out when
the round ends.

A wrapped name that no longer exists, or a layer the workload does not
use, is reported as absent (its metrics read 0), never as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from perfbench.workloads import (
    OK_EXITS,
    ROOT,
    BenchError,
    Files,
    Workload,
    setup_argv,
    stage_argvs,
)

MINI_PASSES = ("mem2reg", "constfold", "instcombine", "gvn", "dce", "simplifycfg")
SUBCOMMANDS = (
    "ingest", "autotune", "dataset", "single-pass-dataset", "predict", "evaluate", "report",
)
UNKNOWN_FLAG = re.compile(r"Unknown command line argument")

# (module, attribute, kind, layer name). kind "span" records a span, "leaf"
# only a count and a time; "apply" is a span that also inspects the outcome.
LAYERS = (
    ("passtune.ircore", "normalize", "leaf", "ircore.normalize"),
    ("passtune.ircore", "count_instructions", "leaf", "ircore.count_instructions"),
    ("passtune.ircore", "IrFunction.from_raw", "span", "ircore.from_raw"),
    ("passtune.backend.mini_ir", "parse_function", "leaf", "mini_ir.parse_function"),
    ("passtune.backend.mini_ir", "verify_function", "leaf", "mini_ir.verify_function"),
    ("passtune.backend.mini_ir", "render_function", "leaf", "mini_ir.render_function"),
    ("passtune.backend.mini_ir", "clone_function", "leaf", "mini_ir.clone_function"),
    ("passtune.backend.mini", "MiniBackend.apply", "apply", "mini.apply"),
    ("passtune.backend.llvm", "LlvmBackend.apply", "apply", "llvm.apply"),
    ("passtune.autotuner", "random_search", "span", "autotuner.search"),
    ("passtune.autotuner", "minimize_pass_list", "span", "autotuner.minimize"),
    ("passtune.autotuner", "broadcast_best_lists", "span", "autotuner.broadcast"),
    ("passtune.dataset", "split", "span", "dataset.split"),
    ("passtune.dataset", "build_pass_dataset", "span", "dataset.pass_records"),
    ("passtune.dataset", "build_single_pass_dataset", "span", "dataset.single_pass"),
    ("passtune.predictor", "RetrievalIndex.build", "span", "predictor.index_build"),
    ("passtune.predictor", "predict_retrieval", "span", "predictor.retrieval"),
    ("passtune.evaluator", "evaluate_predictions", "span", "evaluator.evaluate"),
    ("passtune.evaluator", "reports", "span", "evaluator.reports"),
)
# Spans whose compilations are counted as theirs.
PHASES = (
    "autotuner.search", "autotuner.minimize", "autotuner.broadcast",
    "dataset.pass_records", "dataset.single_pass", "evaluator.evaluate",
)
TUNER_PHASES = PHASES[:3]


class Tracer:
    """Spans, leaf counters and outcome counts for one traced round."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.t0 = time.perf_counter()
        # (name, start, end, parent index or None, leaf seconds inside, ok,
        #  tracer seconds inside)
        self.spans: list[Any] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = self._stack()
        self._compiled: set[int] = set()
        self._pass_states: set[int] = set()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span; a worker thread's first span hangs off the main one."""
        stack = self._stack()
        owner = stack or self._main_stack
        parent = owner[-1][0] if owner else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, 0.0, None, 0.0]  # span index, leaf seconds, ok, tracer seconds
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield frame
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, frame[1], frame[2], frame[3])

    def _leaf_done(self, name: str, seconds: float) -> None:
        with self._lock:
            rec = self.leaves.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += seconds
        stack = self._stack()
        if stack:
            stack[-1][1] += seconds

    def _tracer_work_done(self, seconds: float) -> None:
        """Take the tracer's own work out of every span open in this thread."""
        self._leaf_done("trace.render", seconds)
        for frame in self._stack():
            frame[3] += seconds

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf_done(name, time.perf_counter() - start)

        return leaf

    def wrap_span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def wrap_apply(self, name: str, fn: Callable) -> Callable:
        """A backend's `apply`: a span plus outcome and repeat accounting."""

        @functools.wraps(fn)
        def apply(backend, ir, passes):
            key = hash((ir.text, tuple(passes.items)))
            with self._lock:
                repeat = key in self._compiled
                self._compiled.add(key)
                self.counts["backend.compiles"] += 1
                self.counts["backend.repeat_compiles"] += repeat
            with self.span(name) as frame:
                frame[2] = False
                outcome = fn(backend, ir, passes)
                frame[2] = bool(outcome.ok)
            if not outcome.ok and UNKNOWN_FLAG.search(outcome.diagnostic.message):
                with self._lock:
                    self.counts[f"{name.split('.')[0]}.unknown_flag_failed"] += 1
            return outcome

        return apply

    def wrap_pass(self, name: str, fn: Callable, render: Callable) -> Callable:
        """A mini pass; also counts (state, pass) applications seen before."""

        @functools.wraps(fn)
        def run_pass(function):
            start = time.perf_counter()
            key = hash((name, render(function)))
            self._tracer_work_done(time.perf_counter() - start)
            repeat = key in self._pass_states
            self._pass_states.add(key)
            self.counts["mini_passes.applications"] += 1
            self.counts["mini_passes.repeats"] += repeat
            start = time.perf_counter()
            try:
                return fn(function)
            finally:
                self._leaf_done(name, time.perf_counter() - start)

        return run_pass

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original: Any, replacement: Any) -> None:
        """Rebind every `passtune` module-level name bound to ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("passtune") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import passtune.cli  # noqa: F401  (loads every module the pipeline uses)

        try:  # the unwrapped renderer names a pass's input state
            from passtune.backend import mini_passes
            from passtune.backend.mini_ir import render_function
        except ImportError:
            mini_passes = None

        for mod_name, attr, kind, layer in LAYERS:
            try:
                module = importlib.import_module(mod_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner)[name]  # as stored, so a classmethod shows as one
            except (ImportError, AttributeError, KeyError):
                self.absent.append(layer)
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrap = {"leaf": self.wrap_leaf, "span": self.wrap_span, "apply": self.wrap_apply}
            wrapped = wrap[kind](layer, fn)
            if isinstance(owner, type):
                self._set(owner, name, classmethod(wrapped) if is_classmethod else wrapped)
            else:
                self._replace_everywhere(fn, wrapped)

        for p in MINI_PASSES:
            flag = f"-{p}"
            if mini_passes is None or flag not in getattr(mini_passes, "PASSES", {}):
                self.absent.append(f"mini_passes.{p}")
                continue
            self._undo.append((mini_passes.PASSES, flag, mini_passes.PASSES[flag]))
            mini_passes.PASSES[flag] = self.wrap_pass(
                f"mini_passes.{p}", mini_passes.PASSES[flag], render_function
            )

        try:
            from passtune.backend import llvm
            real = llvm.subprocess
        except (ImportError, AttributeError):
            self.absent.append("llvm.opt_process")
        else:
            self._set(llvm, "subprocess", _SubprocessProxy(real, self.wrap_leaf(
                "llvm.opt_process", real.run)))

        try:  # one draw per single-pass attempt; the tuner's own draws stay unwrapped
            from passtune import dataset
            draw = dataset.sample_items
        except (ImportError, AttributeError):
            self.absent.append("dataset.single_pass.attempts")
        else:
            self._set(dataset, "sample_items", self.wrap_leaf("dataset.sample_items", draw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        for i, (name, start, end, _, leaf_s, _, tracer_s) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            rec = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["inclusive_s"] += end - start - tracer_s
            rec["self_s"] += max(0.0, end - start - covered - leaf_s)
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "inclusive_s": seconds, "self_s": seconds}
        return out

    def phase_compiles(self) -> tuple[Counter, int, int]:
        """Compilations per phase, and ok/attempted compilations in the tuner."""
        per_phase: Counter = Counter()
        tuner_ok = tuner_all = 0
        for name, _, _, parent, _, ok, _ in self.spans:
            if not name.endswith(".apply"):
                continue
            while parent is not None and self.spans[parent][0] not in PHASES:
                parent = self.spans[parent][3]
            if parent is None:
                continue
            phase = self.spans[parent][0]
            per_phase[phase] += 1
            if phase in TUNER_PHASES:
                tuner_all += 1
                tuner_ok += bool(ok)
        return per_phase, tuner_ok, tuner_all

    def write(self, path: Path, metrics: dict) -> None:
        doc = {
            "workload": self.workload,
            "absent": sorted(set(self.absent)),
            "metrics": metrics,
            "summary": self.summary(),
            "spans_fields": ["name", "start_s", "end_s", "parent", "workload"],
            "spans": [
                [n, round(s - self.t0, 6), round(e - self.t0, 6), p, self.workload]
                for n, s, e, p, *_ in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n")


class _SubprocessProxy:
    """Stands in for the `subprocess` module inside `backend/llvm.py`."""

    def __init__(self, real: Any, run: Callable) -> None:
        self._real = real
        self.run = run

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def opt_start_ms(wl: Workload) -> float | None:
    """Median of five `opt --version` runs: the process start of one compile."""
    if "llvm" not in wl.backend:
        return None
    from passtune.backend.llvm import resolve_opt_path

    opt = resolve_opt_path()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([opt, "--version"], capture_output=True, check=True)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def collect(tracer: Tracer, start_ms: float | None, untraced_pipeline_s: float) -> dict:
    summary = tracer.summary()
    per_phase, tuner_ok, tuner_all = tracer.phase_compiles()
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, rec in summary.items():
        values[f"{name}.calls"] = rec["calls"]
        values[f"{name}.s"] = rec["inclusive_s"]
    for phase in PHASES:
        if f"{phase}.s" in values:
            values[f"{phase}.compiles"] = per_phase[phase]
    for b in ("mini", "llvm"):
        if f"{b}.apply.calls" in values:
            values[f"{b}.apply.failed"] = sum(
                1 for s in tracer.spans if s[0] == f"{b}.apply" and not s[5]
            )
    if "llvm.apply.calls" in values:
        values["llvm.unknown_flag_failed"] = counts["llvm.unknown_flag_failed"]
    if start_ms is not None:
        values["llvm.process_start_ms"] = start_ms
    if counts["mini_passes.applications"]:
        values["mini_passes.state_repeat_share"] = (
            counts["mini_passes.repeats"] / counts["mini_passes.applications"]
        )
    if tuner_all:
        values["autotuner.ok_share"] = tuner_ok / tuner_all
    if "dataset.sample_items" in tracer.leaves:
        values["dataset.single_pass.attempts"] = tracer.leaves["dataset.sample_items"][0]
    values["backend.compiles"] = counts["backend.compiles"]
    values["backend.repeat_compiles"] = counts["backend.repeat_compiles"]
    pipeline_s = sum(
        values.get(f"cli.{sub}.s", 0.0) for sub in SUBCOMMANDS if sub != "ingest"
    )
    values["trace.pipeline_s"] = pipeline_s
    values["trace.overhead_ratio"] = pipeline_s / untraced_pipeline_s

    metrics = {}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for name, unit in ((m["name"], m["unit"]) for m in per_layer):
        if name not in values:
            tracer.absent.append(name.rsplit(".", 1)[0])
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return metrics


def traced_round(
    wl: Workload, seed: int, files: Files, out: Path, untraced_pipeline_s: float
) -> tuple[dict, Path]:
    """Set-up and one round through `passtune.cli.main`, traced."""
    from passtune import cli

    start_ms = opt_start_ms(wl)
    tracer = Tracer(wl.name)
    tracer.install()
    log = files.work / "passtune.log"
    try:
        steps = [("ingest", setup_argv(wl, files)), *stage_argvs(wl, seed, files)]
        with open(log, "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            for name, argv in steps:
                with tracer.span(f"cli.{name}"):
                    code = cli.main(argv)
                if code not in OK_EXITS:
                    raise BenchError(f"traced {name} exited {code}; see {log}")
    finally:
        tracer.uninstall()
    metrics = collect(tracer, start_ms, untraced_pipeline_s)
    tracer.write(out, metrics)
    absent = sorted(set(tracer.absent))
    print(f"absent layers: {', '.join(absent) or 'none'}")
    return metrics, out

