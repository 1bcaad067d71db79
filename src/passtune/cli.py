"""Command-line pipeline over files.

Subcommands compose: ``ingest`` (or ``gen-mini-corpus``) produces a
corpus, ``autotune`` a results file, ``dataset``/``single-pass-dataset``
training records, ``predict`` a predictions file, ``evaluate`` per-row
scores plus a summary, and ``report`` CSV breakdowns. Every output gets
a sibling ``<name>.manifest.json`` recording the resolved config, seed,
input digests, and tool version; for a compiling subcommand also what its
workers ran as (``workers_run_as``) and, on llvm, the ``compile_path`` (optd
server or ``opt`` processes, and why). Timestamps appear only there, so
reruns with identical inputs are byte-identical.

``--config file.json`` stands for the flags it names, inserted right after
the subcommand: argparse checks them like typed flags, and explicit flags win.

Each ``_cmd_*`` handler returns its per-item failures as messages; ``main``
alone prints them, one ``error: ...`` line each, and picks the exit code:
0 success, 2 configuration error (a usage error, or a ``ValueError`` or
``OSError``), 3 backend unavailable, 4 partial failure (some functions or
records failed; output written).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from passtune import __version__
from passtune.ircore import (
    DEFAULT_TOKEN_LIMIT,
    IrFunction,
    MalformedIrError,
    corpus_stats,
    dedup,
    read_corpus,
    split,
)
from passtune.util import (
    DEFAULT_MAX_LEN,
    DEFAULT_TIMEOUT_SECONDS,
    DEFAULT_WALL_CLOCK_SECONDS,
    positive_seconds,
    usable_cpus,
    worker_count,
    workers_run_as,
)
from passtune.util import file_digest, read_records, unique_ids, write_records

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_BACKEND_ERROR = 3
EXIT_PARTIAL_FAILURE = 4


@dataclass(frozen=True)
class _IngestRow:
    """One function to ingest: a JSON Lines row, or a whole .ll file."""

    id: str
    raw_text: str
    source_dataset: Optional[str] = None


# ---------------------------------------------------------------------------
# shared plumbing


def _make_backend(args: argparse.Namespace):
    """The backend the flags name; only that backend is imported."""
    if args.backend == "mini":
        from passtune.backend.mini import MiniBackend

        backend = MiniBackend()
    else:
        from passtune.backend.llvm import LlvmBackend

        backend = LlvmBackend(
            args.opt_path,
            timeout=args.timeout,
            extra_args=tuple(args.opt_arg or ()),
        )
    return backend


def _vocabulary(args: argparse.Namespace):
    """The vocabulary of the backend the flags name, which is not built."""
    if args.backend == "mini":
        from passtune.backend.mini import mini_vocabulary

        return mini_vocabulary()
    from passtune.backend.llvm import listed_vocabulary, resolve_opt_path

    return listed_vocabulary(resolve_opt_path(args.opt_path))[0]


def _how_compiled(args: argparse.Namespace, backend, items: int) -> dict:
    """The manifest entries that say how ``backend`` compiled: what the
    workers that mapped ``items`` items ran as and, where it can say, its
    compile path."""
    workers = min(args.workers, items)
    how = {"workers_run_as": workers_run_as(workers)}
    if hasattr(backend, "compile_path"):
        how["compile_path"] = backend.compile_path
    return how


def _resolve_budget(args: argparse.Namespace):
    from passtune.autotuner import SearchBudget

    if args.budget_evals is not None:
        return SearchBudget.evaluation_count(args.budget_evals)
    if args.budget_seconds is not None:
        return SearchBudget.wall_clock(args.budget_seconds)
    return SearchBudget.wall_clock(DEFAULT_WALL_CLOCK_SECONDS)


def _parse_fractions(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"bad split part {part!r}; use name=fraction,...")
        if name in out:
            raise ValueError(f"split part {name!r} given twice")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValueError(f"bad fraction in {part!r}") from None
    return out


def _checked(convert, check):
    """An argparse type: ``convert`` the text, then ``check`` the value.

    Checking at parse time means every subcommand and backend rejects a bad
    value the same way, before any work.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        try:
            return check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _parse_passes(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _derived_output(output: str | Path, tag: str) -> Path:
    p = Path(output)
    return p.with_name(f"{p.stem}.{tag}{p.suffix}")


class _NothingWritten(ValueError):
    """No output to write; ``failures`` are the per-item failures found first."""

    def __init__(self, message: str, failures: list[str]) -> None:
        super().__init__(message)
        self.failures = failures


def _write_manifest(
    path: Path,
    args: argparse.Namespace,
    inputs: Sequence[str],
    extra: Optional[dict] = None,
) -> None:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "config", "subcommand")
    }
    manifest = {
        "tool": "passtune",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": {str(Path(p)): file_digest(p) for p in inputs},
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _write_output(
    args: argparse.Namespace,
    records: Sequence,
    inputs: Sequence[str],
    extra: Optional[dict] = None,
    path: Optional[str | Path] = None,
) -> None:
    """Write ``records`` to ``path`` (default ``--output``), then its manifest."""
    out = Path(args.output if path is None else path)
    write_records(records, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"), args, inputs, extra)


def _read_per_function(cls: type, path: str | Path) -> list:
    """Records of ``cls``, one per ``function_id``; a repeat is an error."""
    return read_records(cls, path, check=unique_ids(attrgetter("function_id")))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ingest(args: argparse.Namespace) -> list[str]:
    functions: list[IrFunction] = []
    failures: list[str] = []
    for raw_path in args.inputs:
        path = Path(raw_path)
        if path.suffix == ".jsonl":
            rows = read_records(_IngestRow, path)
            label = args.source_dataset or path.stem
        else:  # one .ll file is one function
            try:
                rows = [_IngestRow(path.stem, path.read_text(encoding="utf-8"))]
            except UnicodeDecodeError:
                failures.append(f"{path}: not UTF-8 text")
                continue
            label = args.source_dataset or path.parent.name or "ingest"
        for row in rows:
            try:
                functions.append(
                    IrFunction.from_raw(
                        id=row.id,
                        source_dataset=(
                            label if row.source_dataset is None else row.source_dataset
                        ),
                        raw_text=row.raw_text,
                    )
                )
            except MalformedIrError as err:
                failures.append(f"{path}:{row.id}: {err}")
    if args.dedup:
        functions = dedup(functions)
    if not functions:
        raise _NothingWritten("no functions ingested", failures)
    ids = Counter(fn.id for fn in functions)
    repeated = [fid for fid, n in ids.items() if n > 1]
    if repeated:
        message = f"repeated function id(s): {', '.join(repeated)}"
        raise _NothingWritten(message, failures)
    if args.split:
        parts = split(functions, _parse_fractions(args.split), args.seed)
        outputs = {_derived_output(args.output, name): fns for name, fns in parts.items()}
    else:
        outputs = {args.output: functions}
    for out, fns in outputs.items():
        _write_output(args, fns, args.inputs, {"corpus_stats": corpus_stats(fns)}, out)
        print(f"wrote {len(fns)} functions to {out}")
    for key, value in corpus_stats(functions).items():
        print(f"{key} = {value}")
    return failures


def _cmd_gen_mini_corpus(args: argparse.Namespace) -> list[str]:
    from passtune.minigen import generate_corpus

    functions = generate_corpus(args.n, args.seed)
    _write_output(args, functions, [], {"corpus_stats": corpus_stats(functions)})
    print(f"wrote {len(functions)} functions to {args.output}")
    return []


def _cmd_autotune(args: argparse.Namespace) -> list[str]:
    from passtune.autotuner import autotune_corpus

    corpus = read_corpus(args.corpus)
    backend = _make_backend(args)
    budget = _resolve_budget(args)
    results, stats = autotune_corpus(
        backend,
        corpus,
        budget=budget,
        seed=args.seed,
        max_len=args.max_len,
        minimize=not args.no_minimize,
        broadcast=not args.no_broadcast,
        workers=args.workers,
    )
    _write_output(
        args,
        results,
        [args.corpus],
        {"stats": stats, **_how_compiled(args, backend, len(corpus))},
    )
    print(f"tuned {stats['functions_tuned']} functions -> {args.output}")
    mean_evaluations = stats["mean_evaluations_per_function"]
    print(f"mean_evaluations_per_function = {mean_evaluations:.2f}")
    print(f"overall_improvement_percent = {stats['overall_improvement_percent']:.4f}")
    return [f"baseline failed to compile: {fid}" for fid in stats["baseline_failures"]]


def _cmd_dataset(args: argparse.Namespace) -> list[str]:
    from passtune.autotuner import TuneResult
    from passtune.dataset import build_pass_dataset

    corpus = read_corpus(args.corpus)
    tune_results = _read_per_function(TuneResult, args.tune_results)
    backend = _make_backend(args)
    records, failures = build_pass_dataset(
        tune_results,
        corpus,
        backend,
        token_limit=args.token_limit,
        workers=args.workers,
    )
    truncated = sum(1 for r in records if r.truncated)
    _write_output(
        args,
        records,
        [args.corpus, args.tune_results],
        {
            "corpus_stats": corpus_stats(corpus),
            "records": len(records),
            "truncated": truncated,
            "record_errors": len(failures),
            **_how_compiled(args, backend, len(tune_results)),
        },
    )
    print(f"wrote {len(records)} records to {args.output} ({truncated} truncated)")
    return failures


def _cmd_single_pass_dataset(args: argparse.Namespace) -> list[str]:
    from passtune.dataset import build_single_pass_dataset

    corpus = read_corpus(args.corpus)
    backend = _make_backend(args)
    passes = (
        backend.vocabulary.passes if args.passes is None else _parse_passes(args.passes)
    )
    records = build_single_pass_dataset(
        backend,
        corpus,
        passes,
        per_pass=args.per_pass,
        max_prefix_len=args.max_prefix_len,
        seed=args.seed,
        token_limit=args.token_limit,
        workers=args.workers,
    )
    expected = len(passes) * args.per_pass
    truncated = sum(1 for r in records if r.truncated)
    _write_output(
        args,
        records,
        [args.corpus],
        {
            "corpus_stats": corpus_stats(corpus),
            "records": len(records),
            "expected_records": expected,
            "truncated": truncated,
            **_how_compiled(args, backend, len(passes)),
        },
    )
    print(f"wrote {len(records)} records to {args.output} ({truncated} truncated)")
    found = Counter(r.target_pass for r in records)
    return [
        f"{flag}: only {found[flag]} of {args.per_pass} unique records"
        for flag in passes
        if found[flag] < args.per_pass
    ]


def _cmd_predict(args: argparse.Namespace) -> list[str]:
    from passtune.autotuner import TuneResult
    from passtune.predictor import (
        ExternalPredictorError,
        FilePredictor,
        MissingPredictionError,
        ProcessPredictor,
        RetrievalIndex,
        build_frequency_table,
        predict_always_oz,
        predict_retrieval,
        predict_top_frequency,
    )

    corpus = read_corpus(args.corpus)
    inputs = [args.corpus]
    if args.method == "always-oz":
        predict = predict_always_oz
    elif args.method == "top-frequency":
        if not args.tune_results:
            raise ValueError("--method top-frequency requires --tune-results")
        table = build_frequency_table(_read_per_function(TuneResult, args.tune_results))
        inputs.append(args.tune_results)
        predict = partial(predict_top_frequency, frequency_table=table)
    elif args.method == "retrieval":
        if not (args.tune_results and args.train_corpus):
            raise ValueError(
                "--method retrieval requires --tune-results and --train-corpus"
            )
        train = read_corpus(args.train_corpus)
        index = RetrievalIndex.build(
            train, _read_per_function(TuneResult, args.tune_results)
        )
        inputs.extend([args.train_corpus, args.tune_results])
        predict = partial(predict_retrieval, index=index)
    elif args.method == "file":
        if not args.predictions_file:
            raise ValueError("--method file requires --predictions-file")
        predict = FilePredictor(args.predictions_file, _vocabulary(args)).predict
        inputs.append(args.predictions_file)
    else:  # command
        if not args.command:
            raise ValueError("--method command requires --command")
        predict = ProcessPredictor(
            shlex.split(args.command), _vocabulary(args), timeout=args.timeout
        ).predict
    failures: list[str] = []
    predictions = []
    for fn in corpus:
        try:
            predictions.append(predict(fn))
        except MissingPredictionError:
            failures.append(f"{fn.id}: no prediction in file")
        except ExternalPredictorError as err:
            failures.append(f"{fn.id}: {err}")
    _write_output(args, predictions, inputs)
    print(f"wrote {len(predictions)} predictions to {args.output}")
    return failures


def _cmd_evaluate(args: argparse.Namespace) -> list[str]:
    from passtune.evaluator import evaluate_predictions, write_summary
    from passtune.predictor import Prediction

    corpus = read_corpus(args.corpus)
    backend = _make_backend(args)
    predictions = _read_per_function(Prediction, args.predictions)
    summary, rows = evaluate_predictions(
        predictions,
        corpus,
        backend,
        use_oz_backup=args.oz_backup,
        workers=args.workers,
    )
    write_summary(summary, _derived_output(args.output, "summary"))
    _write_output(
        args,
        rows,
        [args.corpus, args.predictions],
        {"summary": summary, **_how_compiled(args, backend, len(corpus))},
    )
    for key, value in summary.items():
        print(f"{key} = {value}")
    scored = {row.function_id for row in rows}
    failures = [
        f"baseline failed to compile: {fn.id}" for fn in corpus if fn.id not in scored
    ]
    missing = sum(1 for row in rows if row.prediction_missing)
    return failures + ([f"{missing} functions had no prediction"] if missing else [])


def _cmd_report(args: argparse.Namespace) -> list[str]:
    from passtune.autotuner import TuneResult
    from passtune.evaluator import EvalRow, reports, write_report_csvs
    from passtune.predictor import Prediction

    rows = _read_per_function(EvalRow, args.rows)
    if not rows:
        raise ValueError(f"rows file {args.rows} is empty")
    predictions = _read_per_function(Prediction, args.predictions)
    tune_results = _read_per_function(TuneResult, args.tune_results)
    tables, beats = reports(rows, predictions, tune_results)
    novel = len(tables["novel_lists.csv"]) - 1  # less the header row
    paths = write_report_csvs(tables, args.output_dir)
    _write_manifest(
        Path(args.output_dir, "manifest.json"),
        args,
        [args.rows, args.predictions, args.tune_results],
        {
            "novel_lists": novel,
            "beats_autotuner": beats,
            "files": [p.name for p in paths],
        },
    )
    for path in paths:
        print(f"wrote {path}")
    print(f"novel_lists = {novel}")
    print(f"beats_autotuner = {beats}")
    return []


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passtune",
        description="Pass-ordering autotuner, dataset builder, and evaluation harness.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON file whose keys are flags of this subcommand (explicit flags win)",
    )
    common.add_argument("--seed", type=int, default=0, help="run seed (default 0)")

    backend_flags = argparse.ArgumentParser(add_help=False)
    backend_flags.add_argument(
        "--backend",
        choices=("mini", "llvm"),
        default="mini",
        help="compiler backend (default mini)",
    )
    backend_flags.add_argument(
        "--opt-path",
        default=None,
        help="LLVM opt executable (default: $PASSTUNE_OPT, then PATH)",
    )
    backend_flags.add_argument(
        "--opt-arg",
        action="append",
        default=None,
        metavar="ARG",
        help="extra argument passed through to opt (repeatable)",
    )
    backend_flags.add_argument(
        "--timeout",
        type=_checked(float, partial(positive_seconds, what="timeout")),
        default=DEFAULT_TIMEOUT_SECONDS,
        help=(
            "per-compilation timeout in seconds; under predict, which compiles "
            "nothing, the time limit of each predictor process (--method command)"
        ),
    )

    # The flags of the subcommands that compile item by item.
    compile_flags = argparse.ArgumentParser(add_help=False, parents=[backend_flags])
    compile_flags.add_argument(
        "--workers",
        type=_checked(int, worker_count),
        default=usable_cpus(),
        help=(
            "compilations run at once, one item each (default: the usable CPUs); "
            "outputs do not depend on it"
        ),
    )

    # Full flag names only, so a config key "max" is not read as --max-len.
    whole_names = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(
        dest="subcommand", required=True, metavar="SUBCOMMAND", parser_class=whole_names
    )

    p = sub.add_parser(
        "ingest",
        parents=[common],
        help="normalize raw IR files or rows into a corpus",
    )
    p.add_argument("inputs", nargs="+", help=".ll files or .jsonl rows with id/raw_text")
    p.add_argument("--output", required=True, help="corpus file to write (JSON Lines)")
    p.add_argument("--source-dataset", default=None, help="dataset label override")
    p.add_argument("--dedup", action="store_true", help="drop duplicate normalized texts")
    p.add_argument(
        "--split",
        default=None,
        metavar="NAME=FRAC,...",
        help="write disjoint splits next to --output instead of one file",
    )
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser(
        "gen-mini-corpus",
        parents=[common],
        help="generate a deterministic mini-IR corpus",
    )
    p.add_argument("--n", type=int, required=True, help="number of functions")
    p.add_argument("--output", required=True, help="corpus file to write")
    p.set_defaults(handler=_cmd_gen_mini_corpus)

    p = sub.add_parser(
        "autotune",
        parents=[common, compile_flags],
        help="search the best pass list per function",
    )
    p.add_argument("--corpus", required=True, help="corpus file from ingest/gen-mini-corpus")
    p.add_argument("--output", required=True, help="results file to write")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument(
        "--budget-evals",
        type=int,
        default=None,
        help="evaluation-count budget per function (deterministic mode)",
    )
    budget.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help=f"wall-clock budget per function (default {DEFAULT_WALL_CLOCK_SECONDS:.0f}s)",
    )
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN, help="max sampled list length")
    p.add_argument("--no-minimize", action="store_true", help="skip the minimization sweep")
    p.add_argument("--no-broadcast", action="store_true", help="skip the broadcast round")
    p.set_defaults(handler=_cmd_autotune)

    p = sub.add_parser(
        "dataset",
        parents=[common, compile_flags],
        help="render (prompt, answer) pass-ordering records",
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--tune-results", required=True, help="autotune output file")
    p.add_argument("--output", required=True, help="records file to write")
    p.add_argument(
        "--token-limit",
        type=int,
        default=DEFAULT_TOKEN_LIMIT,
        help="prompt+answer budget for the truncated flag",
    )
    p.set_defaults(handler=_cmd_dataset)

    p = sub.add_parser(
        "single-pass-dataset",
        parents=[common, compile_flags],
        help="render single-pass translation records",
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--passes",
        default=None,
        help=(
            "target passes, comma or space separated; values start with a "
            "dash, so write --passes=-dce,-gvn (default: all backend passes)"
        ),
    )
    p.add_argument("--per-pass", type=int, default=10, help="records per target pass")
    p.add_argument(
        "--max-prefix-len",
        type=int,
        default=2,
        help="max random prefix length before the target pass",
    )
    p.add_argument("--token-limit", type=int, default=DEFAULT_TOKEN_LIMIT)
    p.set_defaults(handler=_cmd_single_pass_dataset)

    p = sub.add_parser(
        "predict",
        parents=[common, backend_flags],
        help="emit pass-list predictions for a corpus",
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True, help="predictions file to write")
    p.add_argument(
        "--method",
        choices=("always-oz", "top-frequency", "retrieval", "file", "command"),
        default="always-oz",
        help="built-in baseline, answers replayed from a file, or an external command",
    )
    p.add_argument("--tune-results", default=None, help="training results (top-frequency, retrieval)")
    p.add_argument("--train-corpus", default=None, help="training corpus (retrieval)")
    p.add_argument("--predictions-file", default=None, help="answers to replay (file)")
    p.add_argument("--command", default=None, help="external predictor command (command)")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser(
        "evaluate",
        parents=[common, compile_flags],
        help="score predictions against the -Oz baseline",
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True, help="predictions file")
    p.add_argument("--output", required=True, help="per-function rows file to write")
    p.add_argument(
        "--oz-backup",
        action="store_true",
        help="also compile -Oz for every non-Oz prediction and keep the better result",
    )
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser(
        "report",
        parents=[common],
        help="write CSV breakdowns from evaluation rows",
    )
    p.add_argument("--rows", required=True, help="evaluate output file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--tune-results", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def _find_config(argv: Sequence[str]) -> Optional[str]:
    for i, arg in enumerate(argv):
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
    return None


def _expand_config(argv: list[str]) -> list[str]:
    """``argv`` with its ``--config`` file's flags inserted after the subcommand.

    A key is a flag name without its leading dashes. ``true`` gives the switch,
    ``false`` and ``null`` nothing, a list one flag per item, else ``--key=value``.
    """
    path = _find_config(argv)
    if path is None:
        return argv
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"config {path}: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is True:
                tokens.append(flag)
            elif item is not False and item is not None:
                tokens.append(f"{flag}={item}")
    at = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), -1) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        failures, code = args.handler(args), EXIT_PARTIAL_FAILURE
    except SystemExit as err:  # argparse --help/--version or usage error
        return EXIT_OK if err.code in (0, None) else EXIT_CONFIG_ERROR
    except (OSError, ValueError) as err:
        failures, code = [*getattr(err, "failures", []), err], EXIT_CONFIG_ERROR
    except RuntimeError as err:
        # Imported here, so that start-up does not load the backend package.
        from passtune.backend import BackendUnavailableError

        if not isinstance(err, BackendUnavailableError):
            raise
        failures, code = [err], EXIT_BACKEND_ERROR
    for line in failures:
        print(f"error: {line}", file=sys.stderr)
    return code if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
