"""Command-line pipeline over files.

Subcommands compose: ``ingest`` (or ``gen-mini-corpus``) produces a
corpus, ``autotune`` a results file, ``dataset``/``single-pass-dataset``
training records, ``predict`` a predictions file, ``evaluate`` per-row
scores plus a summary, and ``report`` CSV breakdowns. Every output gets
a sibling ``<name>.manifest.json`` recording the resolved config, seed,
input digests, and tool version; timestamps appear only there, so
reruns with identical inputs are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 backend unavailable,
4 partial failure (some functions or records failed; output written).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from passtune import __version__
from passtune.autotuner import (
    DEFAULT_WALL_CLOCK_SECONDS,
    SearchBudget,
    TuneResult,
    autotune_corpus,
)
from passtune.backend import BackendUnavailableError
from passtune.backend.llvm import DEFAULT_TIMEOUT_SECONDS, LlvmBackend
from passtune.backend.mini import MiniBackend, mini_vocabulary
from passtune.backend.passlist import (
    DEFAULT_MAX_LEN,
    PassVocabulary,
    llvm10_vocabulary,
)
from passtune.dataset import (
    build_pass_dataset,
    build_single_pass_dataset,
    corpus_stats,
    dedup,
    split,
)
from passtune.evaluator import (
    EvalRow,
    evaluate_predictions,
    reports,
    write_report_csvs,
    write_summary,
)
from passtune.ircore import (
    DEFAULT_TOKEN_LIMIT,
    IrFunction,
    MalformedIrError,
    read_corpus,
)
from passtune.minigen import generate_corpus
from passtune.predictor import (
    ExternalPredictorError,
    FilePredictor,
    MissingPredictionError,
    Prediction,
    ProcessPredictor,
    RetrievalIndex,
    build_frequency_table,
    predict_always_oz,
    predict_retrieval,
    predict_top_frequency,
)
from passtune.util import file_digest, read_jsonl, read_records, write_records

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_BACKEND_ERROR = 3
EXIT_PARTIAL_FAILURE = 4


class ConfigError(ValueError):
    """Unusable flag/config combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# shared plumbing


def _make_vocabulary(args: argparse.Namespace) -> PassVocabulary:
    return mini_vocabulary() if args.backend == "mini" else llvm10_vocabulary()


def _make_backend(args: argparse.Namespace):
    if args.backend == "mini":
        return MiniBackend()
    return LlvmBackend(
        args.opt_path,
        timeout=args.timeout,
        extra_args=tuple(args.opt_arg or ()),
    )


def _resolve_budget(args: argparse.Namespace) -> SearchBudget:
    if args.budget_evals is not None and args.budget_seconds is not None:
        raise ConfigError("--budget-evals and --budget-seconds are mutually exclusive")
    if args.budget_evals is not None:
        return SearchBudget.evaluation_count(args.budget_evals)
    if args.budget_seconds is not None:
        return SearchBudget.wall_clock(args.budget_seconds)
    return SearchBudget.wall_clock(DEFAULT_WALL_CLOCK_SECONDS)


def _parse_fractions(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        if not sep or not name.strip():
            raise ConfigError(f"bad split part {part!r}; use name=fraction,...")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"bad fraction in {part!r}") from None
    return out


def _parse_passes(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _derived_output(output: str | Path, tag: str) -> Path:
    p = Path(output)
    return p.with_name(f"{p.stem}.{tag}{p.suffix}")


def _write_manifest(
    output: Path,
    args: argparse.Namespace,
    inputs: Sequence[Path],
    extra: Optional[dict] = None,
    manifest_path: Optional[Path] = None,
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
        "inputs": {str(p): file_digest(p) for p in inputs},
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if extra:
        manifest.update(extra)
    if manifest_path is None:
        manifest_path = output.with_name(output.name + ".manifest.json")
    manifest_path.write_text(
        json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8"
    )


def _read_corpus_checked(path: str | Path) -> list[IrFunction]:
    corpus = read_corpus(path)
    if not corpus:
        raise ConfigError(f"corpus {path} is empty")
    return corpus


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ingest(args: argparse.Namespace) -> int:
    functions: list[IrFunction] = []
    failures: list[str] = []
    for raw_path in args.inputs:
        path = Path(raw_path)
        if path.suffix == ".jsonl":
            for _, row in read_jsonl(path):
                fid = row.get("id", "?")
                try:
                    functions.append(
                        IrFunction.from_raw(
                            id=row["id"],
                            source_dataset=row.get(
                                "source_dataset", args.source_dataset or path.stem
                            ),
                            raw_text=row["raw_text"],
                        )
                    )
                except KeyError as err:
                    failures.append(f"{path}:{fid}: missing field {err}")
                except MalformedIrError as err:
                    failures.append(f"{path}:{fid}: {err}")
        else:
            try:
                functions.append(
                    IrFunction.from_raw(
                        id=path.stem,
                        source_dataset=args.source_dataset or (path.parent.name or "ingest"),
                        raw_text=path.read_text(encoding="utf-8"),
                    )
                )
            except MalformedIrError as err:
                failures.append(f"{path}: {err}")
    for line in failures:
        print(f"error: {line}", file=sys.stderr)
    if args.dedup:
        functions = dedup(functions)
    if not functions:
        raise ConfigError("no functions ingested")
    inputs = [Path(p) for p in args.inputs]
    if args.split:
        parts = split(functions, _parse_fractions(args.split), args.seed)
        for name, fns in parts.items():
            out = _derived_output(args.output, name)
            write_records(fns, out)
            _write_manifest(out, args, inputs, {"corpus_stats": corpus_stats(fns)})
            print(f"wrote {len(fns)} functions to {out}")
    else:
        write_records(functions, args.output)
        _write_manifest(
            Path(args.output), args, inputs, {"corpus_stats": corpus_stats(functions)}
        )
        print(f"wrote {len(functions)} functions to {args.output}")
    for key, value in corpus_stats(functions).items():
        print(f"{key} = {value}")
    return EXIT_PARTIAL_FAILURE if failures else EXIT_OK


def _cmd_gen_mini_corpus(args: argparse.Namespace) -> int:
    functions = generate_corpus(args.n, args.seed)
    write_records(functions, args.output)
    _write_manifest(
        Path(args.output), args, [], {"corpus_stats": corpus_stats(functions)}
    )
    print(f"wrote {len(functions)} functions to {args.output}")
    return EXIT_OK


def _cmd_autotune(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    corpus = _read_corpus_checked(args.corpus)
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
    write_records(results, args.output)
    _write_manifest(
        Path(args.output), args, [Path(args.corpus)], {"stats": asdict(stats)}
    )
    print(f"tuned {stats.functions_tuned} functions -> {args.output}")
    print(f"mean_evaluations_per_function = {stats.mean_evaluations_per_function:.2f}")
    print(f"overall_improvement_percent = {stats.overall_improvement_percent:.4f}")
    if stats.baseline_failures:
        for fid in stats.baseline_failures:
            print(f"error: baseline failed to compile: {fid}", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


def _cmd_dataset(args: argparse.Namespace) -> int:
    corpus = _read_corpus_checked(args.corpus)
    tune_results = read_records(TuneResult, args.tune_results)
    backend = _make_backend(args)
    records, errors = build_pass_dataset(
        tune_results, corpus, backend, token_limit=args.token_limit
    )
    write_records(records, args.output)
    truncated = sum(1 for r in records if r.truncated)
    _write_manifest(
        Path(args.output),
        args,
        [Path(args.corpus), Path(args.tune_results)],
        {
            "corpus_stats": corpus_stats(corpus),
            "records": len(records),
            "truncated": truncated,
            "record_errors": len(errors),
        },
    )
    print(f"wrote {len(records)} records to {args.output} ({truncated} truncated)")
    for err in errors:
        print(f"error: {err.function_id}: {err.message}", file=sys.stderr)
    return EXIT_PARTIAL_FAILURE if errors else EXIT_OK


def _cmd_single_pass_dataset(args: argparse.Namespace) -> int:
    corpus = _read_corpus_checked(args.corpus)
    backend = _make_backend(args)
    passes = _parse_passes(args.passes) if args.passes else backend.vocabulary.passes
    records = build_single_pass_dataset(
        backend,
        corpus,
        passes,
        per_pass=args.per_pass,
        max_prefix_len=args.max_prefix_len,
        seed=args.seed,
        token_limit=args.token_limit,
    )
    write_records(records, args.output)
    expected = len(passes) * args.per_pass
    truncated = sum(1 for r in records if r.truncated)
    _write_manifest(
        Path(args.output),
        args,
        [Path(args.corpus)],
        {
            "corpus_stats": corpus_stats(corpus),
            "records": len(records),
            "expected_records": expected,
            "truncated": truncated,
        },
    )
    print(f"wrote {len(records)} records to {args.output} ({truncated} truncated)")
    if len(records) < expected:
        print(
            f"error: uniqueness shortfall: {len(records)} of {expected} records",
            file=sys.stderr,
        )
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    corpus = _read_corpus_checked(args.corpus)
    vocabulary = _make_vocabulary(args)
    inputs = [Path(args.corpus)]
    if args.method == "always-oz":
        predict = predict_always_oz
    elif args.method == "top-frequency":
        if not args.tune_results:
            raise ConfigError("--method top-frequency requires --tune-results")
        table = build_frequency_table(read_records(TuneResult, args.tune_results))
        inputs.append(Path(args.tune_results))
        predict = partial(predict_top_frequency, frequency_table=table)
    elif args.method == "retrieval":
        if not (args.tune_results and args.train_corpus):
            raise ConfigError(
                "--method retrieval requires --tune-results and --train-corpus"
            )
        train = _read_corpus_checked(args.train_corpus)
        index = RetrievalIndex.build(train, read_records(TuneResult, args.tune_results))
        inputs.extend([Path(args.train_corpus), Path(args.tune_results)])
        predict = partial(predict_retrieval, index=index)
    elif args.method == "file":
        if not args.predictions_file:
            raise ConfigError("--method file requires --predictions-file")
        predict = FilePredictor(args.predictions_file, vocabulary).predict
        inputs.append(Path(args.predictions_file))
    else:  # command
        if not args.command:
            raise ConfigError("--method command requires --command")
        predict = ProcessPredictor(
            shlex.split(args.command), vocabulary, timeout=args.timeout
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
    write_records(predictions, args.output)
    _write_manifest(Path(args.output), args, inputs)
    print(f"wrote {len(predictions)} predictions to {args.output}")
    for line in failures:
        print(f"error: {line}", file=sys.stderr)
    return EXIT_PARTIAL_FAILURE if failures else EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = _read_corpus_checked(args.corpus)
    backend = _make_backend(args)
    inputs = [Path(args.corpus)]
    if args.predictions == "always-oz":
        predictions = [predict_always_oz(fn) for fn in corpus]
    else:
        predictions = read_records(Prediction, args.predictions)
        inputs.append(Path(args.predictions))
    summary, rows = evaluate_predictions(
        predictions, corpus, backend, use_oz_backup=args.oz_backup
    )
    write_records(rows, args.output)
    summary_path = (
        Path(args.summary) if args.summary else _derived_output(args.output, "summary")
    )
    write_summary(asdict(summary), summary_path)
    _write_manifest(Path(args.output), args, inputs, {"summary": asdict(summary)})
    for key, value in asdict(summary).items():
        print(f"{key} = {value}")
    missing = sum(1 for row in rows if row.prediction_missing)
    if missing:
        print(f"error: {missing} functions had no prediction", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    rows = read_records(EvalRow, args.rows)
    if not rows:
        raise ConfigError(f"rows file {args.rows} is empty")
    predictions = read_records(Prediction, args.predictions)
    tune_results = read_records(TuneResult, args.tune_results)
    bundle = reports(rows, predictions, tune_results)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = write_report_csvs(bundle, out_dir)
    _write_manifest(
        out_dir,
        args,
        [Path(args.rows), Path(args.predictions), Path(args.tune_results)],
        {
            "novel_lists": bundle.novel_list_count,
            "beats_autotuner": bundle.beats_autotuner,
            "files": [p.name for p in paths],
        },
        manifest_path=out_dir / "manifest.json",
    )
    for path in paths:
        print(f"wrote {path}")
    print(f"novel_lists = {bundle.novel_list_count}")
    print(f"beats_autotuner = {bundle.beats_autotuner}")
    return EXIT_OK


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
        help="JSON file of flag defaults (explicit flags win)",
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
        type=float,
        default=DEFAULT_TIMEOUT_SECONDS,
        help="per-compilation timeout in seconds",
    )

    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

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
        parents=[common, backend_flags],
        help="search the best pass list per function",
    )
    p.add_argument("--corpus", required=True, help="corpus file from ingest/gen-mini-corpus")
    p.add_argument("--output", required=True, help="results file to write")
    p.add_argument(
        "--budget-evals",
        type=int,
        default=None,
        help="evaluation-count budget per function (deterministic mode)",
    )
    p.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help=f"wall-clock budget per function (default {DEFAULT_WALL_CLOCK_SECONDS:.0f}s)",
    )
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN, help="max sampled list length")
    p.add_argument("--workers", type=int, default=1, help="parallel per-function searches")
    p.add_argument("--no-minimize", action="store_true", help="skip the minimization sweep")
    p.add_argument("--no-broadcast", action="store_true", help="skip the broadcast round")
    p.set_defaults(handler=_cmd_autotune)

    p = sub.add_parser(
        "dataset",
        parents=[common, backend_flags],
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
        parents=[common, backend_flags],
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
        parents=[common, backend_flags],
        help="score predictions against the -Oz baseline",
    )
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--predictions",
        required=True,
        help="predictions file, or the literal 'always-oz'",
    )
    p.add_argument("--output", required=True, help="per-function rows file to write")
    p.add_argument(
        "--summary",
        default=None,
        help="summary file (default: the rows file name with a .summary tag)",
    )
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


def _collect_dests(parser: argparse.ArgumentParser) -> set[str]:
    dests: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                dests |= _collect_dests(child)
        elif action.dest not in ("help", "==SUPPRESS=="):
            dests.add(action.dest)
    return dests


def _find_config(argv: Sequence[str]) -> Optional[str]:
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config requires a path")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _apply_config(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """Install config values as defaults on every (sub)parser that knows them.

    Subparsers parse into a fresh namespace and copy it over the parent's,
    so defaults set only on the main parser would be clobbered.
    """
    own = {a.dest for a in parser._actions}
    parser.set_defaults(**{k: v for k, v in defaults.items() if k in own})
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                _apply_config(child, defaults)


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    known = _collect_dests(parser)
    defaults = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        defaults[dest] = value
    return defaults


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path = _find_config(argv)
        if config_path is not None:
            _apply_config(parser, _load_config(config_path, parser))
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as err:  # argparse --help/--version or usage error
        code = err.code
        if code in (0, None):
            return EXIT_OK
        return EXIT_CONFIG_ERROR
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BackendUnavailableError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BACKEND_ERROR
    except (OSError, MalformedIrError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
