"""Evaluation metrics and reports for pass-list predictors.

:func:`evaluate_predictions` scores each function's pass list against
-Oz, with any claims that come with it, in one pass per function, and
folds the scores in corpus order: functions improved/regressed, savings
and overall improvement, then compile rate, error histogram, exact
match, BLEU and count MAPE for the claims. Its summary is the plain dict that ``evaluate``
writes, key for key and in the same order, to the summary file, the
manifest and stdout. :func:`reports` turns its rows into the report's
tables (pass frequency, list lengths, improvement by source dataset and
by input size, novel lists) and counts the functions that beat the tuner.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from passtune.backend import Backend, CompileOutcome, compile_items
from passtune.backend.classify import ErrorCategory
from passtune.backend.passlist import OZ_ITEMS
from passtune.ircore import IrFunction, normalize, overall_improvement
from passtune.predictor import Prediction
from passtune.util import map_in_order

BLEU_MAX_ORDER = 4
BLEU_SMOOTHING = 1e-9


def mape(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute percentage error."""
    if len(predicted) != len(actual):
        raise ValueError("predicted and actual must have equal length")
    if not actual:
        raise ValueError("empty sequences")
    if any(a <= 0 for a in actual):
        raise ValueError("actual values must be positive")
    return (
        sum(abs(p - a) / a for p, a in zip(predicted, actual)) / len(actual) * 100.0
    )


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: str, reference: str) -> float:
    """Sentence BLEU in [0, 1] over whitespace tokens.

    Up to 4-gram precisions with uniform weights; the order is capped by
    the shorter text so identical texts score exactly 1. Zero precisions
    are floored at 1e-9; the brevity penalty is exp(1 - r/c) for c <= r.
    """
    cand = candidate.split()
    ref = reference.split()
    if not ref:
        raise ValueError("empty reference")
    if not cand:
        return 0.0
    max_order = min(BLEU_MAX_ORDER, len(cand), len(ref))
    log_sum = 0.0
    for n in range(1, max_order + 1):
        cand_counts = _ngrams(cand, n)
        ref_counts = _ngrams(ref, n)
        matched = sum((cand_counts & ref_counts).values())
        total = sum(cand_counts.values())
        precision = matched / total if total else 0.0
        if precision == 0.0:
            precision = BLEU_SMOOTHING
        log_sum += math.log(precision) / max_order
    brevity = 1.0
    if len(cand) <= len(ref):
        brevity = math.exp(1.0 - len(ref) / len(cand))
    return brevity * math.exp(log_sum)


@dataclass(frozen=True)
class EvalRow:
    """Per-function evaluation outcome; delta = oz_count - predicted_count."""

    function_id: str
    source_dataset: str
    unopt_count: int
    oz_count: int
    predicted_count: int
    delta: int
    prediction_failed: bool = False
    prediction_missing: bool = False

    def __post_init__(self) -> None:
        if self.delta != self.oz_count - self.predicted_count:
            raise ValueError("delta inconsistent with counts")


class _Claim(NamedTuple):
    """One prediction's claims, scored: what the summary's ``code_*`` keys fold."""

    error: Optional[str]  # the claimed code's error category; None if it compiled
    input_counts: tuple[int, int]  # (claimed, actual)
    text_score: tuple[bool, float]  # (exact match, BLEU)
    output_counts: Optional[tuple[int, int]]  # None if the list did not compile


def _score_function(
    backend: Backend,
    fn: IrFunction,
    pred: Optional[Prediction],
    use_oz_backup: bool,
) -> Optional[tuple[EvalRow, int, Optional[_Claim]]]:
    """One function's row, additional compilations and scored claims.

    None when -Oz fails to compile; see :func:`evaluate_predictions`.
    """
    oz = compile_items(backend, fn.ir, OZ_ITEMS)
    if not oz.ok:
        return None
    predicted_count = oz_count = oz.instruction_count
    failed = False
    additional = 0
    claim = None
    if pred is not None:
        additional += pred.extra_compilations
        items = pred.items()
        # The compiler's output for the predicted list; None if it has none.
        compiled: Optional[CompileOutcome] = oz
        if items != OZ_ITEMS:
            compiled = None
            if backend.vocabulary.problem(items) is None:
                compiled = compile_items(backend, fn.ir, items)
                additional += int(use_oz_backup)
                if not compiled.ok:
                    compiled = None
                elif not use_oz_backup or compiled.instruction_count < oz_count:
                    predicted_count = compiled.instruction_count
        failed = pred.parse_failed or compiled is None
        if pred.predicted_code is not None:
            code = normalize(pred.predicted_code)
            check = compile_items(backend, code, ())
            if compiled is None:
                text_score, output_counts = (False, 0.0), None
            else:
                reference = compiled.output.text
                text_score = (code.text == reference, bleu(code.text, reference))
                output_counts = (pred.predicted_output_count, compiled.instruction_count)
            claim = _Claim(
                None if check.ok else check.diagnostic.category.value,
                (pred.predicted_input_count, fn.instruction_count),
                text_score,
                output_counts,
            )
    row = EvalRow(
        function_id=fn.id,
        source_dataset=fn.source_dataset,
        unopt_count=fn.instruction_count,
        oz_count=oz_count,
        predicted_count=predicted_count,
        delta=oz_count - predicted_count,
        prediction_failed=failed,
        prediction_missing=pred is None,
    )
    return row, additional, claim


def evaluate_predictions(
    predictions: Sequence[Prediction],
    corpus: Sequence[IrFunction],
    backend: Backend,
    use_oz_backup: bool = False,
    workers: int = 1,
) -> tuple[dict[str, Any], list[EvalRow]]:
    """Compile each predicted list and score it against -Oz.

    -Oz is compiled once per function, and so is each valid non-Oz list;
    a function whose -Oz fails to compile gets no row. Functions without
    a prediction are scored as -Oz and flagged ``prediction_missing``;
    nothing is logged, the caller counts the flags. Predictions that
    failed to parse or whose list is invalid or fails to compile are
    scored as -Oz and flagged ``prediction_failed``. With the
    backup protocol each compiled list is charged as one additional
    compilation and kept only if strictly smaller than -Oz, so nothing
    regresses. ``workers`` (at least 1) functions are scored at once;
    their scores are folded in corpus order, so the rows and the summary
    do not depend on it.

    Returns the summary, in the key order it is written, and the rows.
    The summary starts with :func:`summarize_rows`'s keys. When some
    prediction carries claims, the claims are scored with their function
    and ``code_*`` keys follow: the claimed code is compiled with no
    passes (``code_compile_rate``, and ``code_error_<category>`` counts
    in :class:`ErrorCategory` order) and compared with the compiler's
    output for the predicted list (``code_exact_match_rate``,
    ``code_bleu``; a list that failed scores 0). Claimed input counts
    are measured against the unoptimized count
    (``code_input_count_mape``), output counts against the list's count
    where it compiled (``code_output_count_mape``, ``None`` when no list
    did). Compiling the claimed code is evaluation cost, not counted in
    ``additional_compilations``.
    """
    by_id: dict[str, Prediction] = {}
    corpus_ids = {fn.id for fn in corpus}
    for pred in predictions:
        if pred.function_id not in corpus_ids:
            raise ValueError(f"prediction for unknown function {pred.function_id!r}")
        by_id[pred.function_id] = pred

    scored = map_in_order(
        lambda fn: _score_function(backend, fn, by_id.get(fn.id), use_oz_backup),
        corpus,
        workers,
    )
    rows: list[EvalRow] = []
    additional = 0
    claims: list[_Claim] = []
    for row, extra, claim in filter(None, scored):
        rows.append(row)
        additional += extra
        if claim is not None:
            claims.append(claim)
    summary = summarize_rows(rows, additional)
    if claims:
        n = len(claims)
        histogram = {category.value: 0 for category in ErrorCategory}
        histogram.update(Counter(c.error for c in claims if c.error is not None))
        output_counts = [c.output_counts for c in claims if c.output_counts]
        summary.update(
            code_claims=n,
            code_bleu=sum(c.text_score[1] for c in claims) / n,
            code_compile_rate=(n - sum(histogram.values())) / n,
            code_exact_match_rate=sum(c.text_score[0] for c in claims) / n,
            code_input_count_mape=mape(*zip(*(c.input_counts for c in claims))),
            code_output_count_mape=(
                mape(*zip(*output_counts)) if output_counts else None
            ),
        )
        summary.update({f"code_error_{key}": c for key, c in histogram.items()})
    return summary, rows


def summarize_rows(
    rows: Sequence[EvalRow], additional_compilations: int
) -> dict[str, Any]:
    """The summary's counts and totals over ``rows``, in written order."""
    sum_oz = sum(r.oz_count for r in rows)
    sum_predicted = sum(r.predicted_count for r in rows)
    return {
        "total_functions": len(rows),
        "functions_improved": sum(1 for r in rows if r.delta > 0),
        "functions_regressed": sum(1 for r in rows if r.delta < 0),
        "instructions_saved": sum(r.delta for r in rows if r.delta > 0),
        "instructions_regressed": sum(-r.delta for r in rows if r.delta < 0),
        "additional_compilations": additional_compilations,
        "overall_improvement": (
            overall_improvement(sum_oz, sum_predicted) if sum_predicted else 0.0
        ),
        "sum_oz": sum_oz,
        "sum_predicted": sum_predicted,
    }


def _contain_frequencies(lists: Sequence[tuple[str, ...]]) -> dict[str, float]:
    """The share of ``lists`` that contain each flag."""
    counts = Counter(flag for items in lists for flag in set(items))
    return {flag: c / len(lists) for flag, c in counts.items()}


def _improvement_table(
    rows: Sequence[EvalRow], key: Callable[[EvalRow], Any], label: Callable[[Any], str]
) -> list[list[str]]:
    """One line per group of ``rows`` sharing ``key``, in key order."""
    groups: dict[Any, list[EvalRow]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    table = [["group", "functions", "sum_oz", "sum_predicted", "improvement_percent"]]
    for value in sorted(groups):
        s = summarize_rows(groups[value], 0)
        counts = (s["total_functions"], s["sum_oz"], s["sum_predicted"])
        improvement = f"{s['overall_improvement']:.4f}"
        table.append([label(value), *map(str, counts), improvement])
    return table


def reports(
    rows: Sequence[EvalRow],
    predictions: Sequence[Prediction],
    tune_results: Sequence,
) -> tuple[dict[str, list[list[str]]], int]:
    """The report's CSV tables and how often a prediction beat the tuner.

    The tables are keyed by file name; each starts with its header row and
    holds its cells as they are written. The count is of functions with a
    row and a tune result whose predicted count is below the tuned best.
    List lengths leave out the bare [-Oz] lists, and input sizes fall in
    power-of-two buckets.
    """
    if not rows:
        raise ValueError("no rows to report on")
    tuned_lists = [tuple(r.best_pass_list.split()) for r in tune_results]
    predicted_lists = [p.items() for p in predictions]

    auto_freq = _contain_frequencies(tuned_lists)
    pred_freq = _contain_frequencies(predicted_lists)
    flags = sorted(
        set(auto_freq) | set(pred_freq),
        key=lambda f: (-auto_freq.get(f, 0.0), f),
    )
    frequency = [["flag", "autotuner_frequency", "predictor_frequency"]]
    frequency += [
        [f, f"{auto_freq.get(f, 0.0):.6f}", f"{pred_freq.get(f, 0.0):.6f}"]
        for f in flags
    ]

    lengths = [["source", "share_bare_oz", "mean_length", "max_length"]]
    for source, lists in (("autotuner", tuned_lists), ("predictor", predicted_lists)):
        rest = [len(items) for items in lists if items != OZ_ITEMS]
        bare = len(lists) - len(rest)
        lengths.append(
            [
                source,
                f"{bare / len(lists) if lists else 0.0:.6f}",
                f"{sum(rest) / len(rest) if rest else 0.0:.6f}",
                str(max(rest, default=0)),
            ]
        )

    tuned_set = set(tuned_lists)
    novel = sorted({" ".join(p) for p in predicted_lists if p not in tuned_set})
    tuned_best = {r.function_id: r.best_count for r in tune_results}
    row_by_id = {r.function_id: r for r in rows}
    beats = sum(
        1
        for fid, best in tuned_best.items()
        if fid in row_by_id and row_by_id[fid].predicted_count < best
    )
    tables = {
        "pass_frequency.csv": frequency,
        "list_lengths.csv": lengths,
        "improvement_by_dataset.csv": _improvement_table(
            rows, lambda r: r.source_dataset, str
        ),
        "improvement_by_size.csv": _improvement_table(
            rows,
            lambda r: 1 << max(r.unopt_count, 1).bit_length() - 1,
            lambda low: f"[{low},{low * 2})",
        ),
        "novel_lists.csv": [["pass_list"]] + [[item] for item in novel],
    }
    return tables, beats


def write_summary(values: Mapping[str, object], path: str | Path) -> None:
    """Key/value summary file, one `key = value` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def write_report_csvs(
    tables: Mapping[str, list[list[str]]], out_dir: str | Path
) -> list[Path]:
    """Write each table to ``out_dir/<name>``; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, table in tables.items():
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        written.append(path)
    return written
