"""Evaluation metrics and reports for pass-list predictors.

Covers the aggregate accounting (functions improved/regressed, summed
savings, overall improvement over -Oz), text metrics for generated code
(BLEU, exact match, compile rate, error histogram, count MAPE), and the
report breakdowns: pass frequency, list lengths, improvement by source
dataset and by input size, novel lists, and beats-the-autotuner counts.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from passtune.backend import (
    Backend,
    ErrorCategory,
    InvalidPassListError,
    compile_items,
    verify_ir,
)
from passtune.backend.passlist import OZ_ITEMS
from passtune.ircore import IrFunction, count_instructions, normalize
from passtune.predictor import Prediction
from passtune.util import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

BLEU_MAX_ORDER = 4
BLEU_SMOOTHING = 1e-9


def overall_improvement(sum_oz: int, sum_predicted: int) -> float:
    """Percent improvement of a predictor over the -Oz baseline.

    Positive when the predictor's total instruction count is below the
    baseline's. The denominator is the predictor's total.
    """
    if sum_predicted <= 0:
        raise ValueError("sum_predicted must be positive")
    return (sum_oz - sum_predicted) / sum_predicted * 100.0


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


@dataclass(frozen=True)
class EvalSummary:
    """Aggregates over one evaluation run."""

    total_functions: int
    functions_improved: int
    functions_regressed: int
    instructions_saved: int
    instructions_regressed: int
    additional_compilations: int
    overall_improvement: float
    sum_oz: int
    sum_predicted: int


@dataclass(frozen=True)
class CodeQualityMetrics:
    """Text-level quality of generated optimized code."""

    bleu: float
    compile_rate: float
    exact_match_rate: float
    error_histogram: dict[str, int]
    output_count_mape: Optional[float]


def evaluate_predictions(
    predictions: Sequence[Prediction],
    corpus: Sequence[IrFunction],
    backend: Backend,
    use_oz_backup: bool = False,
) -> tuple[EvalSummary, list[EvalRow]]:
    """Compile each predicted list and score it against -Oz.

    -Oz is compiled once per function, and so is each valid non-Oz list.
    Functions without a prediction are scored as -Oz and flagged, as are
    predictions whose list is invalid or fails to compile. With the
    backup protocol each compiled list is charged as one additional
    compilation and kept only if strictly smaller than -Oz, so nothing
    regresses.
    """
    by_id: dict[str, Prediction] = {}
    corpus_ids = {fn.id for fn in corpus}
    for pred in predictions:
        if pred.function_id not in corpus_ids:
            raise ValueError(f"prediction for unknown function {pred.function_id!r}")
        by_id[pred.function_id] = pred

    rows: list[EvalRow] = []
    additional = 0
    for fn in corpus:
        oz = compile_items(backend, fn.ir, OZ_ITEMS)
        if not oz.ok:
            raise ValueError(f"-Oz failed on function {fn.id!r}")
        predicted_count = oz_count = oz.instruction_count
        failed = False
        pred = by_id.get(fn.id)
        if pred is None:
            logger.warning("no prediction for %s; scoring as -Oz", fn.id)
        else:
            additional += pred.extra_compilations
            items = pred.items()
            if items != OZ_ITEMS:
                try:
                    outcome = compile_items(backend, fn.ir, items)
                except InvalidPassListError:
                    failed = True
                else:
                    additional += int(use_oz_backup)
                    failed = not outcome.ok
                    if outcome.ok and (
                        not use_oz_backup or outcome.instruction_count < oz_count
                    ):
                        predicted_count = outcome.instruction_count
        rows.append(
            EvalRow(
                function_id=fn.id,
                source_dataset=fn.source_dataset,
                unopt_count=fn.instruction_count,
                oz_count=oz_count,
                predicted_count=predicted_count,
                delta=oz_count - predicted_count,
                prediction_failed=failed,
                prediction_missing=pred is None,
            )
        )
    return summarize_rows(rows, additional), rows


def summarize_rows(rows: Sequence[EvalRow], additional_compilations: int) -> EvalSummary:
    sum_oz = sum(r.oz_count for r in rows)
    sum_predicted = sum(r.predicted_count for r in rows)
    return EvalSummary(
        total_functions=len(rows),
        functions_improved=sum(1 for r in rows if r.delta > 0),
        functions_regressed=sum(1 for r in rows if r.delta < 0),
        instructions_saved=sum(r.delta for r in rows if r.delta > 0),
        instructions_regressed=sum(-r.delta for r in rows if r.delta < 0),
        additional_compilations=additional_compilations,
        overall_improvement=(
            overall_improvement(sum_oz, sum_predicted) if sum_predicted else 0.0
        ),
        sum_oz=sum_oz,
        sum_predicted=sum_predicted,
    )


def code_quality(
    generated: Mapping[str, str],
    references: Mapping[str, str],
    backend: Backend,
    predicted_counts: Optional[Mapping[str, int]] = None,
) -> CodeQualityMetrics:
    """Score generated optimized code against compiler ground truth.

    ``generated`` and ``references`` are keyed by function id; every
    generated id needs a reference. MAPE is computed for ids present in
    ``predicted_counts`` against the reference's instruction count.
    """
    if not generated:
        raise ValueError("no generated code to score")
    missing = set(generated) - set(references)
    if missing:
        raise ValueError(f"no reference for ids: {sorted(missing)[:3]}")
    histogram = {category.value: 0 for category in ErrorCategory}
    bleu_total = 0.0
    compiled = 0
    exact = 0
    mape_pairs: list[tuple[float, float]] = []
    for fid in generated:
        gen_text = normalize(generated[fid]).text
        ref_text = normalize(references[fid]).text
        bleu_total += bleu(gen_text, ref_text)
        if gen_text == ref_text:
            exact += 1
        outcome = verify_ir(backend, gen_text)
        if outcome.ok:
            compiled += 1
        else:
            histogram[outcome.diagnostic.category.value] += 1
        if predicted_counts is not None and fid in predicted_counts:
            mape_pairs.append(
                (predicted_counts[fid], count_instructions(ref_text))
            )
    n = len(generated)
    return CodeQualityMetrics(
        bleu=bleu_total / n,
        compile_rate=compiled / n,
        exact_match_rate=exact / n,
        error_histogram=histogram,
        output_count_mape=(
            mape([p for p, _ in mape_pairs], [a for _, a in mape_pairs])
            if mape_pairs
            else None
        ),
    )


@dataclass(frozen=True)
class PassFrequencyRow:
    flag: str
    autotuner_frequency: float
    predictor_frequency: float


@dataclass(frozen=True)
class LengthStats:
    """Pass-list length profile; mean/max exclude the bare [-Oz] lists."""

    share_bare_oz: float
    mean_length: float
    max_length: int


@dataclass(frozen=True)
class GroupImprovement:
    group: str
    functions: int
    sum_oz: int
    sum_predicted: int
    improvement_percent: float


@dataclass(frozen=True)
class ReportBundle:
    pass_frequency: tuple[PassFrequencyRow, ...]
    autotuner_lengths: LengthStats
    predictor_lengths: LengthStats
    by_dataset: tuple[GroupImprovement, ...]
    by_size_bucket: tuple[GroupImprovement, ...]
    novel_lists: tuple[str, ...]
    beats_autotuner: int

    @property
    def novel_list_count(self) -> int:
        return len(self.novel_lists)


def _contain_frequencies(lists: Sequence[tuple[str, ...]]) -> dict[str, float]:
    if not lists:
        return {}
    counts: Counter[str] = Counter()
    for items in lists:
        for flag in set(items):
            counts[flag] += 1
    return {flag: c / len(lists) for flag, c in counts.items()}


def _length_stats(lists: Sequence[tuple[str, ...]]) -> LengthStats:
    if not lists:
        return LengthStats(0.0, 0.0, 0)
    bare = sum(1 for items in lists if items == OZ_ITEMS)
    rest = [len(items) for items in lists if items != OZ_ITEMS]
    return LengthStats(
        share_bare_oz=bare / len(lists),
        mean_length=sum(rest) / len(rest) if rest else 0.0,
        max_length=max(rest) if rest else 0,
    )


def _group_improvement(
    name: str, rows: Sequence[EvalRow]
) -> GroupImprovement:
    summary = summarize_rows(rows, 0)
    return GroupImprovement(
        group=name,
        functions=summary.total_functions,
        sum_oz=summary.sum_oz,
        sum_predicted=summary.sum_predicted,
        improvement_percent=summary.overall_improvement,
    )


def _size_bucket(count: int) -> str:
    low = 1 << max(count, 1).bit_length() - 1
    return f"[{low},{low * 2})"


def reports(
    rows: Sequence[EvalRow],
    predictions: Sequence[Prediction],
    tune_results: Sequence,
) -> ReportBundle:
    """Build the figure-style breakdowns from completed evaluation rows."""
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
    frequency_rows = tuple(
        PassFrequencyRow(f, auto_freq.get(f, 0.0), pred_freq.get(f, 0.0))
        for f in flags
    )

    by_dataset_groups: dict[str, list[EvalRow]] = {}
    for row in rows:
        by_dataset_groups.setdefault(row.source_dataset, []).append(row)
    by_dataset = tuple(
        _group_improvement(name, group)
        for name, group in sorted(by_dataset_groups.items())
    )

    by_bucket_groups: dict[str, list[EvalRow]] = {}
    for row in rows:
        by_bucket_groups.setdefault(_size_bucket(row.unopt_count), []).append(row)
    by_size = tuple(
        _group_improvement(name, group)
        for name, group in sorted(
            by_bucket_groups.items(), key=lambda kv: int(kv[0][1:].split(",")[0])
        )
    )

    tuned_set = set(tuned_lists)
    novel = tuple(
        sorted({" ".join(items) for items in predicted_lists if items not in tuned_set})
    )
    tuned_best = {r.function_id: r.best_count for r in tune_results}
    row_by_id = {r.function_id: r for r in rows}
    beats = sum(
        1
        for fid, best in tuned_best.items()
        if fid in row_by_id and row_by_id[fid].predicted_count < best
    )
    return ReportBundle(
        pass_frequency=frequency_rows,
        autotuner_lengths=_length_stats(tuned_lists),
        predictor_lengths=_length_stats(predicted_lists),
        by_dataset=by_dataset,
        by_size_bucket=by_size,
        novel_lists=novel,
        beats_autotuner=beats,
    )


def write_rows(rows: Iterable[EvalRow], path: str | Path) -> int:
    return write_jsonl((asdict(r) for r in rows), path)


def read_rows(path: str | Path) -> list[EvalRow]:
    return [EvalRow(**row) for row in read_jsonl(path)]


def write_summary(values: Mapping[str, object], path: str | Path) -> None:
    """Key/value summary file, one `key = value` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def write_report_csvs(bundle: ReportBundle, out_dir: str | Path) -> list[Path]:
    """One CSV per breakdown; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _write(name: str, header: list[str], rows: Iterable[Sequence]) -> None:
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    _write(
        "pass_frequency.csv",
        ["flag", "autotuner_frequency", "predictor_frequency"],
        (
            (r.flag, f"{r.autotuner_frequency:.6f}", f"{r.predictor_frequency:.6f}")
            for r in bundle.pass_frequency
        ),
    )
    _write(
        "list_lengths.csv",
        ["source", "share_bare_oz", "mean_length", "max_length"],
        (
            (
                name,
                f"{stats.share_bare_oz:.6f}",
                f"{stats.mean_length:.6f}",
                stats.max_length,
            )
            for name, stats in (
                ("autotuner", bundle.autotuner_lengths),
                ("predictor", bundle.predictor_lengths),
            )
        ),
    )
    for name, groups in (
        ("improvement_by_dataset.csv", bundle.by_dataset),
        ("improvement_by_size.csv", bundle.by_size_bucket),
    ):
        _write(
            name,
            ["group", "functions", "sum_oz", "sum_predicted", "improvement_percent"],
            (
                (
                    g.group,
                    g.functions,
                    g.sum_oz,
                    g.sum_predicted,
                    f"{g.improvement_percent:.4f}",
                )
                for g in groups
            ),
        )
    _write(
        "novel_lists.csv",
        ["pass_list"],
        ((item,) for item in bundle.novel_lists),
    )
    return written
