"""Evaluation metrics and reports for pass-list predictors.

One loop, :func:`evaluate_predictions`, scores a pass list against -Oz
(functions improved/regressed, savings, overall improvement) and any
claims that come with it (compile rate, error histogram, exact match,
BLEU, count MAPE). The reports add pass frequency, list lengths,
improvement by source dataset and input size, novel lists, and
beats-the-autotuner counts.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from passtune.backend import (
    Backend,
    CompileOutcome,
    ErrorCategory,
    InvalidPassListError,
    compile_items,
)
from passtune.backend.passlist import OZ_ITEMS
from passtune.ircore import IrFunction, normalize
from passtune.predictor import Prediction

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
class CodeQualityMetrics:
    """How well ``claims`` predictions' code and counts match the compiler.

    The code is compiled with no passes (compile rate, error histogram)
    and compared with the compiler's output for the predicted list (exact
    match, BLEU; a list that failed scores 0). Input counts are measured
    against the unoptimized count, output counts against the list's count
    where it compiled (``None`` when no list did).
    """

    claims: int
    bleu: float
    compile_rate: float
    exact_match_rate: float
    error_histogram: dict[str, int]
    input_count_mape: float
    output_count_mape: Optional[float]


@dataclass(frozen=True)
class EvalSummary:
    """Aggregates over one evaluation run; ``code_quality`` needs claims."""

    total_functions: int
    functions_improved: int
    functions_regressed: int
    instructions_saved: int
    instructions_regressed: int
    additional_compilations: int
    overall_improvement: float
    sum_oz: int
    sum_predicted: int
    code_quality: Optional[CodeQualityMetrics] = None

    def flat(self) -> dict[str, object]:
        """Flat key/value pairs for the summary file and the manifest.

        With claims scored, each code-quality field adds ``code_<field>``
        and each error category ``code_error_<category>``.
        """
        values = asdict(self)
        quality = values.pop("code_quality")
        if quality is not None:
            histogram = quality.pop("error_histogram")
            values.update({f"code_{key}": value for key, value in quality.items()})
            values.update({f"code_error_{key}": n for key, n in histogram.items()})
        return values


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
    regresses. The claims a prediction carries are scored in the same
    block (see :class:`CodeQualityMetrics`); compiling its code is
    evaluation cost, not counted in ``additional_compilations``.
    """
    by_id: dict[str, Prediction] = {}
    corpus_ids = {fn.id for fn in corpus}
    for pred in predictions:
        if pred.function_id not in corpus_ids:
            raise ValueError(f"prediction for unknown function {pred.function_id!r}")
        by_id[pred.function_id] = pred

    rows: list[EvalRow] = []
    additional = 0
    histogram = {category.value: 0 for category in ErrorCategory}
    text_scores: list[tuple[bool, float]] = []  # (exact match, BLEU) per claim
    input_counts: list[tuple[int, int]] = []  # (claimed, actual)
    output_counts: list[tuple[int, int]] = []
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
            # The compiler's output for the predicted list; None if it has none.
            compiled: Optional[CompileOutcome] = oz
            if items != OZ_ITEMS:
                try:
                    compiled = compile_items(backend, fn.ir, items)
                except InvalidPassListError:
                    compiled = None
                else:
                    additional += int(use_oz_backup)
                    if not compiled.ok:
                        compiled = None
                    elif not use_oz_backup or compiled.instruction_count < oz_count:
                        predicted_count = compiled.instruction_count
                failed = compiled is None
            if pred.predicted_code is not None:
                code = normalize(pred.predicted_code)
                check = compile_items(backend, code, ())
                if not check.ok:
                    histogram[check.diagnostic.category.value] += 1
                input_counts.append((pred.predicted_input_count, fn.instruction_count))
                if compiled is None:
                    text_scores.append((False, 0.0))
                else:
                    reference = compiled.output.text
                    text_scores.append(
                        (code.text == reference, bleu(code.text, reference))
                    )
                    output_counts.append(
                        (pred.predicted_output_count, compiled.instruction_count)
                    )
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
    summary = summarize_rows(rows, additional)
    if text_scores:
        n = len(text_scores)
        summary = replace(
            summary,
            code_quality=CodeQualityMetrics(
                claims=n,
                bleu=sum(score for _, score in text_scores) / n,
                compile_rate=(n - sum(histogram.values())) / n,
                exact_match_rate=sum(exact for exact, _ in text_scores) / n,
                error_histogram=histogram,
                input_count_mape=mape(*zip(*input_counts)),
                output_count_mape=(
                    mape(*zip(*output_counts)) if output_counts else None
                ),
            ),
        )
    return summary, rows


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
class ReportBundle:
    """The breakdowns; each group is scored by :func:`summarize_rows`."""

    pass_frequency: tuple[PassFrequencyRow, ...]
    autotuner_lengths: LengthStats
    predictor_lengths: LengthStats
    by_dataset: tuple[tuple[str, EvalSummary], ...]
    by_size_bucket: tuple[tuple[str, EvalSummary], ...]
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
        (name, summarize_rows(group, 0))
        for name, group in sorted(by_dataset_groups.items())
    )

    by_bucket_groups: dict[str, list[EvalRow]] = {}
    for row in rows:
        by_bucket_groups.setdefault(_size_bucket(row.unopt_count), []).append(row)
    by_size = tuple(
        (name, summarize_rows(group, 0))
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
                    group,
                    s.total_functions,
                    s.sum_oz,
                    s.sum_predicted,
                    f"{s.overall_improvement:.4f}",
                )
                for group, s in groups
            ),
        )
    _write(
        "novel_lists.csv",
        ["pass_list"],
        ((item,) for item in bundle.novel_lists),
    )
    return written
