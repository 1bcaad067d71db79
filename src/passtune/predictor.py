"""Pass-list predictors and the -Oz backup wrapper.

Built-in baselines (always -Oz, most-frequent tuned list, nearest
neighbor by token Jaccard) plus adapters for external models: a
predictions file keyed by function id, or an executable fed the prompt
on stdin that answers on stdout. All predictors are deterministic given
their inputs.

``with_oz_backup`` implements the evaluation protocol that compiles the
predicted list alongside -Oz and keeps whichever is smaller, so a
deployed predictor can never regress below the default pipeline.
"""

from __future__ import annotations

import subprocess
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from passtune.backend import (
    Backend,
    InvalidPassListError,
    PassList,
    PassVocabulary,
    compile_items,
)
from passtune.dataset import AnswerParseError, parse_answer
from passtune.ircore import IrFunction
from passtune.util import read_jsonl, write_jsonl

OZ_LIST = "-Oz"


@dataclass(frozen=True)
class Prediction:
    """A predicted pass list plus the model's optional auxiliary claims.

    ``extra_compilations`` counts compilations the predictor itself
    spent (0 for pure predictors). ``parse_failed`` marks predictions
    that fell back to -Oz because the model output did not parse.
    """

    function_id: str
    pass_list: str
    predicted_input_count: Optional[int] = None
    predicted_output_count: Optional[int] = None
    predicted_code: Optional[str] = None
    extra_compilations: int = 0
    parse_failed: bool = False

    def __post_init__(self) -> None:
        if self.extra_compilations < 0:
            raise ValueError("extra_compilations must be >= 0")

    def items(self) -> tuple[str, ...]:
        return tuple(self.pass_list.split())


class MissingPredictionError(KeyError):
    """The predictions file has no row for the requested function."""


class ExternalPredictorError(RuntimeError):
    """The external predictor process failed or timed out."""


def predict_always_oz(fn: IrFunction) -> Prediction:
    """The baseline predictor: -Oz for everything."""
    return Prediction(function_id=fn.id, pass_list=OZ_LIST)


def build_frequency_table(tune_results: Iterable) -> dict[str, int]:
    """pass list -> number of functions for which it was the tuned best."""
    table: Counter[str] = Counter()
    for result in tune_results:
        table[result.best_pass_list] += 1
    return dict(table)


def predict_top_frequency(fn: IrFunction, frequency_table: dict[str, int]) -> Prediction:
    """The most common tuned list; ties go to the lexicographically smaller."""
    if not frequency_table:
        raise ValueError("frequency table is empty")
    best = min(frequency_table.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return Prediction(function_id=fn.id, pass_list=best)


def _token_counts(text: str) -> Counter[str]:
    return Counter(text.split())


def jaccard_similarity(a: Counter[str], b: Counter[str]) -> float:
    """Multiset Jaccard: shared token occurrences over combined ones."""
    union = sum((a | b).values())
    if union == 0:
        return 0.0
    return sum((a & b).values()) / union


@dataclass(frozen=True)
class RetrievalEntry:
    function_id: str
    tokens: Counter
    pass_list: str


class RetrievalIndex:
    """Nearest-neighbor index over tuned functions."""

    def __init__(self, entries: Sequence[RetrievalEntry]) -> None:
        if not entries:
            raise ValueError("retrieval index is empty")
        self.entries = list(entries)

    @classmethod
    def build(
        cls, functions: Sequence[IrFunction], tune_results: Iterable
    ) -> "RetrievalIndex":
        by_id = {fn.id: fn for fn in functions}
        entries = []
        for result in tune_results:
            fn = by_id.get(result.function_id)
            if fn is None:
                raise ValueError(
                    f"tune result for unknown function {result.function_id!r}"
                )
            entries.append(
                RetrievalEntry(
                    fn.id, _token_counts(fn.normalized_text), result.best_pass_list
                )
            )
        return cls(entries)


def predict_retrieval(fn: IrFunction, index: RetrievalIndex) -> Prediction:
    """Copy the tuned list of the most token-similar indexed function."""
    query = _token_counts(fn.normalized_text)
    best = min(
        index.entries,
        key=lambda e: (-jaccard_similarity(query, e.tokens), e.function_id),
    )
    return Prediction(function_id=fn.id, pass_list=best.pass_list)


def _prediction_from_answer(
    fn: IrFunction, answer: str, vocabulary: PassVocabulary
) -> Prediction:
    """Parse a model answer; malformed output falls back to -Oz, flagged."""
    try:
        items, input_count, output_count, code = parse_answer(answer)
        PassList(items, vocabulary)  # validate flags
    except (AnswerParseError, InvalidPassListError):
        return Prediction(function_id=fn.id, pass_list=OZ_LIST, parse_failed=True)
    return Prediction(
        function_id=fn.id,
        pass_list=" ".join(items),
        predicted_input_count=input_count,
        predicted_output_count=output_count,
        predicted_code=code,
    )


class FilePredictor:
    """Replays predictions from a JSON Lines file.

    Rows carry ``function_id`` plus either ``answer`` (full answer text,
    parsed with the shared template) or ``pass_list`` (a string or an
    array of flags).
    """

    def __init__(self, path: str | Path, vocabulary: PassVocabulary) -> None:
        self.vocabulary = vocabulary
        self.rows: dict[str, dict] = {}
        for row in read_jsonl(path):
            self.rows[row["function_id"]] = row

    def predict(self, fn: IrFunction) -> Prediction:
        row = self.rows.get(fn.id)
        if row is None:
            raise MissingPredictionError(fn.id)
        if "answer" in row:
            return _prediction_from_answer(fn, row["answer"], self.vocabulary)
        raw = row.get("pass_list")
        if raw is None:
            return Prediction(function_id=fn.id, pass_list=OZ_LIST, parse_failed=True)
        items = tuple(raw.split()) if isinstance(raw, str) else tuple(raw)
        try:
            PassList(items, self.vocabulary)
        except InvalidPassListError:
            return Prediction(function_id=fn.id, pass_list=OZ_LIST, parse_failed=True)
        return Prediction(function_id=fn.id, pass_list=" ".join(items))


class ProcessPredictor:
    """Runs one external process per prediction.

    Protocol: prompt on standard input, answer (the shared template) on
    standard output; a nonzero exit or a timeout is an error, while
    unparseable output degrades to a flagged -Oz prediction.
    """

    def __init__(
        self,
        command: Sequence[str],
        vocabulary: PassVocabulary,
        timeout: float = 60.0,
    ) -> None:
        if not command:
            raise ValueError("empty command")
        self.command = list(command)
        self.vocabulary = vocabulary
        self.timeout = timeout

    def predict(self, fn: IrFunction) -> Prediction:
        try:
            proc = subprocess.run(
                self.command,
                input=fn.normalized_text,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as err:
            raise ExternalPredictorError(
                f"predictor timed out after {self.timeout:.0f}s"
            ) from err
        except OSError as err:
            raise ExternalPredictorError(f"cannot run predictor: {err}") from err
        if proc.returncode != 0:
            raise ExternalPredictorError(
                f"predictor exited with {proc.returncode}: {proc.stderr.strip()}"
            )
        return _prediction_from_answer(fn, proc.stdout.rstrip("\n"), self.vocabulary)


@dataclass(frozen=True)
class BackupOutcome:
    """Result of the -Oz backup protocol for one prediction."""

    pass_list: str
    instruction_count: int
    additional_compilations: int
    predicted_failed: bool = False


def with_oz_backup(
    prediction: Prediction,
    fn: IrFunction,
    backend: Backend,
    oz_count: Optional[int] = None,
) -> BackupOutcome:
    """Keep the better of the predicted list and -Oz (ties go to -Oz).

    The -Oz compilation is baseline accounting and is never charged
    here; each non-Oz prediction costs exactly one additional
    compilation, whether or not it succeeds.
    """
    if oz_count is None:
        oz_outcome = compile_items(backend, fn.ir, ("-Oz",))
        if not oz_outcome.ok:
            raise ValueError(f"-Oz failed on function {fn.id!r}")
        oz_count = oz_outcome.instruction_count
    items = prediction.items()
    if items == ("-Oz",):
        return BackupOutcome(OZ_LIST, oz_count, 0)
    outcome = compile_items(backend, fn.ir, items)
    if not outcome.ok:
        return BackupOutcome(OZ_LIST, oz_count, 1, predicted_failed=True)
    if outcome.instruction_count < oz_count:
        return BackupOutcome(" ".join(items), outcome.instruction_count, 1)
    return BackupOutcome(OZ_LIST, oz_count, 1)


def write_predictions(predictions: Iterable[Prediction], path: str | Path) -> int:
    return write_jsonl((asdict(p) for p in predictions), path)


def read_predictions(path: str | Path) -> list[Prediction]:
    return [Prediction(**row) for row in read_jsonl(path)]
