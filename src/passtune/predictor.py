"""Pass-list predictors.

Built-in baselines (always -Oz, most-frequent tuned list, nearest
neighbor by token Jaccard) plus adapters for external models: a
predictions file keyed by function id, or an executable fed the prompt
on stdin that answers on stdout. Both adapters read model output with
one parser. All predictors are deterministic given their inputs.
"""

from __future__ import annotations

import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from passtune.backend.passlist import OZ_ITEMS, PassVocabulary
from passtune.dataset import AnswerParseError, parse_answer
from passtune.ircore import IrFunction
from passtune.util import DEFAULT_TIMEOUT_SECONDS, positive_seconds, read_jsonl, unique_ids

OZ_LIST = " ".join(OZ_ITEMS)


@dataclass(frozen=True)
class Prediction:
    """A predicted pass list plus the model's optional auxiliary claims.

    The claims (input count, output count, code) come together, as the
    answer template gives them, or not at all. ``extra_compilations``
    counts compilations the predictor itself spent (0 for pure
    predictors). ``parse_failed`` marks predictions that fell back to
    -Oz because the model output did not parse.
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
        claims = (
            self.predicted_input_count,
            self.predicted_output_count,
            self.predicted_code,
        )
        if len({claim is None for claim in claims}) > 1:
            raise ValueError("predicted counts and code must be given together")

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


@dataclass(frozen=True)
class RetrievalEntry:
    function_id: str
    tokens: Counter
    pass_list: str


_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class RetrievalIndex:
    """Nearest-neighbor index over tuned functions, built in one pass.

    The entries are read one at a time from any iterable, so a caller can
    make each entry's counter as it is needed and drop it once folded in;
    none is kept. Entry positions then follow ``function_id`` order (equal
    ids in input order): ``pass_lists`` and ``totals`` hold each entry's
    list and token total in that order. A token's counts are kept in
    ``columns``, in ``postings``, or split between the two:

    - ``columns`` holds a token's first levels: level *l* is one int with a
      ``width``-byte field per entry, in native byte order, holding 1 where
      that entry holds the token at least *l* times. Adding a query's first
      min(query count, levels) columns sums min(query count, entry count,
      levels) for every entry in C. A level costs ``width`` bytes per entry
      and a posting 8, so a token gets as many levels as fit in the bytes
      of its postings, up to its largest count: at one-byte width, a token
      held by at least 1/8 of the entries gets at least one, and none gets
      more than eight. No field can sum past the number of columns, and
      ``width`` is the smallest of 1, 2, 4 and 8 bytes that holds it, so no
      sum carries into the next field.
    - ``postings`` holds, as two parallel ``array('I')``, the positions of
      the entries holding a token above its levels and their counts above
      them: every holder of a token without columns, and the few entries
      that hold a column token more often than its levels.
    """

    def __init__(self, entries: Iterable[RetrievalEntry]) -> None:
        ids: list[str] = []
        pass_lists: list[str] = []
        totals: list[int] = []
        postings: dict[str, tuple[array, array]] = defaultdict(
            lambda: (array("I"), array("I"))
        )
        for position, entry in enumerate(entries):
            ids.append(entry.function_id)
            pass_lists.append(entry.pass_list)
            totals.append(sum(entry.tokens.values()))
            for token, count in entry.tokens.items():
                positions, counts = postings[token]
                positions.append(position)
                counts.append(count)
        if not ids:
            raise ValueError("retrieval index is empty")
        size = len(ids)
        # positions in function_id order, so that the scan reads the
        # per-entry sequences in step
        order = sorted(range(size), key=ids.__getitem__)
        rank = [0] * size
        for position, old in enumerate(order):
            rank[old] = position
        self.pass_lists = [pass_lists[old] for old in order]
        self.totals = [totals[old] for old in order]
        for width in (1, 2, 4, 8):
            levels = {
                token: min(8 * len(positions) // (size * width), max(counts))
                for token, (positions, counts) in postings.items()
            }
            if sum(levels.values()) < 1 << 8 * width:
                break
        self.width = width
        self.columns: dict[str, list[int]] = {}
        self.postings: dict[str, tuple[array, array]] = {}
        for token in list(postings):  # popped, so each is freed once folded in
            positions, counts = postings.pop(token)
            positions = array("I", map(rank.__getitem__, positions))
            if levels[token]:
                self.columns[token], positions, counts = self._split(
                    positions, counts, levels[token]
                )
            if positions:
                self.postings[token] = (positions, counts)

    def _split(
        self, positions: array, counts: array, top: int
    ) -> tuple[list[int], array, array]:
        """A token's first ``top`` columns, level 1 first, and the postings
        of its counts above ``top``."""
        capped = bytearray(len(self.totals))
        above_positions, above_counts = array("I"), array("I")
        for position, count in zip(positions, counts):
            if count > top:
                capped[position] = top
                above_positions.append(position)
                above_counts.append(count - top)
            else:
                capped[position] = count
        width = self.width
        low = 0 if sys.byteorder == "little" else width - 1
        levels = []
        for level in range(1, top + 1):
            at_least = capped.translate(bytes(level) + b"\x01" * (256 - level))
            if width > 1:
                fields = bytearray(len(capped) * width)
                fields[low::width] = at_least
                at_least = fields
            levels.append(int.from_bytes(at_least, sys.byteorder))
        return levels, above_positions, above_counts

    def shared_counts(self, query: Counter) -> list[int]:
        """Per entry position, the token occurrences it shares with ``query``."""
        picked: list[int] = []
        for token, query_count in query.items():
            picked += self.columns.get(token, ())[:query_count]
        fields = sum(picked).to_bytes(len(self.totals) * self.width, sys.byteorder)
        shared = memoryview(fields).cast(_TYPECODES[self.width]).tolist()
        for token, query_count in query.items():
            # the columns summed min(query_count, count, levels); the rest of
            # min(query_count, count) is min(query_count - levels, count -
            # levels), from the postings of the counts above the levels
            query_count -= len(self.columns.get(token, ()))
            if query_count > 0:
                positions, counts = self.postings.get(token, ((), ()))
                for position, count in zip(positions, counts):
                    # min(query_count, count), without a call per posting
                    shared[position] += count if count < query_count else query_count
        return shared

    @classmethod
    def build(
        cls, functions: Sequence[IrFunction], tune_results: Iterable
    ) -> "RetrievalIndex":
        """The index over ``tune_results``, each entry's tokens counted from
        its function in ``functions`` as the index takes it in."""
        by_id = {fn.id: fn for fn in functions}

        def entries() -> Iterator[RetrievalEntry]:
            for result in tune_results:
                fn = by_id.get(result.function_id)
                if fn is None:
                    raise ValueError(
                        f"tune result for unknown function {result.function_id!r}"
                    )
                yield RetrievalEntry(
                    fn.id, _token_counts(fn.normalized_text), result.best_pass_list
                )

        return cls(entries())


def predict_retrieval(fn: IrFunction, index: RetrievalIndex) -> Prediction:
    """Copy the tuned list of the most token-similar indexed function.

    The score is multiset Jaccard: shared token occurrences over combined
    ones. The shared occurrences of every entry come from
    :meth:`RetrievalIndex.shared_counts`, and the combined ones are
    |query| + |entry| - shared. Entries are then scanned in ``function_id``
    order: the highest score wins and ties go to the smallest
    ``function_id``; an entry sharing no token (or a query and an entry
    both empty) scores 0.0 and still takes part.
    """
    query = _token_counts(fn.normalized_text)
    query_total = sum(query.values())
    shared = index.shared_counts(query)
    best, best_score = 0, -1.0
    for position, (total, common) in enumerate(zip(index.totals, shared)):
        union = query_total + total - common
        score = common / union if union else 0.0
        if score > best_score:
            best, best_score = position, score
    return Prediction(function_id=fn.id, pass_list=index.pass_lists[best])


def _parse_prediction(
    fn: IrFunction, output: object, vocabulary: PassVocabulary
) -> Prediction:
    """Read model output: the answer template, else a bare flag list.

    Text in the answer template gives the list plus the predicted counts
    and code; any other text is split on whitespace, and a list of
    strings (a file row's array) is taken as it is. No flags at all (a
    missing field, a list holding anything but strings, or any other JSON
    value included), an unknown flag or a repeated meta-flag or
    ``-attributor`` gives -Oz, flagged ``parse_failed``.
    """
    claims: dict = {}
    if isinstance(output, str):
        try:
            items, input_count, output_count, code = parse_answer(output)
        except AnswerParseError:
            items = tuple(output.split())
        else:
            claims = dict(
                predicted_input_count=input_count,
                predicted_output_count=output_count,
                predicted_code=code,
            )
    elif isinstance(output, list) and all(isinstance(item, str) for item in output):
        items = tuple(output)
    else:
        items = ()
    if not (items or claims) or vocabulary.problem(items) is not None:
        return Prediction(function_id=fn.id, pass_list=OZ_LIST, parse_failed=True)
    return Prediction(function_id=fn.id, pass_list=" ".join(items), **claims)


class FilePredictor:
    """Replays predictions from a JSON Lines file.

    Rows carry a string ``function_id`` plus either ``answer`` or
    ``pass_list`` (a string or an array of flags); both are model output
    for :func:`_parse_prediction`, and ``answer`` wins when a row has
    both. A row without a string ``function_id``, or with one an earlier
    row has, is a ValueError naming its ``path:line``.
    """

    def __init__(self, path: str | Path, vocabulary: PassVocabulary) -> None:
        self.vocabulary = vocabulary
        self.rows: dict[str, dict] = {}
        unique = unique_ids(itemgetter("function_id"))
        for where, row in read_jsonl(path):
            if not isinstance(row.get("function_id"), str):
                raise ValueError(f"{where}: expected a string function_id")
            try:
                unique(row)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            self.rows[row["function_id"]] = row

    def predict(self, fn: IrFunction) -> Prediction:
        row = self.rows.get(fn.id)
        if row is None:
            raise MissingPredictionError(fn.id)
        output = row["answer"] if "answer" in row else row.get("pass_list")
        return _parse_prediction(fn, output, self.vocabulary)


class ProcessPredictor:
    """Runs one external process per prediction.

    Protocol: prompt on standard input, the answer template or a bare
    flag list on standard output, both UTF-8; a nonzero exit, a timeout
    or output that is not UTF-8 is an error, while output that does not
    parse degrades to a flagged -Oz prediction. The exit code is checked
    before standard output is decoded, so a failed process is reported
    with its code and standard error, whatever bytes it wrote.
    """

    def __init__(
        self,
        command: Sequence[str],
        vocabulary: PassVocabulary,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if not command:
            raise ValueError("empty command")
        self.command = list(command)
        self.vocabulary = vocabulary
        self.timeout = positive_seconds(timeout, "timeout")

    def predict(self, fn: IrFunction) -> Prediction:
        try:
            proc = subprocess.run(
                self.command,
                input=fn.normalized_text.encode("utf-8"),
                capture_output=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as err:
            raise ExternalPredictorError(
                f"predictor timed out after {self.timeout:g}s"
            ) from err
        except OSError as err:
            raise ExternalPredictorError(f"cannot run predictor: {err}") from err
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", errors="replace").strip()
            raise ExternalPredictorError(
                f"predictor exited with {proc.returncode}: {stderr}"
            )
        try:
            stdout = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ExternalPredictorError(
                f"predictor output is not UTF-8: {err}"
            ) from err
        # universal newlines, as text-mode capture gives them
        stdout = stdout.replace("\r\n", "\n").replace("\r", "\n")
        return _parse_prediction(fn, stdout.rstrip("\n"), self.vocabulary)
