"""Predictors and the evaluation harness.

Trains nothing: the built-in baselines (always -Oz, most frequent tuned
list, nearest-neighbor retrieval) stand in for a model. Shows the -Oz
backup protocol and the report breakdowns.

Run: python3 demos/03_predict_and_evaluate.py
"""

import tempfile

from passtune.autotuner import SearchBudget, autotune_corpus
from passtune.backend.mini import MiniBackend
from passtune.evaluator import evaluate_predictions, reports, write_report_csvs
from passtune.ircore import split
from passtune.minigen import generate_corpus
from passtune.predictor import (
    RetrievalIndex,
    build_frequency_table,
    predict_always_oz,
    predict_retrieval,
    predict_top_frequency,
)

backend = MiniBackend()
corpus = generate_corpus(80, seed=4)
parts = split(corpus, {"train": 0.7, "test": 0.3}, seed=4)
train, test = parts["train"], parts["test"]

# Tune the training half; the predictors only ever see tuned results.
results, stats = autotune_corpus(
    backend, train, SearchBudget.evaluation_count(200), seed=4, max_len=3
)
print(f"tuned {stats['functions_tuned']} training functions "
      f"({stats['overall_improvement_percent']:.2f}% over -Oz)")
print()

table = build_frequency_table(results)
index = RetrievalIndex.build(train, results)

predictors = {
    "always-oz": predict_always_oz,
    "top-frequency": lambda fn: predict_top_frequency(fn, table),
    "retrieval": lambda fn: predict_retrieval(fn, index),
}

# ---------------------------------------------------------------------------
# Evaluate each baseline on the held-out functions. With the backup
# protocol, -Oz is compiled alongside every non-Oz prediction and the
# better result kept, so nothing can regress; the cost is exactly one
# extra compilation per non-Oz prediction.

print(f"{'predictor':>14} {'improved':>9} {'regressed':>9} "
      f"{'improvement':>12} {'extra compiles':>14}")
rows_by_name = {}
predictions_by_name = {}
for name, predict in predictors.items():
    predictions = [predict(fn) for fn in test]
    summary, rows = evaluate_predictions(
        predictions, test, backend, use_oz_backup=True
    )
    rows_by_name[name] = rows
    predictions_by_name[name] = predictions
    print(f"{name:>14} {summary['functions_improved']:>9} "
          f"{summary['functions_regressed']:>9} "
          f"{summary['overall_improvement']:>11.2f}% "
          f"{summary['additional_compilations']:>14}")
print()

# ---------------------------------------------------------------------------
# Report breakdowns for the retrieval baseline: which passes appear in
# tuned versus predicted lists, list-length profiles, improvement by
# source dataset and by input size, and lists the tuner never produced.

tables, beats = reports(
    rows_by_name["retrieval"], predictions_by_name["retrieval"], results
)
print("top flags by autotuner containment share:")
for flag, tuner, predictor in tables["pass_frequency.csv"][1:6]:
    print(f"  {flag:<14} tuner {float(tuner):5.1%}   "
          f"predictor {float(predictor):5.1%}")
print(f"novel predicted lists: {len(tables['novel_lists.csv']) - 1}")
print(f"functions where the prediction beat the tuner: {beats}")

with tempfile.TemporaryDirectory(prefix="passtune-report-") as out_dir:
    for path in write_report_csvs(tables, out_dir):
        print(f"wrote {path.name} ({path.stat().st_size} bytes)")
print()
print("same flow on files: passtune predict / passtune evaluate / passtune report")
