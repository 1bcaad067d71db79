"""Training-data construction: pass-ordering and single-pass records.

Tunes a corpus, renders (prompt, answer) pairs in the exact templates a
model would be trained on, and shows the single-pass translation task.

Run: python3 demos/02_build_training_data.py
"""

from passtune.autotuner import SearchBudget, autotune_corpus
from passtune.backend.mini import MiniBackend
from passtune.dataset import (
    build_pass_dataset,
    build_single_pass_dataset,
    parse_answer,
)
from passtune.ircore import corpus_stats, split
from passtune.minigen import generate_corpus

backend = MiniBackend()
corpus = generate_corpus(30, seed=2)
print("corpus:", corpus_stats(corpus))
print()

# ---------------------------------------------------------------------------
# Pass-ordering records: the prompt is the unoptimized function, the
# answer names the tuned pass list, both instruction counts, and the
# optimized code. The header template is bit-exact and parseable.

results, _ = autotune_corpus(
    backend, corpus, SearchBudget.evaluation_count(40), seed=2, max_len=3
)
records, errors = build_pass_dataset(results, corpus, backend)
print(f"built {len(records)} pass-ordering records ({len(errors)} errors)")
example = max(records, key=lambda r: r.input_count - r.output_count)
print()
print("--- prompt " + "-" * 40)
print(example.prompt)
print("--- answer " + "-" * 40)
print(example.answer)
print("-" * 51)

# The answer round-trips: training targets can be checked mechanically.
items, input_count, output_count, code = parse_answer(example.answer)
assert items == tuple(example.pass_list.split())
assert (input_count, output_count) == (example.input_count, example.output_count)
print(f"parsed back: {items} {input_count}->{output_count}")
print()

# Oversized records are flagged, never dropped, so dataset cardinality
# is independent of the token budget.
tight, _ = build_pass_dataset(results, corpus, backend, token_limit=200)
print(f"with a 200-token budget: {sum(r.truncated for r in tight)}"
      f" of {len(tight)} records flagged truncated")
print()

# ---------------------------------------------------------------------------
# Single-pass records teach what one named pass does. Inputs are
# pre-scrambled with a short random pass prefix so the model sees
# partially optimized code too.

singles = build_single_pass_dataset(
    backend, corpus, passes=("-mem2reg", "-dce"), per_pass=4,
    max_prefix_len=2, seed=5,
)
print(f"built {len(singles)} single-pass records")
# Show one where the target pass actually rewrote something; records
# where it is a no-op are kept too (the identity is worth learning).
one = next(
    (s for s in singles if s.answer != s.prompt.split("\n\n", 1)[1]), singles[0]
)
print()
print(f"--- prompt (target {one.target_pass}, prefix {one.prefix_passes!r})")
print(one.prompt)
print("--- answer")
print(one.answer)
print()

# ---------------------------------------------------------------------------
# Train/test hygiene: a seeded split puts each function in exactly one
# part; deduplicate first (`passtune ingest --dedup`) so that no text
# lands in both.

parts = split(corpus, {"train": 0.8, "test": 0.2}, seed=0)
print({name: len(fns) for name, fns in parts.items()})
print()
print("same flow on files: passtune dataset / passtune single-pass-dataset")
