"""Autotuning walkthrough: search, minimize, and broadcast by hand.

Generates a small hermetic corpus, shows what the -Oz baseline does to
one function, then walks the three tuning stages on a function where
pass ordering actually matters. Ends with the one-call corpus pipeline.

Run: python3 demos/01_autotune_walkthrough.py
"""

from passtune.autotuner import (
    SearchBudget,
    autotune_corpus,
    broadcast_best_lists,
    minimize_pass_list,
    random_search,
)
from passtune.backend import compile_items
from passtune.backend.mini import MiniBackend
from passtune.minigen import generate_corpus

backend = MiniBackend()
corpus = generate_corpus(40, seed=1)

# ---------------------------------------------------------------------------
# The baseline: every function is measured against -Oz.

fn = corpus[0]
oz = compile_items(backend, fn.ir, ("-Oz",))
print(f"function {fn.id} ({fn.source_dataset})")
print(fn.normalized_text)
print()
print(f"unoptimized: {fn.instruction_count} instructions")
print(f"-Oz:         {oz.instruction_count} instructions")
print()

# ---------------------------------------------------------------------------
# Stage 1 — random search. Candidates are random pass lists (meta-flags
# like -Oz at most once each); duplicates don't consume budget, and the
# search stops early once every valid list under the length cap is seen.

target = next(f for f in corpus if f.source_dataset == "mini/phaseorder")
budget = SearchBudget.evaluation_count(200)
result = random_search(backend, target, budget, seed=7, max_len=3)
print(f"search on {target.id} ({target.source_dataset}):")
print(f"  baseline  {result.baseline_pass_list!r} -> {result.baseline_count}")
print(f"  best      {result.best_pass_list!r} -> {result.best_count}")
print(f"  used      {result.evaluations_used} compilations")

# Pass ordering is why the baseline loses here: collapsing a constant
# branch exposes a store that only a later promotion round can clean up,
# so [-Oz, -mem2reg] beats [-Oz] on this family.

# ---------------------------------------------------------------------------
# Stage 2 — minimization. Drop passes one at a time while the count does
# not get worse; the result is 1-minimal.

items, count, evals = minimize_pass_list(
    backend, target.ir, tuple(result.best_pass_list.split()), seed=7,
    count=result.best_count,
)
print(f"  minimized {' '.join(items)!r} -> {count} (+{evals} compilations)")
print()

# ---------------------------------------------------------------------------
# Stage 3 — broadcast. Each function's winner is tried on every other
# function: lists that help one program often help its neighbors.

zero = SearchBudget.evaluation_count(0)  # baseline only, to make the point
results = {f.id: random_search(backend, f, zero, seed=1) for f in corpus}
results[target.id] = result
updated = broadcast_best_lists(backend, corpus, results)
improved = sum(
    1 for f in corpus if updated[f.id].best_count < results[f.id].best_count
)
print(f"broadcast round: {improved} of {len(corpus)} functions improved by")
print(f"another function's list (here, {result.best_pass_list!r})")
print()

# ---------------------------------------------------------------------------
# The whole pipeline in one call. Per-function seeds derive from the run
# seed and the function id, so results are order- and thread-independent.

results, stats = autotune_corpus(
    backend, corpus, SearchBudget.evaluation_count(50), seed=3, max_len=3
)
print(f"autotune_corpus over {stats['functions_tuned']} functions:")
print(f"  mean evaluations per function: {stats['mean_evaluations_per_function']:.1f}")
print(f"  overall improvement over -Oz:  {stats['overall_improvement_percent']:.2f}%")
print()
print("same flow on files: passtune gen-mini-corpus / passtune autotune")
