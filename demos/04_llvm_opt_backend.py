"""Driving a real LLVM `opt` binary.

Everything in the other demos runs on the hermetic mini backend; this
one swaps in the LLVM backend, which compiles with `opt`. It needs an `opt`
executable and exits with a pointer to the configuration knobs when
none is found, so it is safe to run anywhere.

Run: python3 demos/04_llvm_opt_backend.py
"""

import sys
from pathlib import Path

from passtune.backend import BackendUnavailableError, compile_items
from passtune.backend.llvm import OPT_ENV_VAR, LlvmBackend, resolve_opt_path
from passtune.ircore import normalize

try:
    opt_path = resolve_opt_path()
except BackendUnavailableError:
    print("no `opt` executable found; skipping the live run")
    print()
    print("to point passtune at one:")
    print(f"  export {OPT_ENV_VAR}=/path/to/opt        # or --opt-path on the CLI")
    print("  # the backend picks the legacy pass manager the flags need itself:")
    print("  passtune autotune --backend llvm ...")
    sys.exit(0)

backend = LlvmBackend()
print(f"using {opt_path}")
print(f"  {backend.version()}")
print()

sample = Path(__file__).resolve().parent.parent / "tests" / "data" / "sample.ll"
ir = normalize(sample.read_text())

# ---------------------------------------------------------------------------
# Compile once with no passes to get the unoptimized count, then with
# -Oz. The backend normalizes output IR, so counts are comparable.

unopt = compile_items(backend, ir, ())
oz = compile_items(backend, ir, ("-Oz",))
print(f"{sample.name}: {unopt.instruction_count} instructions unoptimized, "
      f"{oz.instruction_count} under -Oz")
print()

# ---------------------------------------------------------------------------
# Broken IR comes back as a classified failure instead of an exception;
# the evaluation harness histograms these categories.

for name in ("bad_type.ll", "bad_float.ll"):
    broken = normalize(sample.with_name(name).read_text())
    outcome = compile_items(backend, broken, ())
    assert not outcome.ok
    print(f"{name}: {outcome.diagnostic.category.value}")
    print(f"  {outcome.diagnostic.message.splitlines()[0]}")
