"""The CI workflow ``.github/workflows/tier1.yml`` names what exists and runs.

The workflow is read as text, since no YAML parser is among the test
dependencies: its benchmark rounds name the benchmark's workloads, its
Python matrix starts at the oldest Python ``pyproject.toml`` allows, and
its "Build optd" script compiles and, where optd can be built here,
chooses the server as it must on CI.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from passtune.backend import BackendUnavailableError
from passtune.backend.llvm import resolve_opt_path
from passtune.backend.optd import find_llvm_config, llvm_version_of

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
TEXT = WORKFLOW.read_text()
LIMIT = 60.0  # seconds for a query of opt or llvm-config
# g++ builds optd in seconds; the server's own build gives up at 600.
BUILD_LIMIT = 700.0


def run_block(step):
    """The ``run: |`` script of the step named ``step``, dedented."""
    lines = TEXT.splitlines()
    start = lines.index(f"      - name: {step}")
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("      - ")),
        len(lines),
    )
    run = next(i for i in range(start, end) if lines[i].strip() == "run: |")
    return textwrap.dedent("\n".join(lines[run + 1 : end])).strip() + "\n"


def build_optd_script():
    """The Python the "Build optd" step feeds through its heredoc."""
    first, *body, last = run_block("Build optd").splitlines()
    assert first == "PYTHONPATH=src python - <<'EOF'"
    assert last == "EOF"
    return "\n".join(body) + "\n"


def test_every_benchmark_round_names_a_workload_and_each_is_traced_once():
    rounds = re.findall(r"perfbench/run\.py --workload (\S+)(.*)", TEXT)
    assert rounds
    assert {name for name, _ in rounds} <= set(WORKLOADS)
    traced = [name for name, rest in rounds if "--trace" in rest.split()]
    assert sorted(traced) == sorted(WORKLOADS)


def test_the_python_matrix_starts_at_the_oldest_python_allowed():
    pyproject = (ROOT / "pyproject.toml").read_text()
    [floor] = re.findall(r'^requires-python = ">=([\d.]+)"$', pyproject, re.MULTILINE)
    [matrix] = re.findall(r"python-version: \[([^\]]*)\]", TEXT)
    assert re.findall(r'"([^"]+)"', matrix)[0] == floor


def test_the_build_optd_script_compiles():
    compile(build_optd_script(), f"{WORKFLOW.name}: Build optd", "exec")


def test_the_build_optd_script_chooses_the_server_where_optd_can_be_built():
    # The condition of tests/test_optd.py's check that the server is chosen.
    try:
        opt = resolve_opt_path()
    except BackendUnavailableError:
        pytest.skip("no optimizer executable on PATH or in PASSTUNE_OPT")
    config = find_llvm_config(opt)
    if shutil.which("g++") is None or config is None:
        pytest.skip("no g++ on PATH, or no llvm-config")
    archives = subprocess.run(
        [config, "--link-static", "--libs", "core"], capture_output=True, timeout=LIMIT
    )
    if archives.returncode != 0:
        pytest.skip("llvm-config finds no static LLVM archives")
    version = subprocess.run(
        [opt, "--version"], capture_output=True, text=True, timeout=LIMIT
    ).stdout
    llvm_version = llvm_version_of(version) or ""
    if not llvm_version.startswith("14."):
        pytest.skip(f"opt is LLVM {llvm_version or '(unnamed)'}, not 14")
    proc = subprocess.run(
        [sys.executable, "-"],
        input=build_optd_script(),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src", "PASSTUNE_OPT": opt},
        timeout=BUILD_LIMIT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "'path': 'opt-server'" in proc.stdout.splitlines()[0]
