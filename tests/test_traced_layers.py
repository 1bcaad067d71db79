"""The benchmark's tracer finds every function it wraps.

A traced name that no longer exists reads 0 in a benchmark round rather
than failing it, so a rename must fail here instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import trace  # noqa: E402


def test_every_traced_layer_names_a_function_that_exists():
    tracer = trace.Tracer("test")
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
