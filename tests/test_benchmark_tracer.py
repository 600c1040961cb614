"""The benchmark tracer wraps package names by lookup; they must all exist.

`benchmarks/tracing.py` replaces functions at the names their callers look
up. Deleting or renaming one of them breaks `benchmarks/run.py --trace 1`,
so this test installs the tracer once and fails on a missing name.
"""

import importlib.util
from pathlib import Path

from otgen import autodiff

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracer_installs_on_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("otgen_bench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(autodiff))
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert vars(autodiff) == before
