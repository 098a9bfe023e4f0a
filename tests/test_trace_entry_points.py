"""The benchmark calls named entry points of the package.

Building ``bench/spans.Tracer`` resolves every traced one, and one ``dirac``
workload operation calls the Dirac API as the benchmark does, so deleting or
renaming a traced function, or changing that API, fails here, not only in a
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import heisenberg_ncg.acceptance  # noqa: F401  (imports the traced modules but chern)
import heisenberg_ncg.chern  # noqa: F401  (acceptance imports it only in criterion 3)

BENCH = Path(__file__).parents[1] / "bench"
SPANS = BENCH / "spans.py"


def test_tracer_resolves_every_entry_point():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # raises AttributeError (or KeyError) for a traced name the package lost
    assert spans.Tracer()._patches


def test_dirac_workload_operation_passes_its_oracle(monkeypatch):
    # workloads imports its sibling modules by their top-level names
    monkeypatch.syspath_prepend(str(BENCH))
    dirac = importlib.import_module("workloads").Dirac()
    dirac.setup(seed=0)
    assert dirac.check(0, dirac.op(0)) == []
