"""The benchmark calls named entry points of the package.

Building ``bench/spans.Tracer`` resolves every traced one, and one ``dirac``
workload operation and one ``exact`` cycle call the Dirac and derivation
APIs as the benchmark does, so deleting or renaming a traced function, or
changing those APIs or the term storage the span counters read, fails
here, not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import heisenberg_ncg.acceptance  # noqa: F401  (imports the traced modules but chern)
import heisenberg_ncg.chern  # noqa: F401  (acceptance imports it only in criterion 3)
from heisenberg_ncg.algebra import U, V, W
from heisenberg_ncg.derivations import decompose, inner_derivation

BENCH = Path(__file__).parents[1] / "bench"
SPANS = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_resolves_every_entry_point():
    # raises AttributeError (or KeyError) for a traced name the package lost
    assert load_spans().Tracer()._patches


def test_span_counters_read_the_term_storage():
    spans = load_spans()
    x, y = U + V, U + W + V * W
    assert spans._mul_count((x, y), x * y) == {"term_products": 6}
    parts = decompose(inner_derivation(x))
    assert spans._decompose_count((), parts) == {"x_terms": 2}


def workload(name: str, monkeypatch):
    # workloads imports its sibling modules by their top-level names
    monkeypatch.syspath_prepend(str(BENCH))
    return getattr(importlib.import_module("workloads"), name)()


def test_dirac_workload_operation_passes_its_oracle(monkeypatch):
    dirac = workload("Dirac", monkeypatch)
    dirac.setup(seed=0)
    assert dirac.check(0, dirac.op(0)) == []


def test_exact_workload_cycle_passes_its_oracle(monkeypatch):
    # one operation per size: box 5, 10 and 20
    exact = workload("Exact", monkeypatch)
    exact.setup(seed=0)
    for i in range(exact.cycle):
        assert exact.check(i, exact.op(i)) == []
