"""The benchmark's traced run wraps named entry points of the package.

Building ``bench/spans.Tracer`` resolves every one of them, so deleting or
renaming a traced function fails here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import heisenberg_ncg.cli  # noqa: F401  (imports every traced module)

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def test_tracer_resolves_every_entry_point():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # raises AttributeError (or KeyError) for a traced name the package lost
    assert spans.Tracer()._patches
