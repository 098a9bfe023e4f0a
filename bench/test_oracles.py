"""Self-tests of the benchmark: each oracle rejects a mutated answer, traced
counts repeat exactly, and the output matches BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def perturb(terms: dict) -> dict:
    """The same element with one coefficient changed by 1."""
    out = dict(terms)
    key = sorted(out)[0]
    re, im = out[key]
    out[key] = (re + 1, im)
    return out


@pytest.fixture(scope="module")
def exact_outputs():
    wl = workloads.Exact()
    wl.setup(7)
    out = wl.op(1)
    report, res, applied, product = out
    parts = wl._input(1)["parts"]
    answer = {
        "consistent": report.passed,
        "decomposed": {k: oracles.terms_of(getattr(res, k)) for k in ("z1", "z2", "x")},
        "applied": oracles.terms_of(applied),
        "product": oracles.terms_of(product),
    }
    return parts, answer


def test_exact_oracle_accepts_program_output(exact_outputs):
    parts, answer = exact_outputs
    assert oracles.check_exact(parts, answer) == []


@pytest.mark.parametrize("field", ["applied", "product", "x"])
def test_exact_oracle_rejects_one_perturbed_coefficient(exact_outputs, field):
    parts, answer = exact_outputs
    bad = copy.deepcopy(answer)
    if field == "x":
        bad["decomposed"]["x"] = perturb(bad["decomposed"]["x"])
    else:
        bad[field] = perturb(bad[field])
    assert oracles.check_exact(parts, bad)


def test_dirac_oracle_rejects_negated_chern_and_large_residual():
    cherns = {16: 1, 32: 1, 64: 1}
    pairing = {"value": 1, "certificates": {"residuals": [0.017, 0.009, 0.017]}}
    assert oracles.check_dirac(cherns, pairing) == []
    assert oracles.check_dirac({**cherns, 32: -1}, pairing)
    assert oracles.check_dirac(cherns, {**pairing, "value": -1})
    high = {"value": 1, "certificates": {"residuals": [0.017, 0.2, 0.017]}}
    assert oracles.check_dirac(cherns, high)


def test_verify_oracle_rejects_a_failed_criterion():
    from heisenberg_ncg import acceptance as acc

    results = [acc.criterion_7_cohomology(), acc.criterion_9_duality()]
    assert oracles.check_verify(results) == []
    forced = [dict(results[0], passed=False), results[1]]
    assert oracles.check_verify(forced)


def _cold_start_specs():
    import numpy as np

    return {s["name"]: s for s in workloads.ColdStart._specs(np.random.default_rng(3))}


@pytest.mark.parametrize("name", ["group-hc-dim", "alg-mul", "deriv-decompose"])
def test_cli_oracle_accepts_output_and_rejects_nonzero_exit(name):
    wl = workloads.ColdStart()
    wl.setup(3)
    spec = _cold_start_specs()[name]
    proc = wl.run(spec)
    assert oracles.check_cli(spec, proc.returncode, proc.stdout) == []
    assert oracles.check_cli(spec, 1, proc.stdout)


def test_cli_oracle_rejects_perturbed_product():
    spec = _cold_start_specs()["alg-mul"]
    wrong = oracles.terms_to_dict(perturb(oracles.ring_mul(spec["x"], spec["y"])))
    stdout = json.dumps({"command": "alg mul", "config": {}, "result": wrong}).encode()
    assert oracles.check_cli(spec, 0, stdout)


def test_ring_oracle_matches_defining_relation():
    one = (Fraction(1), Fraction(0))
    u, v = {(1, 0, 0): one}, {(0, 1, 0): one}
    # VU = WUV
    assert oracles.ring_mul(v, u) == oracles.ring_mul({(0, 0, 1): one}, oracles.ring_mul(u, v))


EXACT_COUNTS = ("algebra.mul.term_products", "derivations.inner_coefficient.calls",
                "chern.fft.calls", "chern.fft.points", "fredholm.svd.calls")


@pytest.mark.parametrize("name", ["exact", "verify"])
def test_traced_counts_repeat_for_a_seed(name):
    counts = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name]()
        wl.setup(5)
        tracer = Tracer()
        res = run.run_ops(wl, indices=range(wl.trace_ops), tracer=tracer)
        assert res["failures"] == []
        m = run.layer_metrics(tracer.reduce())
        counts.append({k: m[k][0] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["algebra.mul.term_products"] > 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_final_line_carries_every_declared_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
