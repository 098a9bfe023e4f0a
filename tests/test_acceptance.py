"""End-to-end acceptance gate: all ten verification criteria.

The full report and its timings are computed once per session
(``acceptance_run`` in conftest.py); each criterion then gets its own
pass/fail test line.
"""

import json

import numpy as np
import pytest
from conftest import no_work

from heisenberg_ncg import acceptance as acc
from heisenberg_ncg import derivations as dv
from heisenberg_ncg import fredholm as fr
from heisenberg_ncg import group_structure as gs
from heisenberg_ncg import kk
from heisenberg_ncg.algebra import UnsupportedInput


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(acceptance_run, number):
    report, elapsed = acceptance_run
    result = next(r for r in report["results"] if r["criterion"] == number)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] criterion {number}: {result['name']} "
          f"({elapsed[f'criterion_{number}']}s)")
    assert result["passed"], json.dumps(result["details"], default=str, indent=2)


def test_overall(acceptance_report):
    assert acceptance_report["passed"]


def test_runtime_budgets(acceptance_run):
    _, elapsed = acceptance_run
    assert elapsed["criterion_1"] < 60
    assert elapsed["criterion_3"] < 120
    assert elapsed["criterion_6"] < 30


@pytest.mark.parametrize("fn", [fn for fn in acc.ALL_CRITERIA
                                if fn is not acc.criterion_3_dirac_bott],
                         ids=lambda fn: fn.__name__)
def test_criterion_is_a_function_of_its_seed(fn):
    # no timing or other state of the run reaches the result
    first, _ = acc.run_criterion(fn, seed=11)
    second, _ = acc.run_criterion(fn, seed=11)
    assert first == second
    assert set(first) == {"criterion", "name", "passed", "details"}


def test_raising_criterion_fails_alone(monkeypatch):
    def criterion_1_raises():
        raise ArithmeticError("singular window")

    def criterion_2_ok(seed=0):
        return acc._result(2, "ok", seed == 5)

    monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_raises, criterion_2_ok))
    report, elapsed = acc.run_all(seed=5)
    first, second = report["results"]
    assert not report["passed"]
    assert first["criterion"] == 1 and not first["passed"]
    assert first["details"] == {"error": "ArithmeticError: singular window"}
    assert set(elapsed) == {"criterion_1", "criterion_2"}
    assert min(elapsed.values()) >= 0
    assert second["passed"]


def test_negative_seed_is_refused_before_the_criterion():
    # numpy's generators refuse a negative seed; a criterion that met one
    # would be reported as failed, after every other criterion had run
    with pytest.raises(UnsupportedInput, match="seed must be nonnegative, got -1"):
        acc.run_criterion(no_work, seed=-1)


@pytest.mark.parametrize("route, perturb", [
    ("odd_cocycle_pairing", lambda value: value + 1),
    ("odd_pairing", lambda kernels: kernels._replace(dim_ker=kernels.dim_ker + 1)),
], ids=["odd_cocycle_pairing", "odd_pairing"])
def test_odd_criteria_fail_when_the_routes_disagree(monkeypatch, route, perturb):
    # the cocycle value and the exact kernel dimensions must agree entry
    # by entry
    pairing = getattr(fr, route)
    monkeypatch.setattr(fr, route, lambda *args: perturb(pairing(*args)))
    first, second = acc.criterion_1_pairing_tables(), acc.criterion_2_index_theorem()
    assert not first["passed"] and not second["passed"]
    odd = [c for c in first["details"]["checks"] if "dim_ker" in c]
    assert len(odd) == 7 and all(c["got"] != c["dim_ker"] - c["dim_ker_star"] for c in odd)


def test_criterion_1_checks_exactly_the_computed_columns():
    # kk's provenance labels a column "computed:" exactly when criterion 1
    # checks it, on every row of its table, against the table's entry
    tables = kk.pairing_tables()
    computed = {(name, col) for name, table in tables.items()
                for col, note in table.provenance if note.startswith("computed:")}
    want = {f"<{col}, {row}>": tables[name].entry(row, col)
            for name, col in computed for row in tables[name].rows}
    checks = [c for c in acc.criterion_1_pairing_tables()["details"]["checks"]
              if not c["entry"].startswith("<d1(w1)")]
    assert {c["entry"]: c["want"] for c in checks} == want and len(checks) == len(want)
    assert {col for _, col in computed} == set(acc.KHOMOLOGY_ROUTES)


def test_criterion_6_catches_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(gs, "centralizer_membership",
                        lambda g, h: g.p * h[0] == h[1] * g.q)
    result = acc.criterion_6_centralizers()
    assert not result["passed"]
    assert result["details"]["mismatches"]


def test_criterion_6_catches_a_brute_force_that_drops_an_element(monkeypatch):
    brute_force = gs.brute_force_centralizer

    def dropping(g, box):
        mask = brute_force(g, box)
        mask[np.argmax(mask)] = False  # clear the first True
        return mask

    monkeypatch.setattr(gs, "brute_force_centralizer", dropping)
    result = acc.criterion_6_centralizers()
    assert not result["passed"]
    assert len(result["details"]["mismatches"]) == 50


def test_criterion_10_catches_a_wrong_group_law(monkeypatch):
    # a W exponent of r1 + r2 + q2*p1 in place of q1*p2: the batched matrix
    # model does not go through group_product, so the products disagree with it
    def wrong(g, h):
        return g[0] + h[0], g[1] + h[1], g[2] + h[2] + h[1] * g[0]

    monkeypatch.setattr(acc, "group_product", wrong)
    result = acc.criterion_10_algebra_oracle()
    assert not result["passed"]
    assert result["details"]["product_failures"] == 976


def test_criterion_4_visits_every_cell_where_a_route_is_nonzero(monkeypatch):
    # the route check skips cells whose a- and b-columns are both empty;
    # every cell (p, q), p, q != 0, where either route is nonzero must still
    # be seen (the derivations have box 4, so [-9, 9]^2 holds every such cell)
    inner = dv.inner_coefficient
    visited = {}

    def recording(d, p, q, route):
        visited.setdefault(id(d), (d, set()))[1].add((p, q))
        return inner(d, p, q, route)

    monkeypatch.setattr(dv, "inner_coefficient", recording)
    result = acc.criterion_4_decomposition()
    monkeypatch.undo()
    assert result["passed"]
    assert len(visited) == acc.ROUTE_DERIVATIONS
    for d, cells in visited.values():
        nonzero = {
            (p, q)
            for p in range(-9, 10) for q in range(-9, 10) if p and q
            if inner(d, p, q, "a") or inner(d, p, q, "b")
        }
        assert nonzero and nonzero <= cells
