"""End-to-end acceptance gate: all ten verification criteria.

The full report is computed once per session (``acceptance_report`` in
conftest.py); each criterion then gets its own pass/fail test line.
"""

import json

import pytest

from heisenberg_ncg import acceptance as acc
from heisenberg_ncg import derivations as dv
from heisenberg_ncg import group_structure as gs
from heisenberg_ncg.algebra import GR_ZERO


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(acceptance_report, number):
    result = next(r for r in acceptance_report["results"] if r["criterion"] == number)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] criterion {number}: {result['name']} "
          f"({result['elapsed_s']}s)")
    assert result["passed"], json.dumps(result["details"], default=str, indent=2)


def test_overall(acceptance_report):
    assert acceptance_report["passed"]


def test_runtime_budgets(acceptance_report):
    by_number = {r["criterion"]: r for r in acceptance_report["results"]}
    assert by_number[1]["elapsed_s"] < 60
    assert by_number[3]["elapsed_s"] < 120
    assert by_number[6]["elapsed_s"] < 30


def test_raising_criterion_fails_alone(monkeypatch):
    def criterion_1_raises():
        raise ArithmeticError("singular window")

    def criterion_2_ok(seed=0):
        return acc._result(2, "ok", seed == 5, 0.0)

    monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_raises, criterion_2_ok))
    report = acc.run_all(seed=5)
    first, second = report["results"]
    assert not report["passed"]
    assert first["criterion"] == 1 and not first["passed"]
    assert first["details"] == {"error": "ArithmeticError: singular window"}
    assert first["elapsed_s"] >= 0
    assert second["passed"]


def test_criterion_6_catches_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(gs, "centralizer_membership",
                        lambda g, h: g.p * h.p == h.q * g.q)
    result = acc.criterion_6_centralizers()
    assert not result["passed"]
    assert result["details"]["mismatches"]


def test_criterion_6_catches_a_brute_force_that_drops_an_element(monkeypatch):
    brute_force = gs.brute_force_centralizer
    monkeypatch.setattr(gs, "brute_force_centralizer",
                        lambda g, box: brute_force(g, box)[1:])
    result = acc.criterion_6_centralizers()
    assert not result["passed"]
    assert len(result["details"]["mismatches"]) == 50


def test_criterion_4_visits_every_cell_where_a_route_is_nonzero(monkeypatch):
    # the route check skips cells whose a- and b-columns are both empty;
    # every cell of the box where either route is nonzero must still be seen
    inner = dv.inner_coefficient
    visited = {}

    def recording(d, p, q, r, route):
        visited.setdefault(id(d), (d, set()))[1].add((p, q, r))
        return inner(d, p, q, r, route)

    monkeypatch.setattr(dv, "inner_coefficient", recording)
    result = acc.criterion_4_decomposition()
    monkeypatch.undo()
    assert result["passed"]
    assert len(visited) == acc.ROUTE_DERIVATIONS
    for d, cells in visited.values():
        nonzero = {
            (p, q, r)
            for p in range(-5, 6) for q in range(-5, 6) if p and q
            for r in range(-7, 8)
            if inner(d, p, q, r, "a") != GR_ZERO or inner(d, p, q, r, "b") != GR_ZERO
        }
        assert nonzero and nonzero <= cells
