"""End-to-end verification suite.

Ten numbered criteria, each a pure function returning a result dict with a
``passed`` flag and enough detail to diagnose a failure.  ``run_all``
executes all of them and is what the command-line ``report all`` and the
acceptance test suite call.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from . import chern as ch
from . import derivations as dv
from . import fredholm as fr
from . import group_structure as gs
from . import kk
from .algebra import (
    ONE,
    GaussianRational,
    U,
    V,
    W,
    AlgebraElement,
    GroupElement,
    RationalAngle,
    eval_at_angle,
    random_element,
)

DEFAULT_SEED = 20230823
# The odd pairings' truncation: windows 32, 64 and 128.
TRUNCATION = 64
# Criterion 1's odd K-theory representatives; [V_a], a 2x2 block unitary,
# bounds the truncations `hnc pairing verify` accepts.
KTHEORY_ODD = {
    "[U]": U,
    "[V]": V,
    "[V_a]": [[V, AlgebraElement.zero()], [AlgebraElement.zero(), ONE]],
}
# Criterion 3: the lattice Chern grids and the Dirac pairing's truncation.
GRIDS = (16, 32, 64)
DIRAC_TRUNCATION = 48
# Criterion 4: exact round trips, and derivations checked cell by cell.
ROUNDTRIPS = 100
ROUTE_DERIVATIONS = 20
# Criterion 5: derivations evaluated on W.
W_DERIVATIONS = 25
# Criterion 6: elements compared, and the half-width of the box.
CENTRALIZER_ELEMENTS = 50
CENTRALIZER_BOX = 6
# Criterion 10: products checked against the matrix model.
PRODUCTS = 1000


def _result(number: int, name: str, passed: bool, t0: float, **details) -> dict:
    return {
        "criterion": number,
        "name": name,
        "passed": bool(passed),
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "details": details,
    }


def criterion_1_pairing_tables(truncation=TRUNCATION) -> dict:
    """Recompute every pairing-table entry that has a numeric route."""
    t0 = time.perf_counter()
    Z = AlgebraElement.zero()
    ktheory_even = {"[1]": ONE, "[P_a]": [[ONE, Z], [Z, Z]]}
    even, odd = kk.pairing_tables()

    checks = []
    for col in ("z1", "z1'"):
        spec = "z1" if col == "z1" else "z1prime"
        for row, u in KTHEORY_ODD.items():
            got = fr.odd_pairing(spec, u, truncation)
            want = odd.entry(row, col)
            checks.append({"entry": f"<{col}, {row}>", "got": got, "want": want})
    for row, p in ktheory_even.items():
        got = fr.even_pairing_trace("z0", p)
        want = even.entry(row, "z0")
        checks.append({"entry": f"<z0, {row}>", "got": got, "want": want})
    # the third even generator reaches z0 through the same scalar image
    got = fr.even_pairing_trace("z0", [[ONE, Z], [Z, Z]])
    checks.append({"entry": "<z0, [P_b]>", "got": got, "want": even.entry("[P_b]", "z0")})

    # the boundary image of the first odd torus module pairs to zero with
    # all three even generators: trace route for [1] and [P_a], index route
    # <w1, [W]> = 0 for [P_b] (boundary-map adjointness).
    checks.append(
        {"entry": "<d1(w1), [1]>", "got": fr.even_pairing_trace("del1_w1", ONE), "want": 0}
    )
    checks.append(
        {
            "entry": "<d1(w1), [P_a]>",
            "got": fr.even_pairing_trace("del1_w1", [[ONE, Z], [Z, Z]]),
            "want": 0,
        }
    )
    checks.append(
        {"entry": "<d1(w1), [P_b]> via <w1, [W]>", "got": fr.odd_pairing("w1", W, truncation), "want": 0}
    )

    passed = all(c["got"] == c["want"] for c in checks)
    return _result(1, "pairing table recomputation", passed, t0, checks=checks)


def criterion_2_index_theorem() -> dict:
    """The half-line compression of the implementing unitary has index 1."""
    t0 = time.perf_counter()
    idx = fr.odd_pairing("z1prime", V, TRUNCATION)
    return _result(2, "Toeplitz index instance", idx == 1, t0, index=idx,
                   truncations=list(fr.odd_windows("z1prime", V, TRUNCATION)))


def criterion_3_dirac_bott() -> dict:
    """Lattice Chern number +1 and agreement with the Dirac trace route."""
    t0 = time.perf_counter()
    cherns = {g: ch.lattice_chern(ch.bott_projector(g, 1.0)) for g in GRIDS}
    field = ch.bott_projector(max(GRIDS), 1.0)
    dirac = ch.dirac_even_pairing(field, truncation=DIRAC_TRUNCATION)
    passed = all(v == 1 for v in cherns.values()) and dirac["value"] == 1
    return _result(3, "Dirac/Bott pairing cross-oracle", passed, t0,
                   lattice_chern=cherns, dirac=dirac)


def criterion_4_decomposition(seed=DEFAULT_SEED) -> dict:
    """Exact decomposition round-trips and two-route cell agreement."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(ROUNDTRIPS):
        parts = dv.random_derivation_parts(rng, box=5, n_terms=4)
        d = dv.compose_from_parts(parts.z1, parts.z2, parts.x)
        if dv.decompose(d) != parts:
            failures.append(i)

    route_failures = 0
    for _ in range(ROUTE_DERIVATIONS):
        d = dv.random_consistent_derivation(rng, box=4)
        # Interior cells (p, q) in [-5, 5]^2 whose a-column (dU at p+1, q)
        # or b-column (dV at p, q+1) is nonempty; on every other cell both
        # routes are zero.
        live = ({(p - 1, q) for p, q, _ in d.dU.terms}
                | {(p, q - 1) for p, q, _ in d.dV.terms})
        for p, q in live:
            if p == 0 or q == 0 or max(abs(p), abs(q)) > 5:
                continue
            for r in range(-7, 8):
                ca = dv.inner_coefficient(d, p, q, r, "a")
                cb = dv.inner_coefficient(d, p, q, r, "b")
                if ca != cb:
                    route_failures += 1
    passed = not failures and route_failures == 0
    return _result(4, "derivation decomposition round-trip", passed, t0,
                   roundtrip_failures=failures, route_mismatch_cells=route_failures)


def criterion_5_central_generator(seed=DEFAULT_SEED) -> dict:
    """d(W) = 0 for consistent derivations; injected relation violations
    are detected."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 1)
    w_failures = 0
    for _ in range(W_DERIVATIONS):
        d = dv.random_consistent_derivation(rng, box=4)
        if not dv.apply(d, W).is_zero():
            w_failures += 1

    detected = 0
    injected = 0
    for _ in range(10):
        d = dv.random_consistent_derivation(rng, box=3)
        # Perturb one dU coefficient off the a-axis rule or the relation.
        terms = d.dU.terms
        key = (int(rng.integers(2, 5)), 0, int(rng.integers(-3, 4)))
        terms[key] = terms.get(key) or GaussianRational.of(1)
        bad = dv.Derivation(AlgebraElement(terms), d.dV)
        injected += 1
        if not dv.check_consistency(bad).passed:
            detected += 1
    passed = w_failures == 0 and detected == injected
    return _result(5, "central generator annihilated", passed, t0,
                   w_failures=w_failures, injected=injected, detected=detected)


def criterion_6_centralizers(seed=DEFAULT_SEED) -> dict:
    """Closed-form centralizer membership equals brute-force enumeration."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 2)
    elements = [
        GroupElement(2, 4, 1),   # generic interior case
        GroupElement(3, 0, 6),   # first axis case
        GroupElement(0, 3, 6),   # second axis case
        GroupElement(0, 0, 1),   # central generator
        GroupElement(0, 0, 5),   # central with torsion quotient
    ]
    while len(elements) < CENTRALIZER_ELEMENTS:
        g = GroupElement(*[int(v) for v in rng.integers(-6, 7, 3)])
        if not g.is_identity():
            elements.append(g)

    points = gs.box_points(CENTRALIZER_BOX)
    mismatches = []
    cases = set()
    for g in elements:
        cases.add(gs.classify_element(g).case)
        brute = {h.as_tuple() for h in gs.brute_force_centralizer(g, CENTRALIZER_BOX)}
        member = gs.centralizer_membership(g, points)
        closed = set(zip(*(c[member].tolist() for c in points.as_tuple())))
        if brute != closed:
            mismatches.append(g.as_tuple())
    passed = not mismatches and {"Case1", "Case2", "Case3", "Case4a", "Case4b"} <= cases
    return _result(6, "centralizer classification vs brute force", passed, t0,
                   mismatches=mismatches, cases=sorted(cases))


def criterion_7_cohomology() -> dict:
    t0 = time.perf_counter()
    profile = gs.group_cohomology("H3").dims
    ranks = [gs.cyclic_cohomology_dim(n).finite_rank for n in range(8)]
    countable = [gs.cyclic_cohomology_dim(n).countable_factor for n in range(8)]
    periodic = gs.periodic_cyclic_dims()
    passed = (
        profile == (1, 2, 2, 1)
        and ranks == [1, 2, 3, 3, 3, 3, 3, 3]
        and countable == [True, True, True, False, False, False, False, False]
        and periodic == (3, 3)
    )
    return _result(7, "cohomology profiles", passed, t0,
                   h3_profile=list(profile), cyclic_ranks=ranks,
                   periodic=list(periodic))


def criterion_8_exactness() -> dict:
    t0 = time.perf_counter()
    node_failures = []
    for builder in (kk.pv_ktheory_sequence, kk.khomology_sequence):
        for rep in kk.check_exactness(builder()):
            if not rep.exact:
                node_failures.append(rep.node)

    mutation_results = []
    for builder in (kk.pv_ktheory_sequence, kk.khomology_sequence):
        for i in range(6):
            seq = builder()
            seq[i] = seq[i].mutated(0, 0, 1)
            failed = [r.node for r in kk.check_exactness(seq) if not r.exact]
            predicted = kk.predicted_failure_node(seq, i)
            ok = bool(failed) and set(failed) <= set(predicted)
            mutation_results.append(
                {"map": seq[i].name, "failed_nodes": failed,
                 "predicted": predicted, "ok": ok}
            )
    passed = not node_failures and all(m["ok"] for m in mutation_results)
    return _result(8, "six-term exactness and mutations", passed, t0,
                   node_failures=node_failures, mutations=mutation_results)


def criterion_9_duality() -> dict:
    t0 = time.perf_counter()
    dual = kk.check_duality()
    faith = kk.check_faithfulness()
    passed = dual["passed"] and faith["passed"]
    return _result(9, "boundary-map duality and faithfulness", passed, t0,
                   duality=dual, faithfulness=faith)


def criterion_10_algebra_oracle(seed=DEFAULT_SEED) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 3)

    def matrix_of(g: GroupElement):
        m = np.eye(3, dtype=object)
        m[0, 1], m[0, 2], m[1, 2] = g.q, g.r, g.p
        return m

    product_failures = 0
    for _ in range(PRODUCTS):
        g1 = GroupElement(*[int(v) for v in rng.integers(-10, 11, 3)])
        g2 = GroupElement(*[int(v) for v in rng.integers(-10, 11, 3)])
        if not (matrix_of(g1 * g2) == matrix_of(g1) @ matrix_of(g2)).all():
            product_failures += 1

    hom_failures = 0
    worst = 0.0
    for (s, t) in ((0, 1), (1, 2), (1, 3), (2, 5)):
        theta = RationalAngle.of(s, t)
        for _ in range(10):
            a = random_element(rng, box=4, n_terms=3)
            b = random_element(rng, box=4, n_terms=3)
            ma, mb = eval_at_angle(a, theta), eval_at_angle(b, theta)
            err = max(
                float(np.max(np.abs(eval_at_angle(a * b, theta) - ma @ mb))),
                float(np.max(np.abs(eval_at_angle(a.star(), theta) - ma.conj().T))),
            )
            worst = max(worst, err)
            if err > 1e-12:
                hom_failures += 1
    passed = product_failures == 0 and hom_failures == 0
    return _result(10, "algebra oracle equivalence", passed, t0,
                   product_failures=product_failures,
                   hom_failures=hom_failures, worst_error=worst)


ALL_CRITERIA = (
    criterion_1_pairing_tables,
    criterion_2_index_theorem,
    criterion_3_dirac_bott,
    criterion_4_decomposition,
    criterion_5_central_generator,
    criterion_6_centralizers,
    criterion_7_cohomology,
    criterion_8_exactness,
    criterion_9_duality,
    criterion_10_algebra_oracle,
)


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run every criterion; one that raises is reported as failed, with the
    error in its details, and the others still run."""
    results = []
    for fn in ALL_CRITERIA:
        takes_seed = "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]
        t0 = time.perf_counter()
        try:
            results.append(fn(seed=seed) if takes_seed else fn())
        except Exception as e:  # a fault in one criterion must not hide the rest
            number = int(fn.__name__.split("_")[1])
            results.append(_result(number, fn.__name__, False, t0,
                                   error=f"{type(e).__name__}: {e}"))
    return {
        "passed": all(r["passed"] for r in results),
        "seed": seed,
        "results": results,
    }
