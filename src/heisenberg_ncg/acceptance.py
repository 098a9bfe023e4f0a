"""End-to-end verification suite.

Ten numbered criteria, each a function of its seed alone (if it takes one)
returning a result dict with a ``passed`` flag and enough detail to
diagnose a failure; equal seeds give equal results.  ``run_criterion``
runs one of them and is the only code here that reads the clock or catches
a criterion's failure: it returns the result and, beside it, the seconds
the criterion took.  ``run_all`` runs all ten through it and is what the
command-line ``report all`` and the acceptance test suite call; its report
holds no timing, so the same seed gives the same report.
"""

from __future__ import annotations

import time

from . import UnsupportedInput
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
    RationalAngle,
    eval_at_angle,
    random_element,
)
from .group import GroupElement, group_product

DEFAULT_SEED = 20230823
# Criterion 1 walks kk's pairing tables through two maps: a representative
# of each K-theory generator, under kk's row labels (the one for [P_b] is a
# placeholder, [P_a]'s projection, which reaches z0 through the same scalar
# image; ROADMAP item 8 replaces it) ...
_Z = AlgebraElement.zero()
_DIAG_1_0 = [[ONE, _Z], [_Z, _Z]]
KTHEORY_REPRESENTATIVES = {"[1]": ONE, "[P_a]": _DIAG_1_0, "[P_b]": _DIAG_1_0,
                           "[U]": U, "[V]": V, "[V_a]": [[V, _Z], [_Z, ONE]]}
# ... and the fredholm module that is a K-homology column's numeric route,
# under kk's column labels; a column without one is stated, not checked.
KHOMOLOGY_ROUTES = {"z1": "z1", "z1'": "z1prime", "z0": "z0"}
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


def _result(number: int, name: str, passed: bool, **details) -> dict:
    return {"criterion": number, "name": name, "passed": bool(passed), "details": details}


def _odd_check(entry: str, name: str, u, want: int) -> dict:
    """The cocycle value as ``got``, with the kernel dimensions of the
    K-homology route beside it."""
    return {"entry": entry, "got": fr.odd_cocycle_pairing(name, u),
            **fr.odd_pairing(name, u)._asdict(), "want": want}


def _even_check(entry: str, name: str, p, want: int) -> dict:
    return {"entry": entry, "got": fr.even_pairing_trace(name, p), "want": want}


def criterion_1_pairing_tables() -> dict:
    """Recompute every pairing-table entry that has a numeric route."""
    tables, reps = kk.pairing_tables(), KTHEORY_REPRESENTATIVES
    checks = [
        check(f"<{col}, {row}>", KHOMOLOGY_ROUTES[col], reps[row], table.entry(row, col))
        for table, check in ((tables["odd"], _odd_check), (tables["even"], _even_check))
        for col in table.cols if col in KHOMOLOGY_ROUTES
        for row in table.rows
    ]
    # the boundary image of the first odd torus module pairs to zero with
    # all three even generators: trace route for [1] and [P_a], index route
    # <w1, [W]> = 0 for [P_b] (boundary-map adjointness).
    checks += [
        _even_check("<d1(w1), [1]>", "del1_w1", reps["[1]"], 0),
        _even_check("<d1(w1), [P_a]>", "del1_w1", reps["[P_a]"], 0),
        _odd_check("<d1(w1), [P_b]> via <w1, [W]>", "w1", W, 0),
    ]
    passed = all(c["got"] == c["want"] == c.get("dim_ker", c["got"]) - c.get("dim_ker_star", 0)
                 for c in checks)
    return _result(1, "pairing table recomputation", passed, checks=checks)


def criterion_2_index_theorem() -> dict:
    """The half-line compression of the implementing unitary has index 1."""
    idx = fr.odd_cocycle_pairing("z1prime", V)
    kernels = fr.odd_pairing("z1prime", V)
    return _result(2, "Toeplitz index instance", idx == kernels.index == 1, index=idx,
                   **kernels._asdict())


def criterion_3_dirac_bott() -> dict:
    """Lattice Chern number +1 and agreement with the Dirac trace route."""
    from . import chern as ch

    fields = {g: ch.bott_projector(g, 1.0) for g in GRIDS}
    cherns = {g: ch.lattice_chern(f) for g, f in fields.items()}
    dirac = ch.dirac_even_pairing(fields[max(GRIDS)], truncation=DIRAC_TRUNCATION)
    passed = all(v == 1 for v in cherns.values()) and dirac["value"] == 1
    return _result(3, "Dirac/Bott pairing cross-oracle", passed,
                   lattice_chern=cherns, dirac=dirac)


def criterion_4_decomposition(seed=DEFAULT_SEED) -> dict:
    """Exact decomposition round-trips and two-route cell agreement."""
    import numpy as np

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
        # Cells (p, q), p, q != 0, whose a-column (dU at p+1, q) or b-column
        # (dV at p, q+1) is nonempty; on every other cell both routes are zero.
        live = ({(p - 1, q) for p, q, _ in d.dU.terms}
                | {(p, q - 1) for p, q, _ in d.dV.terms})
        for p, q in live:
            if p and q and (dv.inner_coefficient(d, p, q, "a")
                            != dv.inner_coefficient(d, p, q, "b")):
                route_failures += 1
    passed = not failures and route_failures == 0
    return _result(4, "derivation decomposition round-trip", passed,
                   roundtrip_failures=failures, route_mismatch_cells=route_failures)


def criterion_5_central_generator(seed=DEFAULT_SEED) -> dict:
    """d(W) = 0 for consistent derivations; injected relation violations
    are detected."""
    import numpy as np

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
        # Add a dU term at q = 0, p in {2, 3, 4}, where the a-axis rule
        # leaves a consistent d none.
        key = (int(rng.integers(2, 5)), 0, int(rng.integers(-3, 4)))
        bad = dv.Derivation(AlgebraElement({**d.dU.terms, key: GaussianRational(1)}), d.dV)
        injected += 1
        if not dv.check_consistency(bad).passed:
            detected += 1
    passed = w_failures == 0 and detected == injected
    return _result(5, "central generator annihilated", passed,
                   w_failures=w_failures, injected=injected, detected=detected)


def criterion_6_centralizers(seed=DEFAULT_SEED) -> dict:
    """Closed-form centralizer membership equals brute-force enumeration."""
    import numpy as np

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
        if not np.array_equal(gs.brute_force_centralizer(g, CENTRALIZER_BOX),
                              gs.centralizer_membership(g, points)):
            mismatches.append(g.as_tuple())
    passed = not mismatches and {"Case1", "Case2", "Case3", "Case4a", "Case4b"} <= cases
    return _result(6, "centralizer classification vs brute force", passed,
                   mismatches=mismatches, cases=sorted(cases))


def criterion_7_cohomology() -> dict:
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
    return _result(7, "cohomology profiles", passed,
                   h3_profile=list(profile), cyclic_ranks=ranks,
                   periodic=list(periodic))


def criterion_8_exactness() -> dict:
    node_failures, mutation_results = [], []
    for builder in (kk.pv_ktheory_sequence, kk.khomology_sequence):
        node_failures += [r.node for r in kk.check_exactness(builder()) if not r.exact]
        for i in range(6):
            seq = builder()
            seq[i] = seq[i].mutated(0, 0)
            failed = [r.node for r in kk.check_exactness(seq) if not r.exact]
            # a mutated map can only break exactness at its source and target
            predicted = [seq[i].source.name, seq[i].target.name]
            ok = bool(failed) and set(failed) <= set(predicted)
            mutation_results.append(
                {"map": seq[i].name, "failed_nodes": failed,
                 "predicted": predicted, "ok": ok}
            )
    passed = not node_failures and all(m["ok"] for m in mutation_results)
    return _result(8, "six-term exactness and mutations", passed,
                   node_failures=node_failures, mutations=mutation_results)


def criterion_9_duality() -> dict:
    dual = kk.check_duality()
    faith = kk.check_faithfulness()
    passed = dual["passed"] and faith["passed"]
    return _result(9, "boundary-map duality and faithfulness", passed,
                   duality=dual, faithfulness=faith)


def criterion_10_algebra_oracle(seed=DEFAULT_SEED) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed + 3)

    def matrices_of(g):
        """((1, q, r), (0, 1, p), (0, 0, 1)) for each triple (p, q, r) on
        the last axis of g."""
        m = np.zeros(g.shape[:-1] + (3, 3), dtype=np.int64)
        m[..., 0, 0] = m[..., 1, 1] = m[..., 2, 2] = 1
        m[..., 0, 1], m[..., 0, 2], m[..., 1, 2] = g[..., 1], g[..., 2], g[..., 0]
        return m

    # The group law and the matrix model each take all pairs in one int64
    # batch, which inputs of at most 10 in size cannot overflow.
    pairs = rng.integers(-10, 11, size=(PRODUCTS, 2, 3))
    products = np.stack(group_product(pairs[:, 0].T, pairs[:, 1].T), axis=-1)
    model = matrices_of(pairs)
    wrong = (matrices_of(products) != model[:, 0] @ model[:, 1]).any(axis=(1, 2))
    product_failures = int(np.count_nonzero(wrong))

    hom_failures = 0
    worst = 0.0
    for (s, t) in ((0, 1), (1, 2), (1, 3), (2, 5)):
        theta = RationalAngle.of(s, t)
        for _ in range(10):
            a = random_element(rng, box=4, n_terms=3)
            b = random_element(rng, box=4, n_terms=3)
            ma, mb, mab, ms = (np.array(eval_at_angle(x, theta))
                               for x in (a, b, a * b, a.star()))
            err = max(float(np.max(np.abs(mab - ma @ mb))),
                      float(np.max(np.abs(ms - ma.conj().T))))
            worst = max(worst, err)
            if err > 1e-12:
                hom_failures += 1
    passed = product_failures == 0 and hom_failures == 0
    return _result(10, "algebra oracle equivalence", passed,
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


def run_criterion(fn, seed: int = DEFAULT_SEED) -> tuple[dict, float]:
    """(result, seconds) of one criterion, ``seed`` passed only to a
    criterion that takes one.  One that raises is reported as failed, with
    the error in its details; a negative seed, which numpy's generators
    refuse, raises UnsupportedInput before any criterion runs."""
    if seed < 0:
        raise UnsupportedInput(f"seed must be nonnegative, got {seed}")
    takes_seed = "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]
    t0 = time.perf_counter()
    try:
        result = fn(seed=seed) if takes_seed else fn()
    except Exception as e:  # a fault in one criterion must not hide the rest
        result = _result(int(fn.__name__.split("_")[1]), fn.__name__, False,
                         error=f"{type(e).__name__}: {e}")
    return result, round(time.perf_counter() - t0, 3)


def run_all(seed: int = DEFAULT_SEED) -> tuple[dict, dict[str, float]]:
    """(report, elapsed): every criterion's result under one ``passed``
    flag, and the seconds each took, keyed ``criterion_N``."""
    results, elapsed = [], {}
    for fn in ALL_CRITERIA:
        result, seconds = run_criterion(fn, seed)
        results.append(result)
        elapsed[f"criterion_{result['criterion']}"] = seconds
    return {"passed": all(r["passed"] for r in results), "seed": seed,
            "results": results}, elapsed
