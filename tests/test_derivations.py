import time
from math import lcm

import numpy as np
import pytest
from conftest import no_work, per_draw_element, same_terms, seeded
from hypothesis import given
from hypothesis import strategies as st

from heisenberg_ncg import derivations as dv
from heisenberg_ncg.algebra import (
    ONE,
    U,
    V,
    W,
    AlgebraElement,
    GaussianRational,
    random_element,
)
from heisenberg_ncg.derivations import (
    ConsistencyReport,
    DecompositionResult,
    Derivation,
    Violation,
    apply,
    canonical_derivation,
    check_consistency,
    compose_from_parts,
    decompose,
    derivation_from_dict,
    derivation_to_dict,
    inner_coefficient,
    inner_derivation,
    random_consistent_derivation,
)


# Property tests run at box <= 3 with <= 4 terms.
small = st.integers(-3, 3)
fractions = st.fractions(-3, 3, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)
elements = st.dictionaries(st.tuples(small, small, small), gaussians, max_size=4).map(
    AlgebraElement
)
centrals = st.dictionaries(small, gaussians, max_size=2).map(
    lambda t: AlgebraElement({(0, 0, r): c for r, c in t.items()})
)
derivations = st.builds(compose_from_parts, centrals, centrals, elements)
monomials = st.builds(lambda k, c: AlgebraElement({k: c}), st.tuples(small, small, small),
                      gaussians.filter(lambda c: not c.is_zero()))
perturbed = st.one_of(
    st.builds(lambda d, m: Derivation(d.dU + m, d.dV), derivations, monomials),
    st.builds(lambda d, m: Derivation(d.dU, d.dV + m), derivations, monomials),
)
arbitrary = st.builds(Derivation, elements, elements)


def leibniz_reference(d: Derivation, y: AlgebraElement) -> AlgebraElement:
    """d(y) built from d(U) and d(V) power by power with the Leibniz rule,
    independently of the decomposition."""

    def power_image(gen, dgen, n):
        if n == 0:
            return AlgebraElement.zero()
        if n < 0:  # d(g^-1) = -g^-1 d(g) g^-1, generators are unitary
            ginv = gen.star()
            return power_image(ginv, (-(ginv * dgen)) * ginv, -n)
        out, power = dgen, gen
        for _ in range(n - 1):
            out = out * gen + power * dgen
            power = power * gen
        return out

    out = AlgebraElement.zero()
    for (p, q, r), c in y.terms.items():
        up, vq = AlgebraElement.monomial(p, 0, 0), AlgebraElement.monomial(0, q, 0)
        wr = AlgebraElement.monomial(0, 0, r)
        term = power_image(U, d.dU, p) * vq * wr + up * power_image(V, d.dV, q) * wr
        out = out + term.scale(c)
    return out


def coefficient_consistency(d: Derivation) -> ConsistencyReport:
    """The relation checked coefficient by coefficient: the four-term sum at
    every cell where one of its terms is supported."""
    a, b = d.dU.terms, d.dV.terms
    violations = [Violation("axis-a", k) for k in sorted(a) if k[1] == 0 and k[0] != 1]
    violations += [Violation("axis-b", k) for k in sorted(b) if k[0] == 0 and k[1] != 1]
    cells = set()
    for (P, Q, R) in a:
        cells |= {(P - 1, Q, R - Q + 1), (P - 1, Q, R + P - Q)}
    for (P, Q, R) in b:
        cells |= {(P, Q - 1, R + 1), (P, Q - 1, R - Q + 2)}
    zero = GaussianRational(0)
    for (p, q, r) in sorted(cells):
        lhs = (b.get((p, q + 1, r - 1), zero) - b.get((p, q + 1, r + q - 1), zero)
               + a.get((p + 1, q, r - p + q - 1), zero) - a.get((p + 1, q, r + q - 1), zero))
        if not lhs.is_zero():
            violations.append(Violation("relation", (p, q, r)))
    return ConsistencyReport(not violations, tuple(violations))


def column_consistency(d: Derivation) -> ConsistencyReport:
    """The check as it was column by column: the columns A of d(U) at
    (p+1, q) and B of d(V) at (p, q+1), each entry added as an integer
    numerator over the lcm of all denominators into the two cells of
    (W^p - 1) A + (W^q - 1) B it enters, and every cell key sorted."""
    violations = [Violation("axis-a", k) for k in d.dU.support() if k[1] == 0 and k[0] != 1]
    violations += [Violation("axis-b", k) for k in d.dV.support() if k[0] == 0 and k[1] != 1]

    def columns(x, dp, dq):
        cols = {}
        for (p, q, r), c in x._terms.items():
            cols.setdefault((p - dp, q - dq), {})[r] = c
        return cols

    a_cols, b_cols = columns(d.dU, 1, 0), columns(d.dV, 0, 1)
    den = lcm(*[e for cols in (a_cols, b_cols) for col in cols.values()
                for _, _, e in col.values()])
    sums = {}
    get = sums.get
    for cols, axis in ((a_cols, 0), (b_cols, 1)):
        for (p, q), col in cols.items():
            if step := (p, q)[axis]:
                for h, (a, b, e) in col.items():
                    a, b = a * (den // e), b * (den // e)
                    key = (p, q, h + step + 1 - q)
                    s = get(key)
                    sums[key] = (a, b) if s is None else (s[0] + a, s[1] + b)
                    key = (p, q, h + 1 - q)
                    s = get(key)
                    sums[key] = (-a, -b) if s is None else (s[0] - a, s[1] - b)
    violations += [Violation("relation", k) for k in sorted(sums) if sums[k] != (0, 0)]
    return ConsistencyReport(not violations, tuple(violations))


def ring_identity_cells(d: Derivation) -> list:
    """The relation cells from the definition: each term U^p V^q W^r of
    d(V) U + V d(U) - W (d(U) V + U d(V)) at the cell (p-1, q-1, r-q+1)."""
    lhs = d.dV * U + V * d.dU - W * (d.dU * V + U * d.dV)
    return [(p - 1, q - 1, r - q + 1) for p, q, r in lhs.support()]


def perturbations(rng, d: Derivation) -> list:
    """d with one added term each: a d(U) term at q = 0, a d(V) term at
    p = 0, and a random term off both axes."""
    def term(p, q):
        return AlgebraElement.monomial(p, q, int(rng.integers(-4, 5)),
                                       GaussianRational(int(rng.integers(1, 4)),
                                                        int(rng.integers(-2, 3))))
    p, q = (int(v) for v in rng.choice([-3, -2, -1, 2, 3], 2))
    a, b = (int(v) for v in rng.choice([-3, -2, -1, 1, 2, 3], 2))
    return [Derivation(d.dU + term(p, 0), d.dV), Derivation(d.dU, d.dV + term(0, q)),
            Derivation(d.dU + term(a, b), d.dV) if rng.integers(2)
            else Derivation(d.dU, d.dV + term(a, b))]


def telescope(column, r, step, route):
    """The inner-part coefficient at height r as a telescoping sum of the
    column's entries away from height 0, with a sign case per direction:
    a reference independent of the column quotient."""
    outward = (step > 0) == (r >= 0)
    stride = step if outward else -step
    start = r + stride if outward else r
    total = sum((c for h, c in column.items()
                 if (h - start) % stride == 0 and (h - start) * stride >= 0),
                GaussianRational(0))
    return -total if outward == (route == "a") else total


def route_columns(d):
    """Columns of dU at (p+1, q) and of dV at (p, q+1), keyed by (p, q)."""
    a, b = {}, {}
    for (p, q, r), c in d.dU.terms.items():
        a.setdefault((p - 1, q), {})[r] = c
    for (p, q, r), c in d.dV.terms.items():
        b.setdefault((p, q - 1), {})[r] = c
    return a, b


def telescoped_inner_part(d):
    """x telescoped at every height between each column and 0: the a-route
    for q != 0, the b-route for q == 0."""
    a, b = route_columns(d)
    terms = {}
    for (p, q) in (a.keys() | b.keys()) - {(0, 0)}:
        column, step, route = (a.get((p, q)), q, "a") if q else (b.get((p, q)), p, "b")
        if not column:
            continue
        for r in range(min(min(column), 0), max(max(column), 0) + 1):
            terms[(p, q, r)] = telescope(column, r, step, route)
    return AlgebraElement(terms)


def stretched(n):
    """The inner derivation of x = sum_{r=0}^{n} U^2 V W^r, written from its
    six terms: d(U) = U^3 V (1 - W^(n+1)), d(V) = U^2 V^2 (W^2 - 1)(1 + ... + W^n)."""
    dU = AlgebraElement({(3, 1, 0): 1, (3, 1, n + 1): -1})
    dV = AlgebraElement({(2, 2, 0): -1, (2, 2, 1): -1, (2, 2, n + 1): 1, (2, 2, n + 2): 1})
    return Derivation(dU, dV)


def random_central(rng, n=2, box=5):
    return AlgebraElement({(0, 0, int(r)): int(c) for r, c in zip(
        rng.integers(-box, box + 1, n), rng.integers(-4, 5, n))})


def random_inner_part(rng, box=5, n_terms=4):
    x = random_element(rng, box=box, n_terms=n_terms)
    return AlgebraElement({k: c for k, c in x.terms.items() if (k[0], k[1]) != (0, 0)})


def per_draw_parts(rng, box, n_terms):
    """``random_derivation_parts`` with one rng call for the heights and one
    for the coefficients of each central part: the reference for its seed
    contract."""
    z1, z2 = random_central(rng, box=box), random_central(rng, box=box)
    x = per_draw_element(rng, box, n_terms)
    return DecompositionResult(
        z1, z2, AlgebraElement({k: c for k, c in x.terms.items() if k[0] or k[1]}))


@pytest.mark.parametrize("box", [0, 1, 3, 4, 5, 9])
@pytest.mark.parametrize("n_terms", [0, 1, 3, 4, 6, 20])
def test_random_parts_match_the_per_draw_order(box, n_terms):
    # box 0 draws equal heights, where the second coefficient is kept
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dv.random_derivation_parts(rng, box, n_terms)
        want = per_draw_parts(ref, box, n_terms)
        assert all(map(same_terms, got, want))
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def three_draw_parts(rng, box, n_terms):
    """``random_derivation_parts`` as three draws: the four values of z1,
    those of z2, then ``random_element``.  Returns the parts and the two
    central draws [r1, r2, c1, c2]."""
    centrals = [rng.integers([-box, -box, -4, -4], [box + 1, box + 1, 5, 5]).tolist()
                for _ in range(2)]
    z1, z2 = (AlgebraElement({(0, 0, r1): c1, (0, 0, r2): c2}) for r1, r2, c1, c2 in centrals)
    x = random_element(rng, box=box, n_terms=n_terms)
    x = AlgebraElement({k: c for k, c in x.terms.items() if k[0] or k[1]})
    return DecompositionResult(z1, z2, x), centrals


@pytest.mark.parametrize("box", [0, 1, 3, 5])
@pytest.mark.parametrize("n_terms", [0, 1, 4, 20])
def test_one_draw_matches_three_draws(box, n_terms):
    seen = set()
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dv.random_derivation_parts(rng, box, n_terms)
        want, centrals = three_draw_parts(ref, box, n_terms)
        assert all(map(same_terms, got, want))
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
        for z, (r1, r2, c1, c2) in zip(got[:2], centrals):
            if r1 == r2:  # the second coefficient is kept, even a zero one
                seen.add("equal heights")
                assert z.support() == ([(0, 0, r1)] if c2 else [])
                assert z.coeff(0, 0, r1) == GaussianRational(c2)
            elif 0 in (c1, c2):  # a zero coefficient is dropped
                seen.add("zero coefficient")
                assert len(z.support()) == (c1 != 0) + (c2 != 0)
    # at box 0 both heights are always 0
    assert seen == {"equal heights"} | ({"zero coefficient"} if box else set())


class TestLeibnizAndConsistency:
    def test_canonical_derivations(self):
        d1, d2 = canonical_derivation(1), canonical_derivation(2)
        assert d1.dU == U and d1.dV.is_zero()
        assert d2.dV == V and d2.dU.is_zero()
        assert check_consistency(d1).passed
        assert check_consistency(d2).passed

    def test_inner_derivations_are_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_element(rng, box=4, n_terms=3)
            assert check_consistency(inner_derivation(x)).passed

    def test_apply_satisfies_leibniz(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            d = random_consistent_derivation(rng, box=3)
            a = random_element(rng, box=3, n_terms=2)
            b = random_element(rng, box=3, n_terms=2)
            assert apply(d, a * b) == apply(d, a) * b + a * apply(d, b)

    def test_apply_matches_inner_commutator(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            x = random_element(rng, box=3, n_terms=3)
            a = random_element(rng, box=3, n_terms=3)
            assert apply(inner_derivation(x), a) == a.commutator(x)

    def test_central_generator_annihilated(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = random_consistent_derivation(rng, box=4)
            assert apply(d, W).is_zero()
            assert apply(d, W * W).is_zero()

    def test_apply_rejects_inconsistent(self):
        bad = Derivation(U * U, AlgebraElement.zero())
        n = len(check_consistency(bad).violations)
        with pytest.raises(ValueError, match=f"\\({n} violating cells\\)"):
            apply(bad, U)

    def test_axis_violations_flagged(self):
        # dU coefficient at (p, 0, r) with p != 1 violates the first axis rule
        bad = Derivation(AlgebraElement.monomial(3, 0, 1), AlgebraElement.zero())
        rep = check_consistency(bad)
        assert not rep.passed
        assert any(v.kind == "axis-a" for v in rep.violations)
        # dV coefficient at (0, q, r) with q != 1 violates the second
        bad = Derivation(AlgebraElement.zero(), AlgebraElement.monomial(0, -2, 0))
        rep = check_consistency(bad)
        assert not rep.passed
        assert any(v.kind == "axis-b" for v in rep.violations)

    def test_relation_violations_flagged(self):
        rng = np.random.default_rng(15)
        flagged = 0
        for _ in range(10):
            d = random_consistent_derivation(rng, box=3)
            terms = d.dU.terms
            key = (2, 3, int(rng.integers(-3, 4)))
            terms[key] = (terms.get(key) or GaussianRational(0)) + GaussianRational(1)
            bad = Derivation(AlgebraElement(terms), d.dV)
            rep = check_consistency(bad)
            if not rep.passed and any(v.kind == "relation" for v in rep.violations):
                flagged += 1
        assert flagged == 10

    @seeded(200)
    @given(st.one_of(derivations, perturbed, arbitrary))
    def test_matches_coefficient_relation(self, d):
        assert check_consistency(d) == coefficient_consistency(d)

    @pytest.mark.parametrize("box", [1, 3, 5])
    def test_matches_the_column_check_on_drawn_and_perturbed(self, box):
        rng = np.random.default_rng(box)
        kinds = set()
        for _ in range(40):
            d = random_consistent_derivation(rng, box=box, n_terms=4)
            for case in [d, *perturbations(rng, d)]:
                want = column_consistency(case)
                assert check_consistency(case) == want
                kinds |= {v.kind for v in want.violations}
        assert kinds == {"axis-a", "axis-b", "relation"}

    @seeded(200)
    @given(st.one_of(derivations, perturbed, arbitrary))
    def test_column_check_is_the_ring_identity(self, d):
        rep = column_consistency(d)
        assert [v.cell for v in rep.violations if v.kind == "relation"] == ring_identity_cells(d)
        assert rep == coefficient_consistency(d)

    def test_takes_no_ring_product(self, monkeypatch):
        rng = np.random.default_rng(16)
        good = random_consistent_derivation(rng, box=4, n_terms=6)
        bad = Derivation(good.dU + AlgebraElement.monomial(2, 3, 1), good.dV + V * V)
        want = coefficient_consistency(bad)
        assert not want.passed
        assert {v.kind for v in want.violations} == {"axis-b", "relation"}
        monkeypatch.setattr(AlgebraElement, "__mul__", no_work)
        assert check_consistency(good) == ConsistencyReport(True)
        assert check_consistency(bad) == want


class TestApplyProperties:
    @seeded(40)
    @given(derivations)
    def test_generators_map_to_their_images(self, d):
        assert apply(d, U) == d.dU
        assert apply(d, V) == d.dV

    @seeded(40)
    @given(derivations, elements, elements)
    def test_leibniz_rule(self, d, a, b):
        assert apply(d, a * b) == apply(d, a) * b + a * apply(d, b)

    @seeded(40)
    @given(derivations, elements)
    def test_matches_power_by_power_leibniz_extension(self, d, y):
        assert apply(d, y) == leibniz_reference(d, y)

    def test_parts_in_place_of_the_derivation(self, monkeypatch):
        rng = np.random.default_rng(19)
        cases = []
        for box in (1, 3, 5):
            for _ in range(15):
                d = random_consistent_derivation(rng, box=box, n_terms=4)
                cases.append((d, decompose(d), random_element(rng, box=box, n_terms=4)))
        want = [apply(d, y) for d, _, y in cases]
        monkeypatch.setattr(dv, "decompose", no_work)  # parts are not split again
        assert [apply(parts, y) for _, parts, y in cases] == want

    def test_parts_with_a_non_central_z_are_refused(self):
        x = AlgebraElement.monomial(1, 1, 0)
        for parts in (DecompositionResult(U, ONE, x), DecompositionResult(ONE, W + V, x)):
            with pytest.raises(ValueError, match=r"^z1 and z2 must be central \(W-axis\)"):
                apply(parts, U)
            with pytest.raises(ValueError, match=r"^z1 and z2 must be central"):
                compose_from_parts(*parts)

    @seeded(40)
    @given(centrals, centrals, elements)
    def test_decompose_inverts_compose(self, z1, z2, x):
        x = AlgebraElement({k: c for k, c in x.terms.items() if k[:2] != (0, 0)})
        res = decompose(compose_from_parts(z1, z2, x))
        assert (res.z1, res.z2, res.x) == (z1, z2, x)


class TestDecomposition:
    def test_inner_by_u(self):
        res = decompose(inner_derivation(U))
        assert res.z1.is_zero() and res.z2.is_zero() and res.x == U

    def test_canonical_parts_recovered(self):
        res = decompose(canonical_derivation(1))
        assert res.z1 == ONE and res.z2.is_zero() and res.x.is_zero()

    def test_hundred_roundtrips_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            z1, z2 = random_central(rng), random_central(rng)
            x = random_inner_part(rng, box=5)
            d = compose_from_parts(z1, z2, x)
            res = decompose(d)
            assert res.z1 == z1 and res.z2 == z2 and res.x == x

    def test_route_agreement_on_interior_cells(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = random_consistent_derivation(rng, box=4)
            for p in range(-5, 6):
                for q in range(-5, 6):
                    if p and q:
                        assert inner_coefficient(d, p, q, "a") == inner_coefficient(
                            d, p, q, "b")

    def test_tall_column_is_linear_in_height(self):
        # the quotient walks the column's entries, not the heights below them
        for (p, q, h) in [(2, 3, 10**5), (2, 3, 10**9), (2, 3, -10**9), (-2, -3, -10**9)]:
            x = AlgebraElement.monomial(p, q, h)
            t0 = time.perf_counter()
            res = decompose(inner_derivation(x))
            assert time.perf_counter() - t0 < 1.0
            assert res.x == x and res.z1.is_zero() and res.z2.is_zero()

    @seeded(60)
    @given(derivations)
    def test_matches_height_by_height_telescope(self, d):
        assert decompose(d).x == telescoped_inner_part(d)
        a, b = route_columns(d)
        for (p, q) in (a.keys() | b.keys() | {(-1, -2), (2, 1)}) - {(0, 0)}:
            for route, cols, step in (("a", a, q), ("b", b, p)):
                if not step:  # the a-route needs q != 0, the b-route p != 0
                    continue
                column = inner_coefficient(d, p, q, route)
                for r in range(-8, 9):
                    want = telescope(cols.get((p, q), {}), r, step, route)
                    assert column.get(r, GaussianRational()) == want

    def test_infinite_quotient_has_no_coefficient(self):
        # d(U) = U V: the a-route column at (0, 1) is V over 1 - W
        with pytest.raises(ArithmeticError, match=r"a-route quotient at cell \(0, 1\)"):
            inner_coefficient(Derivation(U * V, AlgebraElement.zero()), 0, 1, "a")

    def test_inner_part_cap(self, monkeypatch):
        # six terms ask for 10**9 + 1 terms of x: refused before any is written
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {dv.MAX_INNER_TERMS} terms"):
            decompose(stretched(10**9))
        with pytest.raises(ValueError, match=f"more than {dv.MAX_INNER_TERMS} terms"):
            apply(stretched(10**9), V)
        assert time.perf_counter() - t0 < 1.0
        monkeypatch.setattr(dv, "MAX_INNER_TERMS", 10)
        assert decompose(stretched(9)).x == AlgebraElement({(2, 1, r): 1 for r in range(10)})
        with pytest.raises(ValueError, match="more than 10 terms"):
            decompose(stretched(10))

    def test_decompose_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            decompose(Derivation(U * U, AlgebraElement.zero()))

    def test_refusals_are_worded_as_before(self):
        # the messages the check, the split and the cap gave before the
        # check lost its columns, word for word
        messages = [
            (Derivation(U * U, AlgebraElement.zero()), ValueError,
             "cannot decompose an inconsistent derivation (3 violating cells)"),
            (Derivation(U * V, AlgebraElement.zero()), ArithmeticError,
             "d is not z1*d1 + z2*d2 + [., x] for any finitely supported x (cells where "
             "the reconstruction differs from d: 1; cells (p, q) of x with infinite "
             "support: [(0, 1)])"),
            (stretched(10**9), ValueError, "the inner part has more than 1000000 terms"),
        ]
        for d, error, message in messages:
            with pytest.raises(error) as raised:
                decompose(d)
            assert type(raised.value) is error and str(raised.value) == message

    def test_gaussian_rational_coefficients_roundtrip(self):
        z1 = AlgebraElement({(0, 0, -1): GaussianRational("1/2", "-2/3")})
        x = AlgebraElement({(2, -3, 1): GaussianRational("7/5", "1/9")})
        d = compose_from_parts(z1, AlgebraElement.zero(), x)
        res = decompose(d)
        assert res.z1 == z1 and res.z2.is_zero() and res.x == x


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(18)
        d = random_consistent_derivation(rng, box=4)
        assert derivation_from_dict(derivation_to_dict(d)) == d
