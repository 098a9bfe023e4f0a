import time

import numpy as np
import pytest
from conftest import seeded
from hypothesis import given
from hypothesis import strategies as st

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


def random_central(rng, n=2):
    return AlgebraElement(
        {(0, 0, int(r)): int(c) for r, c in zip(rng.integers(-5, 6, n), rng.integers(-4, 5, n))}
    )


def random_inner_part(rng, box=5, n_terms=4):
    x = random_element(rng, box=box, n_terms=n_terms)
    return AlgebraElement({k: c for k, c in x.terms.items() if (k[0], k[1]) != (0, 0)})


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
            terms[key] = (terms.get(key) or GaussianRational.of(0)) + GaussianRational.of(1)
            bad = Derivation(AlgebraElement(terms), d.dV)
            rep = check_consistency(bad)
            if not rep.passed and any(v.kind == "relation" for v in rep.violations):
                flagged += 1
        assert flagged == 10

    @seeded(200)
    @given(st.one_of(derivations, perturbed, arbitrary))
    def test_matches_coefficient_relation(self, d):
        assert check_consistency(d) == coefficient_consistency(d)


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
                    if p == 0 or q == 0:
                        continue
                    for r in range(-7, 8):
                        assert inner_coefficient(d, p, q, r, "a") == inner_coefficient(
                            d, p, q, r, "b"
                        )

    def test_tall_column_is_linear_in_height(self):
        # a telescope sums the column's entries, not every height below it
        x = AlgebraElement.monomial(2, 3, 10**5)
        t0 = time.perf_counter()
        res = decompose(inner_derivation(x))
        assert time.perf_counter() - t0 < 10.0
        assert res.x == x and res.z1.is_zero() and res.z2.is_zero()

    def test_decompose_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            decompose(Derivation(U * U, AlgebraElement.zero()))

    def test_gaussian_rational_coefficients_roundtrip(self):
        z1 = AlgebraElement({(0, 0, -1): GaussianRational.of("1/2", "-2/3")})
        x = AlgebraElement({(2, -3, 1): GaussianRational.of("7/5", "1/9")})
        d = compose_from_parts(z1, AlgebraElement.zero(), x)
        res = decompose(d)
        assert res.z1 == z1 and res.z2.is_zero() and res.x == x


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(18)
        d = random_consistent_derivation(rng, box=4)
        assert derivation_from_dict(derivation_to_dict(d)) == d
