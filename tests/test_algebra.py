import json
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import no_work, per_draw_element, same_terms, seeded, tracked
from hypothesis import example, given
from hypothesis import strategies as st

from heisenberg_ncg import algebra, derivations
from heisenberg_ncg.algebra import (
    MAX_EVAL_DIMENSION,
    MAX_TERM_PRODUCTS,
    ONE,
    U,
    V,
    W,
    AlgebraElement,
    GaussianRational,
    GroupElement,
    RationalAngle,
    UnsupportedInput,
    apply_automorphism,
    element_from_dict,
    element_to_dict,
    eval_at_angle,
    is_central,
    random_element,
)
from heisenberg_ncg.derivations import apply, random_consistent_derivation

ints = st.integers(-8, 8)
triples = st.tuples(ints, ints, ints)

small = st.integers(-3, 3)
fractions = st.fractions(-3, 3, max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)
elements = st.dictionaries(st.tuples(small, small, small), gaussians, max_size=4).map(
    AlgebraElement
)
axis_elements = st.dictionaries(st.tuples(st.just(0), st.just(0), small), gaussians,
                                max_size=4).map(AlgebraElement)
drawn = st.builds(lambda seed, box, n: random_element(np.random.default_rng(seed), box, n),
                  st.integers(0, 2**32), st.sampled_from([0, 1, 3]), st.sampled_from([1, 3, 6]))
monomials = st.builds(
    AlgebraElement.monomial, small, small, small,
    st.one_of(st.just(GaussianRational(1)),
              gaussians.filter(lambda c: not c.is_zero())),
)


def double_loop_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The general product, term by term with accumulation."""
    out = {}
    for (p1, q1, r1), c1 in a.terms.items():
        for (p2, q2, r2), c2 in b.terms.items():
            key = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2)
            out[key] = out.get(key, GaussianRational()) + c1 * c2
    return AlgebraElement(out)


def matrix_of(g: GroupElement) -> np.ndarray:
    m = np.eye(3, dtype=object)
    m[0, 1], m[0, 2], m[1, 2] = g.q, g.r, g.p
    return m


class TestGroupLaw:
    @seeded()
    @given(triples, triples)
    def test_product_matches_matrix_model(self, t1, t2):
        g1, g2 = GroupElement(*t1), GroupElement(*t2)
        assert (matrix_of(g1 * g2) == matrix_of(g1) @ matrix_of(g2)).all()

    @seeded()
    @given(triples)
    def test_inverse(self, t):
        g = GroupElement(*t)
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()

    @seeded()
    @given(triples, triples, triples)
    def test_associativity(self, t1, t2, t3):
        g1, g2, g3 = (GroupElement(*t) for t in (t1, t2, t3))
        assert (g1 * g2) * g3 == g1 * (g2 * g3)

    def test_thousand_random_products_match_matrix_model(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g1 = GroupElement(*[int(v) for v in rng.integers(-10, 11, 3)])
            g2 = GroupElement(*[int(v) for v in rng.integers(-10, 11, 3)])
            assert (matrix_of(g1 * g2) == matrix_of(g1) @ matrix_of(g2)).all()

    def test_commutator_of_generators_is_central(self):
        u, v = GroupElement(1, 0, 0), GroupElement(0, 1, 0)
        comm = v * u * v.inverse() * u.inverse()
        assert comm == GroupElement(0, 0, 1)

    @seeded()
    @given(triples, triples)
    def test_conjugation_shifts_center_exponent(self, t1, t2):
        g, h = GroupElement(*t1), GroupElement(*t2)
        c = h * g * h.inverse()
        assert (c.p, c.q) == (g.p, g.q)
        assert c.r == g.r + h.q * g.p - h.p * g.q

    def test_elements_are_immutable_values(self):
        g = GroupElement(1, 2, 3)
        with pytest.raises(AttributeError):
            g.p = 5
        assert g == GroupElement(1, 2, 3) and hash(g) == hash(GroupElement(1, 2, 3))
        assert g != GroupElement(1, 2, 4) and g != (1, 2, 3)
        assert repr(g) == "GroupElement(p=1, q=2, r=3)"


class TestRingArithmetic:
    def test_defining_relation(self):
        # V U = W U V
        assert V * U == W * U * V

    def test_w_is_central(self):
        assert W * U == U * W
        assert W * V == V * W
        assert is_central(W) and is_central(ONE)
        assert not is_central(U) and not is_central(V)

    @seeded()
    @given(st.one_of(elements, axis_elements, monomials, drawn))
    @example(AlgebraElement.zero())
    def test_central_is_commuting_with_both_generators(self, x):
        assert is_central(x) == (x.commutator(U).is_zero() and x.commutator(V).is_zero())

    def test_star_involution_on_generators(self):
        assert U.star() * U == ONE
        assert V.star() * V == ONE

    @seeded()
    @given(triples)
    def test_star_of_monomial(self, t):
        x = AlgebraElement.monomial(*t, GaussianRational(2, 3))
        p, q, r = t
        expected = AlgebraElement.monomial(-p, -q, p * q - r, GaussianRational(2, -3))
        assert x.star() == expected

    def test_star_is_antimultiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = random_element(rng, box=4, n_terms=3)
            y = random_element(rng, box=4, n_terms=3)
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x

    def test_distributivity_and_units(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = random_element(rng, box=3, n_terms=3)
            y = random_element(rng, box=3, n_terms=3)
            z = random_element(rng, box=3, n_terms=3)
            assert x * (y + z) == x * y + x * z
            assert ONE * x == x and x * ONE == x

    def test_automorphism_is_conjugation_by_v(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = random_element(rng, box=3, n_terms=3)
            assert apply_automorphism(x, 1) == V * x * V.star()
            assert apply_automorphism(apply_automorphism(x, 2), -2) == x

    @seeded(60)
    @given(monomials, elements)
    def test_one_term_operand_matches_double_loop(self, m, x):
        assert m * x == double_loop_product(m, x)
        assert x * m == double_loop_product(x, m)
        assert m * m == double_loop_product(m, m)
        assert m.commutator(x) == double_loop_product(m, x) - double_loop_product(x, m)
        assert x.commutator(m) == double_loop_product(x, m) - double_loop_product(m, x)

    @pytest.mark.parametrize("c", [1, GaussianRational("2/3", -1)])
    def test_one_term_commutator_with_meeting_keys(self, c):
        # [U, V W^r] = U V W^r - U V W^(r+1): the terms of x meet at their
        # neighbours' keys and cancel where their coefficients agree
        m = AlgebraElement.monomial(1, 0, 0, c)
        x = AlgebraElement({(0, 1, r): [1, 1, "1/2", -3, -3][r] for r in range(5)})
        mx, xm = double_loop_product(m, x), double_loop_product(x, m)
        for got, want in ((m.commutator(x), mx - xm), (x.commutator(m), xm - mx)):
            assert got == want
            assert len(got.terms) == 4 and not any(v.is_zero() for v in got.terms.values())

    @pytest.mark.parametrize("c", [1, GaussianRational(-1), GaussianRational("3/5", "4/5")])
    def test_one_term_commutator_of_commuting_terms_is_exact_zero(self, c):
        # U^p W^r commutes with U, and W^r V^q with V: every pair cancels
        for gen, x in ((U, AlgebraElement({(p, 0, 3 - p): c for p in range(-3, 4)})),
                       (V, AlgebraElement({(0, q, 2 * q): c for q in range(-3, 4)}))):
            for m in (gen, gen.scale(c)):
                assert m.commutator(x)._terms == {} and x.commutator(m)._terms == {}


class TestTermProductBound:
    def test_two_multi_term_operands_past_the_bound(self):
        # 317^2 = 100489 term products, refused before any coefficient of
        # either operand takes part in arithmetic
        log = []
        x = tracked(AlgebraElement({(i, 0, -i): 1 for i in range(317)}), "x", log)
        message = "would take 100489 term products, over the limit of 100000"
        with pytest.raises(UnsupportedInput, match=message):
            x * x
        with pytest.raises(UnsupportedInput, match=message):
            x.commutator(x)
        assert log == []

    def test_one_term_operand_is_not_bounded(self):
        # sum_{r < n} V W^r: U V W^r - V W^r U = U V W^r - U V W^(r+1) telescopes
        n = MAX_TERM_PRODUCTS + 1
        x = AlgebraElement({(0, 1, r): 1 for r in range(n)})
        assert len((x * U).terms) == len((U * x).terms) == n
        assert U.commutator(x) == AlgebraElement({(1, 1, 0): 1, (1, 1, n): -1})


class TestSumWork:
    """A sum or difference combines coefficients only at the keys both
    operands share; a key found in one operand keeps its coefficient
    (negated on the right of -)."""

    x = AlgebraElement({(p, 0, 0): GaussianRational(p, 1) for p in range(1, 9)})
    y = AlgebraElement({(0, q, 0): GaussianRational(1, q) for q in range(1, 4)})

    def test_disjoint_supports_combine_no_coefficient(self):
        log = []
        x, y = tracked(self.x, "x", log), tracked(self.y, "y", log)
        want_sum = {**self.x.terms, **self.y.terms}
        want_difference = {**self.x.terms, **(-self.y).terms}
        assert (x + y).terms == (y + x).terms == want_sum
        assert (x - y).terms == want_difference
        assert (y - x).terms == (-(self.x - self.y)).terms
        assert log == []

    def test_shared_keys_combine_once_each(self):
        # two shared keys: the first cancels in the sum, the second in the
        # difference.  Each logged operation pairs the coefficients of x and
        # y at one shared key, and the whole sum does the work of the two
        # one-key sums.
        shared = {(1, 0, 0): GaussianRational(-1, -1), (2, 0, 0): GaussianRational(2, 1)}
        y = self.y + AlgebraElement(shared)
        for op, want in ((operator.add, self.x + y), (operator.sub, self.x - y)):
            log = []
            got = op(tracked(self.x, "x", log), tracked(y, "y", log))
            assert got == want
            alone = []
            for k in shared:
                op(tracked(AlgebraElement({k: self.x.coeff(*k)}), "x", alone),
                   tracked(AlgebraElement({k: y.coeff(*k)}), "y", alone))
            assert sorted(map(sorted, log)) == sorted(map(sorted, alone))
            assert {frozenset({("x", k), ("y", k)}) for k in shared} == set(log)
        assert len((self.x + y).terms) == len((self.x - y).terms) == 8 + 3 - 1

    def test_ring_operations_build_no_gaussian_rational(self, monkeypatch):
        # coefficients stay integer triples through the ring and apply;
        # a GaussianRational is built only where a caller reads one
        x = random_element(np.random.default_rng(5), box=4, n_terms=6)
        y = random_element(np.random.default_rng(6), box=4, n_terms=6)
        d = random_consistent_derivation(np.random.default_rng(7), box=4)
        assert len(x.support()) > 1 and len(y.support()) > 1
        monkeypatch.setattr(GaussianRational, "__init__", no_work)
        for module in (algebra, derivations):
            monkeypatch.setattr(module, "_raw", no_work)
        for op in (operator.mul, AlgebraElement.commutator, operator.add, operator.sub):
            op(x, y)
        apply(d, y)


class TestRandomElement:
    @pytest.mark.parametrize("box", [0, 1, 3, 4, 5, 9])
    @pytest.mark.parametrize("n_terms", [1, 3, 4, 6, 20])
    def test_one_draw_matches_the_per_draw_order(self, box, n_terms):
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_terms(random_element(rng, box, n_terms),
                              per_draw_element(ref, box, n_terms))
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    # (box, n_terms, seed, key): two draws at the key, whose coefficients
    # add up in the first case and cancel in the second
    @pytest.mark.parametrize("box,n_terms,seed,key,kept", [
        (3, 4, 30, (1, 1, -2), True),
        (1, 6, 614, (-1, 1, 0), False),
    ])
    def test_terms_at_one_key_add_up(self, box, n_terms, seed, key, kept):
        x = random_element(np.random.default_rng(seed), box, n_terms)
        assert same_terms(x, per_draw_element(np.random.default_rng(seed), box, n_terms))
        assert (key in x.support()) == kept
        assert len(x.support()) == n_terms - (1 if kept else 2)


def evaluated(x: AlgebraElement, theta: RationalAngle) -> np.ndarray:
    return np.array(eval_at_angle(x, theta))


class TestEvaluation:
    def test_dimension_past_the_bound_refused_before_any_allocation(self, monkeypatch):
        assert len(eval_at_angle(U, RationalAngle.of(1, MAX_EVAL_DIMENSION))) == 256
        # reading the root of unity is the evaluation's first step
        monkeypatch.setattr(RationalAngle, "lam", property(no_work))
        with pytest.raises(UnsupportedInput, match="eval dimension 257 exceeds 256"):
            eval_at_angle(U, RationalAngle.of(1, 257))

    @pytest.mark.parametrize("s,t", [(0, 1), (1, 2), (1, 3), (2, 5)])
    def test_star_homomorphism(self, s, t):
        theta = RationalAngle.of(s, t)
        rng = np.random.default_rng(100 * t + s)
        for _ in range(10):
            a = random_element(rng, box=4, n_terms=3)
            b = random_element(rng, box=4, n_terms=3)
            ma, mb = evaluated(a, theta), evaluated(b, theta)
            assert np.max(np.abs(evaluated(a * b, theta) - ma @ mb)) <= 1e-12
            assert np.max(np.abs(evaluated(a.star(), theta) - ma.conj().T)) <= 1e-12

    @pytest.mark.parametrize("s,t", [(1, 3), (2, 5), (3, 7)])
    def test_defining_relation_in_representation(self, s, t):
        theta = RationalAngle.of(s, t)
        mu, mv = evaluated(U, theta), evaluated(V, theta)
        assert np.max(np.abs(mv @ mu - theta.lam * mu @ mv)) <= 1e-12

    @pytest.mark.parametrize("s,t", [(0, 1), (1, 2), (2, 5), (5, 7)])
    def test_matches_matrix_power_reference(self, s, t):
        theta = RationalAngle.of(s, t)
        lam = theta.lam
        shift = np.roll(np.eye(t, dtype=complex), 1, axis=0)
        clock = np.diag(lam ** np.arange(t))
        rng = np.random.default_rng(t)
        x = random_element(rng, box=9, n_terms=6)
        want = np.zeros((t, t), dtype=complex)
        for (p, q, r), c in x.terms.items():
            mat = (np.linalg.matrix_power(shift, p)
                   @ np.linalg.matrix_power(clock, q))
            want += c.to_complex() * lam**r * mat
        assert np.max(np.abs(evaluated(x, theta) - want)) <= 1e-12

    def test_angle_is_an_immutable_reduced_fraction(self):
        half = RationalAngle.of(2, 4)
        assert half == RationalAngle.of(1, 2) == RationalAngle.of(-1, -2)
        assert (half.s, half.t) == (1, 2)
        assert RationalAngle.of(0, -7) == RationalAngle.of(0, 1)
        with pytest.raises(AttributeError):
            half.t = 3
        with pytest.raises(ValueError, match="nonzero"):
            RationalAngle.of(1, 0)

    def test_central_generator_is_scalar(self):
        theta = RationalAngle.of(1, 4)
        mw = evaluated(W, theta)
        assert np.max(np.abs(mw - theta.lam * np.eye(4))) <= 1e-12


class TestSerialization:
    @seeded(50)
    @given(st.lists(st.tuples(triples, ints, ints), max_size=5))
    def test_json_roundtrip(self, data):
        x = AlgebraElement(
            {k: GaussianRational(a, b) for k, a, b in data}
        )
        assert element_from_dict(json.loads(json.dumps(element_to_dict(x)))) == x

    def test_json_is_deterministic(self):
        x = U + V.scale(GaussianRational(1, -2)) + W
        y = W + V.scale(GaussianRational(1, -2)) + U
        assert json.dumps(element_to_dict(x)) == json.dumps(element_to_dict(y))

    @pytest.mark.parametrize("bad", [
        {"p": 1.7}, {"r": True}, {"q": "1"}, {"p": 2.0}, {"q": None},
    ])
    def test_non_integer_exponents_rejected(self, bad):
        rec = {"p": 1, "q": 0, "r": 0, "re": "1", "im": "0", **bad}
        with pytest.raises(TypeError, match="exponents must be integers"):
            element_from_dict({"terms": [rec]})

    def test_numpy_integer_exponents_accepted(self):
        rec = {"p": np.int64(1), "q": 0, "r": np.int32(-2), "re": "1", "im": "0"}
        assert element_from_dict({"terms": [rec]}) == AlgebraElement.monomial(1, 0, -2)

    @pytest.mark.parametrize("bad", [
        {"re": 0.1}, {"re": True}, {"im": 1.0}, {"im": None}, {"re": [1]},
    ])
    def test_inexact_coefficients_rejected(self, bad):
        rec = {"p": 1, "q": 0, "r": 0, "re": "1", "im": "0", **bad}
        with pytest.raises(ValueError, match="coefficient"):
            element_from_dict({"terms": [rec]})

    def test_exact_coefficients_accepted(self):
        rec = {"p": 0, "q": 0, "r": 0, "re": np.int64(2), "im": "-1/3"}
        want = AlgebraElement.monomial(0, 0, 0, GaussianRational(2, "-1/3"))
        assert element_from_dict({"terms": [rec]}) == want
        rec = {"p": 0, "q": 0, "r": 0, "re": Fraction(1, 2)}
        assert element_from_dict({"terms": [rec]}) == ONE.scale(Fraction(1, 2))

    @pytest.mark.parametrize("bad", [0.1, 1.0, np.float64(2.0), 0.5j, 1 + 0j, True, False])
    @pytest.mark.parametrize("build", [
        GaussianRational,
        lambda c: GaussianRational(0, c),
        lambda c: AlgebraElement({(0, 0, 0): c}),
        lambda c: AlgebraElement.monomial(1, 0, 0, c),
        lambda c: ONE.scale(c),
    ], ids=["re", "im", "element", "monomial", "scale"])
    def test_library_rejects_inexact_coefficients(self, build, bad):
        # a float or complex is already a binary approximation, and a bool
        # is an int; none of them is silently made exact
        with pytest.raises(TypeError, match="coefficient"):
            build(bad)

    @pytest.mark.parametrize("c", [
        0, 1, -7, 2**100, np.int64(3), np.int8(-2), np.uint16(5), Fraction(6, 4),
        "3/6", "-2", "1e-3", True, False, 0.5, 2.0, "x", None,
    ])
    def test_coefficient_coercion_is_the_exact_rule(self, c):
        # a plain int is taken as it is; everything else, a bool included,
        # keeps _frac's rule and its error
        try:
            f = algebra._frac(c)
        except (TypeError, ValueError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                algebra._coerce(c)
            return
        t = algebra._coerce(c)
        assert t == (f.numerator, 0, f.denominator)
        assert all(type(v) is int for v in t)

    def test_library_accepts_numpy_integer_coefficients(self):
        assert AlgebraElement({(0, 0, 0): np.int64(3)}) == ONE.scale(3)
        assert GaussianRational(np.int32(1), "1/2") == GaussianRational(1, Fraction(1, 2))
        # taken as unbounded ints: a product past 64 bits does not wrap
        big = np.int64(2**62)
        assert ONE.scale(big).scale(big) == ONE.scale(2**124)
        assert GaussianRational(big) * GaussianRational(big) == GaussianRational(2**124)

    @pytest.mark.parametrize("key", [
        (1.5, 0, 0), (0, 0.9, 0), (np.float64(2.7), True, 0), (0, 0, False), (0, "1", 0),
        (2.0, 0, 0),
    ])
    @pytest.mark.parametrize("build", [
        lambda key: AlgebraElement({key: 1}),
        lambda key: AlgebraElement({key: 0}),
        lambda key: AlgebraElement.monomial(*key),
        lambda key: GroupElement(*key),
    ], ids=["element", "zero", "monomial", "group"])
    def test_library_rejects_non_integer_exponents(self, build, key):
        # int() would truncate 1.5 to U and 0.9 to 1, and a bool is an int
        with pytest.raises(TypeError, match="exponents must be integers"):
            build(key)

    def test_library_accepts_numpy_integer_exponents(self):
        x = AlgebraElement({(np.int64(2), np.int32(0), 0): 1})
        assert x == AlgebraElement.monomial(2, 0, 0)
        assert all(type(e) is int for key in x.support() for e in key)
        g = GroupElement(np.int64(2), np.int32(0), np.uint8(1))
        assert g == GroupElement(2, 0, 1)
        assert all(type(e) is int for e in g.as_tuple())
