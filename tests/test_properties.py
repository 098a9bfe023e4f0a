"""Property suites for the coefficient type and the ring built on it.

``GaussianRational`` is checked against a reference of ``Fraction`` pairs,
and ``AlgebraElement`` against the same reference, the ring axioms, the star
and the JSON form.
Every suite runs under the seed rule of ``conftest.seeded``: ``HNC_SEED``
when it is set, else the package default, so a failure replays with the
same examples.
"""

import json
from fractions import Fraction
from math import gcd

from conftest import seeded
from hypothesis import given
from hypothesis import strategies as st

from heisenberg_ncg.algebra import (
    AlgebraElement,
    GaussianRational,
    RationalAngle,
    apply_automorphism,
    element_from_dict,
    element_to_dict,
    eval_at_angle,
)
from heisenberg_ncg.derivations import apply, canonical_derivation, decompose, inner_derivation

PROPERTY = seeded(60)

# Small parts make sums cancel and denominators share factors; large ones
# pass 2**53, where only a correctly rounded division gives the same float.
small_fractions = st.fractions(-20, 20, max_denominator=12)
large_fractions = st.builds(lambda n, sign, d: Fraction(sign * n, d),
                            st.integers(2**53, 10**30), st.sampled_from([-1, 1]),
                            st.integers(1, 10**20))
fractions = st.one_of(small_fractions, large_fractions)
pairs = st.tuples(fractions, fractions)

exponents = st.integers(-3, 3)
keys = st.tuples(exponents, exponents, exponents)
coefficients = st.builds(GaussianRational, small_fractions, small_fractions)
elements = st.dictionaries(keys, coefficients, max_size=6).map(AlgebraElement)
one_term = st.builds(AlgebraElement.monomial, exponents, exponents, exponents,
                     coefficients)
operands = st.one_of(elements, one_term)


@st.composite
def overlapping(draw):
    """Two operands whose shared keys hold cancelling, equal or unrelated
    coefficients, next to keys found in one operand only."""
    x = draw(operands)
    y = draw(operands).terms
    for key, c in x.terms.items():
        how = draw(st.sampled_from(["cancel", "equal", "other", "absent"]))
        if how == "cancel":
            y[key] = GaussianRational(-c.re, -c.im)
        elif how == "equal":
            y[key] = c
        elif how == "other":
            y[key] = draw(coefficients)
        else:
            y.pop(key, None)
    return x, AlgebraElement(y)


def fields(x: GaussianRational) -> tuple[int, int, int]:
    return x._t


# ---- GaussianRational against Fraction pairs ----

@PROPERTY
@given(x=pairs, y=pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    (a, b), (c, d) = x, y
    for got, want in ((gx + gy, (a + c, b + d)), (gx - gy, (a - c, b - d)),
                      (gx * gy, (a * c - b * d, a * d + b * c)),
                      (-gx, (-a, -b)), (gx.conjugate(), (a, -b))):
        assert (got.re, got.im) == want


@PROPERTY
@given(x=pairs, y=pairs)
def test_every_result_is_canonical(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    for z in (gx, gy, gx + gy, gx - gy, gx * gy, -gx, gx.conjugate(), gx - gx):
        a, b, d = fields(z)
        assert d > 0 and gcd(a, b, d) == 1


@PROPERTY
@given(x=pairs, y=pairs)
def test_equality_and_hash_follow_the_value(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert (gx == gy) == (x == y)
    # the same value reached by another route has the same fields
    again = (gx + gy) - gy
    assert again == gx and hash(again) == hash(gx) and fields(again) == fields(gx)
    assert gx * gy == gy * gx and hash(gx * gy) == hash(gy * gx)


@PROPERTY
@given(x=pairs)
def test_re_im_round_trip(x):
    g = GaussianRational(*x)
    assert (g.re, g.im) == x
    assert GaussianRational(g.re, g.im) == g
    assert GaussianRational(str(g.re), str(g.im)) == g


@PROPERTY
@given(x=pairs)
def test_to_complex_gives_the_fraction_floats(x):
    # the one conversion of a coefficient to floats: at t = 1, eval_at_angle
    # reads the coefficient of 1 as its 1 x 1 matrix
    [[z]] = eval_at_angle(AlgebraElement({(0, 0, 0): GaussianRational(*x)}), RationalAngle.of(0, 1))
    want = complex(x[0]) + 1j * complex(x[1])
    assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())


# ---- AlgebraElement ----


def fraction_pair_product(x: AlgebraElement, y: AlgebraElement) -> dict:
    """x*y term by term on Fraction pairs, zeros dropped."""
    out = {}
    for (p1, q1, r1), c1 in x.terms.items():
        for (p2, q2, r2), c2 in y.terms.items():
            key = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2)
            re, im = out.get(key, (0, 0))
            out[key] = (re + c1.re * c2.re - c1.im * c2.im,
                        im + c1.re * c2.im + c1.im * c2.re)
    return {k: v for k, v in out.items() if v != (0, 0)}


@PROPERTY
@given(x=operands, y=operands)
def test_product_matches_fraction_pairs(x, y):
    got = {k: (c.re, c.im) for k, c in (x * y).terms.items()}
    assert got == fraction_pair_product(x, y)


def fraction_pairs(x: AlgebraElement) -> dict:
    return {k: (c.re, c.im) for k, c in x.terms.items()}


def fraction_pair_sum(x: AlgebraElement, y: AlgebraElement, sign: int) -> dict:
    """x + sign*y term by term on Fraction pairs, zeros dropped."""
    out = fraction_pairs(x)
    for key, (re, im) in fraction_pairs(y).items():
        a, b = out.get(key, (0, 0))
        out[key] = (a + sign * re, b + sign * im)
    return {k: v for k, v in out.items() if v != (0, 0)}


@PROPERTY
@given(xy=overlapping(), c=st.tuples(small_fractions, small_fractions))
def test_linear_operations_match_fraction_pairs(xy, c):
    x, y = xy
    assert fraction_pairs(x + y) == fraction_pair_sum(x, y, 1)
    assert fraction_pairs(y + x) == fraction_pair_sum(y, x, 1)
    assert fraction_pairs(x - y) == fraction_pair_sum(x, y, -1)
    terms = fraction_pairs(x)
    assert fraction_pairs(-x) == {k: (-a, -b) for k, (a, b) in terms.items()}
    assert fraction_pairs(x.star()) == {
        (-p, -q, p * q - r): (a, -b) for (p, q, r), (a, b) in terms.items()}
    re, im = c
    scaled = {k: (a * re - b * im, a * im + b * re) for k, (a, b) in terms.items()}
    assert fraction_pairs(x.scale(GaussianRational(re, im))) == {
        k: v for k, v in scaled.items() if v != (0, 0)}
    # d1 and d2 scale U^p V^q W^r by p and by q
    for which in (1, 2):
        assert fraction_pairs(apply(canonical_derivation(which), x)) == {
            k: (a * k[which - 1], b * k[which - 1])
            for k, (a, b) in terms.items() if k[which - 1]}


@PROPERTY
@given(xy=overlapping(), c=st.tuples(small_fractions, small_fractions))
def test_ring_results_store_only_canonical_nonzero_coefficients(xy, c):
    x, y = xy
    results = [x + y, x - y, -x, x.star(), x.scale(GaussianRational(*c)),
               apply(canonical_derivation(1), x), apply(canonical_derivation(2), x),
               apply_automorphism(x, 2), decompose(inner_derivation(y)).x,
               AlgebraElement(y.terms), x * y, x.commutator(y), x + (-x), x - x]
    for z in results:
        # the stored triples themselves, as every ring operation reads them
        for key, (a, b, d) in z._terms.items():
            assert (a or b) and d > 0 and gcd(a, b, d) == 1, (key, (a, b, d))
            assert all(type(v) is int for v in (a, b, d)), (key, (a, b, d))
    assert results[-2] == results[-1] == AlgebraElement.zero()


@PROPERTY
@given(x=operands, y=operands, z=operands)
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(x=operands, y=operands, z=operands)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x
    assert x * (y - z) == x * y - x * z


@PROPERTY
@given(x=operands, y=operands)
def test_star_is_antimultiplicative(x, y):
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x


@PROPERTY
@given(x=operands, y=operands)
def test_commutator_is_the_difference_of_products(x, y):
    assert x.commutator(y) == x * y - y * x
    assert y.commutator(x) == -(x.commutator(y))
    assert x.commutator(x).is_zero()


@PROPERTY
@given(x=st.dictionaries(keys, st.builds(GaussianRational, fractions, fractions),
                         max_size=6).map(AlgebraElement))
def test_json_round_trip_is_byte_identical(x):
    text = json.dumps(element_to_dict(x))
    back = element_from_dict(json.loads(text))
    assert back == x
    assert json.dumps(element_to_dict(back)) == text
