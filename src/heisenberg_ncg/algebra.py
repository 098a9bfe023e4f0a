"""Exact arithmetic for the discrete Heisenberg group and its twisted group ring.

The group H3 is generated by unitaries U, V, W subject to VU = WUV with W
central.  Every group element has a unique normal form U^p V^q W^r, so the
group is modelled by exponent triples (p, q, r) with the multiplication law

    (p1, q1, r1) * (p2, q2, r2) = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2).

Finitely supported complex-rational coefficient functions on Z^3 then model
the group ring: twisted Laurent polynomials in U, V, W.  All ring operations
are exact; floating point appears only when an element is evaluated in a
finite-dimensional representation.

An element stores each coefficient as its canonical integer triple
(a, b, d), meaning (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, so equal
elements have equal term dictionaries.  Every ring operation reads and
writes these triples and reduces each output with one gcd; a
``GaussianRational``, the same triple behind an immutable number type, is
built only where a caller asks for a coefficient (``coeff``, ``terms``,
``element_to_dict``, ``eval_at_angle``).  A product of two elements writes
each operand over one common denominator, sums the term products as
integer pairs per output key, and reduces each output coefficient once;
the commutator does the same in one pass over the term pairs.  A one-term
operand maps keys one to one instead: the product takes no pass over pairs,
and the commutator writes each term of the other operand at its two keys
in one pass, adding only where keys meet.  Both refuse, with
``UnsupportedInput``, two multi-term operands that would take more than
``MAX_TERM_PRODUCTS`` term products.

A sum copies the larger operand and adds coefficients only at the keys
both share, dropping a zero where it arises; x - y is x + (-y).

Exponents are integers and coefficients exact: a float or a bool in either
place is a TypeError.  An integer past Python's int-string digit limit, read
or written, raises Python's own ValueError.
"""

from __future__ import annotations

import cmath
import numbers
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

Rationalish = Union[int, Fraction, str]

# Largest |e| of a decimal coefficient string such as "1e-5": Fraction
# expands 10**|e| in full, so "1e999999999" would never return.  The bound
# is the digit limit Python already puts on integer strings.
MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")

# Most term products one ring product may take: x*y and [x, y] take |x| |y|,
# a block product the sum of theirs; up to ~8 us each in-process, so < 1 s.
MAX_TERM_PRODUCTS = 100_000
# Largest t of ``eval_at_angle``: its result is a dense t x t matrix.
MAX_EVAL_DIMENSION = 256


class UnsupportedInput(ValueError):
    """An input refused before any work: outside a function's domain, or
    past a work bound such as MAX_TERM_PRODUCTS."""


def check_term_products(count: int) -> None:
    """Refuse, with UnsupportedInput, a product of ``count`` term products
    over MAX_TERM_PRODUCTS."""
    if count > MAX_TERM_PRODUCTS:
        raise UnsupportedInput(f"the product would take {count} term products, "
                               f"over the limit of {MAX_TERM_PRODUCTS}")


def _is_exact(x) -> bool:
    # A float is already a binary approximation, and a bool is an int.
    return not isinstance(x, bool) and isinstance(x, (numbers.Rational, str))


def _frac(x: Rationalish) -> Fraction:
    """x as a Fraction; a string that is not a rational number in range
    (including a zero denominator) is a ValueError."""
    if isinstance(x, Fraction):
        return x
    if not _is_exact(x):
        raise TypeError(f"a coefficient must be an integer, a Fraction or a "
                        f"string such as \"1/2\", got {x!r}")
    if isinstance(x, str):
        exponent = _DECIMAL_EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {x!r} exceeds {MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, numbers.Integral):  # a numpy integer wraps at 64 bits; int does not
        return Fraction(int(x))
    return Fraction(x)


# A coefficient as the integer triple (a, b, d), meaning (a + b*i)/d; it is
# canonical when d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1).  The sum
# and product of canonical triples reduce their result inline by one gcd.
Triple = tuple[int, int, int]
ZERO_T: Triple = (0, 0, 1)
ONE_T: Triple = (1, 0, 1)


def _add(x: Triple, y: Triple) -> Triple:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        a, b, d = a1 + a2, b1 + b2, d1
    else:
        a, b, d = a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _mul(x: Triple, y: Triple) -> Triple:
    a1, b1, d1 = x
    a2, b2, d2 = y
    a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _neg(x: Triple) -> Triple:
    a, b, d = x
    return (-a, -b, d)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as its canonical triple (a, b, d), meaning (a + b*i)/d with
    d > 0 and gcd(a, b, d) = 1, so equal values have equal triples.
    Instances are immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        # Both parts are in lowest terms, so gcd(a, b, d) is already 1.
        _set_t(self, (re.numerator * (d // re.denominator),
                      im.numerator * (d // im.denominator), d))

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _raw(_add(self._t, other._t))

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return _raw(_add(self._t, _neg(other._t)))

    def __neg__(self) -> "GaussianRational":
        return _raw(_neg(self._t))

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return _raw(_mul(self._t, other._t))

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _raw((a, -b, d))

    def is_zero(self) -> bool:
        a, b, _ = self._t
        return not a and not b

    def to_complex(self) -> complex:
        # int true division rounds exactly as Fraction.__float__ does
        a, b, d = self._t
        return complex(a / d, b / d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return f"{self.re}{'+' if self._t[1] >= 0 else ''}{self.im}i"


# The slot descriptor sets the field without __setattr__'s lookup by name.
_set_t = GaussianRational._t.__set__


def _raw(t: Triple) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    x = object.__new__(GaussianRational)
    _set_t(x, t)
    return x


GR_ZERO = GaussianRational()


Key = tuple[int, int, int]


def _exponents(key) -> Key:
    """key as three ints, a numpy integer made an int; any other exponent
    is a TypeError."""
    p, q, r = key
    # an int passes at once: the Integral check is an ABC lookup
    if type(p) is int and type(q) is int and type(r) is int:
        return p, q, r
    # bool is an int subclass, and int() would truncate 1.7 or parse "1".
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in key):
        raise TypeError(f"exponents must be integers, got {key!r}")
    return int(p), int(q), int(r)


def group_product(g, h):
    """The group law (p1 + p2, q1 + q2, r1 + r2 + q1 * p2) on exponent
    triples whose fields are ints, or int arrays of one shape taken
    elementwise."""
    p1, q1, r1 = g
    p2, q2, r2 = h
    return p1 + p2, q1 + q2, r1 + r2 + q1 * p2


class GroupElement:
    """Exponent triple (p, q, r) for the normal-form word U^p V^q W^r.

    The exponents are ints, under the rule of ``_exponents``.  Instances
    are immutable; equal triples are equal and hash alike.
    """

    __slots__ = ("p", "q", "r")
    p: int
    q: int
    r: int

    def __init__(self, p: int, q: int, r: int):
        for name, v in zip(self.__slots__, _exponents((p, q, r))):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"GroupElement(p={self.p!r}, q={self.q!r}, r={self.r!r})"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(*group_product(self.as_tuple(), other.as_tuple()))

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.p, -self.q, self.p * self.q - self.r)

    def is_identity(self) -> bool:
        return self.p == 0 and self.q == 0 and self.r == 0

    def is_central(self) -> bool:
        return self.p == 0 and self.q == 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


class RationalAngle(NamedTuple):
    """A reduced fraction s/t, t >= 1, representing the angle theta = s/t of
    a root of unity lambda = exp(2*pi*i*s/t); build one with ``of``."""

    s: int
    t: int

    @staticmethod
    def of(s: int, t: int) -> "RationalAngle":
        """s/t in lowest terms with t > 0; 0 is 0/1."""
        if t == 0:
            raise ValueError("denominator must be nonzero")
        if t < 0:
            s, t = -s, -t
        g = gcd(s, t)
        if g > 1:
            s, t = s // g, t // g
        if s == 0:
            t = 1
        return RationalAngle(s, t)

    @property
    def lam(self) -> complex:
        # s mod t, in integers and with the sign of s: 2*pi*s/t in floats
        # loses the residue of a large s (and overflows past ~308 digits)
        s = self.s % self.t if self.s >= 0 else -(-self.s % self.t)
        return cmath.exp(2j * cmath.pi * s / self.t)


CoeffLike = Union[int, Fraction, str, GaussianRational]


def _coerce(c: CoeffLike) -> Triple:
    if type(c) is int:  # canonical as it stands; a bool or numpy integer takes _frac's rule
        return (c, 0, 1)
    if isinstance(c, GaussianRational):
        return c._t
    f = _frac(c)
    return (f.numerator, 0, f.denominator)


class AlgebraElement:
    """A finitely supported element of the twisted group ring C[H3].

    Stores a mapping from exponent triples to the canonical triples of
    exact Gaussian-rational coefficients.  Zero coefficients are never
    stored, so equality of the term dictionaries is equality of elements.
    Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, CoeffLike] | None = None):
        clean: dict[Key, Triple] = {}
        if terms:
            for key, c in terms.items():
                key = _exponents(key)
                t = _coerce(c)
                if t[0] or t[1]:
                    clean[key] = t
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def terms(self) -> dict[Key, GaussianRational]:
        return {k: _raw(t) for k, t in self._terms.items()}

    def coeff(self, p: int, q: int, r: int) -> GaussianRational:
        t = self._terms.get((p, q, r))
        return GR_ZERO if t is None else _raw(t)

    def support(self) -> list[Key]:
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # ---- constructors ----

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def monomial(p: int, q: int, r: int, coeff: CoeffLike = 1) -> "AlgebraElement":
        return AlgebraElement({(p, q, r): coeff})

    @staticmethod
    def one() -> "AlgebraElement":
        return AlgebraElement.monomial(0, 0, 0)

    # ---- ring operations ----

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for key, c in small.items():
            s = out.get(key)
            if s is None:
                out[key] = c
            elif (s := _add(s, c))[0] or s[1]:
                out[key] = s
            else:
                del out[key]
        return AlgebraElement._of_clean(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of_clean(
            {k: (-a, -b, d) for k, (a, b, d) in self._terms.items()})

    def scale(self, c: CoeffLike) -> "AlgebraElement":
        t = _coerce(c)
        if not t[0] and not t[1]:
            return AlgebraElement()
        return AlgebraElement._of_clean({k: _mul(v, t) for k, v in self._terms.items()})

    @staticmethod
    def _of_clean(terms: dict[Key, Triple]) -> "AlgebraElement":
        """Wrap, without a copy, a fresh dict with int-triple keys and nonzero
        canonical coefficient triples; unlike ``__init__`` it coerces nothing."""
        x = object.__new__(AlgebraElement)
        object.__setattr__(x, "_terms", terms)
        return x

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        a, b = self._terms, other._terms
        # A one-term operand maps keys one to one: nothing accumulates, and
        # in the field Q(i) no product of nonzero coefficients is zero.
        if len(b) == 1:
            ((p2, q2, r2), c2), = b.items()
            unit = c2 == ONE_T
            return AlgebraElement._of_clean({
                (p1 + p2, q1 + q2, r1 + r2 + q1 * p2): c1 if unit else _mul(c1, c2)
                for (p1, q1, r1), c1 in a.items()
            })
        if len(a) == 1:
            ((p1, q1, r1), c1), = a.items()
            unit = c1 == ONE_T
            return AlgebraElement._of_clean({
                (p1 + p2, q1 + q2, r1 + r2 + q1 * p2): c2 if unit else _mul(c1, c2)
                for (p2, q2, r2), c2 in b.items()
            })
        check_term_products(len(a) * len(b))
        # Integer numerators over one denominator per operand: each term
        # product is integer work, and each output is reduced once.
        d1, nums1 = _numerators(a)
        d2, nums2 = _numerators(b)
        sums: dict[Key, tuple[int, int]] = {}
        get = sums.get
        for (p1, q1, r1), a1, b1 in nums1:
            for (p2, q2, r2), a2, b2 in nums2:
                key = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2)
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                s = get(key)
                sums[key] = (re, im) if s is None else (s[0] + re, s[1] + im)
        return _from_sums(sums, d1 * d2)

    def star(self) -> "AlgebraElement":
        return AlgebraElement._of_clean({
            (-p, -q, p * q - r): (a, -b, d) for (p, q, r), (a, b, d) in self._terms.items()
        })

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        """self*other - other*self.

        Both products share each coefficient product, their keys differ
        only in the W exponent (q1*p2 against q2*p1), and pairs where those
        agree cancel.  With a one-term operand it is one pass over the other
        operand's terms, which writes each product coefficient at its two
        keys and adds only where keys meet.  Otherwise it is one pass over
        the term pairs.  Bounded as ``*`` is: a one-term operand is not
        counted.
        """
        a, b = self._terms, other._terms
        if len(a) == 1 or len(b) == 1:
            # walk the other operand; w12 and w21 are the W shifts of
            # self*other and other*self, whichever side the one term is on
            one, terms, swap = (b, a, False) if len(b) == 1 else (a, b, True)
            ((p2, q2, r2), c2), = one.items()
            unit = c2 == ONE_T
            out: dict[Key, Triple] = {}
            get = out.get
            for (p1, q1, r1), c1 in terms.items():
                w12, w21 = (q2 * p1, q1 * p2) if swap else (q1 * p2, q2 * p1)
                if w12 == w21:
                    continue
                c = c1 if unit else _mul(c1, c2)
                p, q, r = p1 + p2, q1 + q2, r1 + r2
                key = (p, q, r + w12)
                s = get(key)
                if s is None:
                    out[key] = c
                elif (s := _add(s, c))[0] or s[1]:
                    out[key] = s
                else:
                    del out[key]
                key, c = (p, q, r + w21), _neg(c)
                s = get(key)
                if s is None:
                    out[key] = c
                elif (s := _add(s, c))[0] or s[1]:
                    out[key] = s
                else:
                    del out[key]
            return AlgebraElement._of_clean(out)
        check_term_products(len(a) * len(b))
        d1, nums1 = _numerators(a)
        d2, nums2 = _numerators(b)
        sums: dict[Key, tuple[int, int]] = {}
        get = sums.get
        for (p1, q1, r1), a1, b1 in nums1:
            for (p2, q2, r2), a2, b2 in nums2:
                w12, w21 = q1 * p2, q2 * p1
                if w12 == w21:
                    continue
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                p, q, r = p1 + p2, q1 + q2, r1 + r2
                key = (p, q, r + w12)
                s = get(key)
                sums[key] = (re, im) if s is None else (s[0] + re, s[1] + im)
                key = (p, q, r + w21)
                s = get(key)
                sums[key] = (-re, -im) if s is None else (s[0] - re, s[1] - im)
        return _from_sums(sums, d1 * d2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero():
            return "AlgebraElement(0)"
        parts = [f"({c}) U^{p} V^{q} W^{r}" for (p, q, r), c in sorted(self.terms.items())]
        return "AlgebraElement(" + " + ".join(parts) + ")"


def _numerators(terms: dict[Key, Triple]):
    """(D, [(key, a', b')]) with every coefficient written as (a' + b'*i)/D."""
    d = lcm(*[t[2] for t in terms.values()])
    return d, [(k, a * (d // e), b * (d // e)) for k, (a, b, e) in terms.items()]


def _from_sums(sums: dict[Key, tuple[int, int]], d: int) -> AlgebraElement:
    """The element with coefficient (a + b*i)/d at each key of ``sums``
    whose sum is nonzero."""
    out = {}
    for k, (a, b) in sums.items():
        if a or b:
            g = gcd(a, b, d)
            out[k] = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return AlgebraElement._of_clean(out)


U = AlgebraElement.monomial(1, 0, 0)
V = AlgebraElement.monomial(0, 1, 0)
W = AlgebraElement.monomial(0, 0, 1)
ONE = AlgebraElement.one()


def is_central(x: AlgebraElement) -> bool:
    """True iff the support of x lies on the W axis (p = q = 0).

    This is the same as commuting with U and V, the defining property: the
    column of x at (p, q), a Laurent polynomial f in W, gives [x, U] the
    column (W^q - 1) f at (p+1, q) and [x, V] the column (1 - W^p) f at
    (p, q+1), and a product of nonzero Laurent polynomials is nonzero.  The
    tests check this identity against the commutators.
    """
    return all(p == 0 == q for p, q, _ in x._terms)


def apply_automorphism(x: AlgebraElement, n: int = 1) -> AlgebraElement:
    """The n-th power of the automorphism alpha: conjugation by V.

    alpha(U) = WU, alpha(V) = V, alpha(W) = W.  On a monomial the exponent
    of W shifts by n*p.
    """
    return AlgebraElement._of_clean(
        {(p, q, r + n * p): c for (p, q, r), c in x._terms.items()})


def eval_at_angle(x: AlgebraElement, theta: RationalAngle) -> list[list[complex]]:
    """Evaluate x in the t-dimensional clock-and-shift representation, as
    t rows of t complex numbers.

    With lambda = exp(2*pi*i*s/t):  U acts as the cyclic shift
    e_j -> e_{j+1 mod t}, V as the clock diag(lambda^j) and W as lambda
    times the identity.  This is a unital *-homomorphism onto a quotient in
    which the defining relation becomes VU = lambda UV.  A t over
    MAX_EVAL_DIMENSION raises UnsupportedInput before any allocation, and a
    coefficient or an entry past the float64 range is an OverflowError.
    """
    if theta.t > MAX_EVAL_DIMENSION:
        raise UnsupportedInput(f"eval dimension {theta.t} exceeds {MAX_EVAL_DIMENSION}")
    t, lam = theta.t, theta.lam
    powers = [lam ** n for n in range(t)]
    out = [[0j] * t for _ in range(t)]
    too_large = OverflowError("the matrix has an entry outside the float64 range "
                              f"(magnitude up to {sys.float_info.max:.6g})")
    # U^p V^q W^r sends e_j to lambda^(r + q*j) e_{j+p}; lambda^t = 1.
    for (p, q, r), c in x.terms.items():
        try:
            c = c.to_complex()
        except OverflowError:
            raise too_large from None
        p, q, r = p % t, q % t, r % t
        for j in range(t):
            out[(j + p) % t][j] += c * powers[(r + q * j) % t]
    # complex arithmetic overflows to inf (and inf - inf to nan) silently
    if not all(map(cmath.isfinite, (v for row in out for v in row))):
        raise too_large
    return out


# ---- serialization ----


def element_to_dict(x: AlgebraElement) -> dict:
    return {"terms": [{"p": p, "q": q, "r": r, "re": str(c.re), "im": str(c.im)}
                      for (p, q, r), c in sorted(x.terms.items())]}


def _coefficient(rec: Mapping, name: str) -> Fraction:
    v = rec.get(name, 0)
    if not _is_exact(v):
        raise ValueError(f"coefficient {name} must be an integer or a string "
                         f"such as \"1/2\", got {v!r}")
    return _frac(v)


def element_from_dict(data: Mapping) -> AlgebraElement:
    """The element {"terms": [{"p": .., "q": .., "r": .., "re": .., "im": ..},
    ...]}; input of another shape is a TypeError or ValueError that names
    what is missing or expected."""
    if not isinstance(data, Mapping):
        raise TypeError(f"an element is a JSON object, got {data!r}")
    records = data.get("terms", [])
    if not isinstance(records, (list, tuple)):
        raise TypeError(f"an element's terms are a JSON list, got {records!r}")
    terms: dict[Key, GaussianRational] = {}
    for rec in records:
        if not isinstance(rec, Mapping):
            raise TypeError(f"a term is a JSON object with p, q and r, got {rec!r}")
        missing = [k for k in ("p", "q", "r") if k not in rec]
        if missing:
            raise ValueError(f"a term is a JSON object with p, q and r; "
                             f"{rec!r} has no {' or '.join(missing)}")
        key = _exponents((rec["p"], rec["q"], rec["r"]))
        coeff = GaussianRational(_coefficient(rec, "re"), _coefficient(rec, "im"))
        terms[key] = terms.get(key, GR_ZERO) + coeff
    return AlgebraElement(terms)


def matrix_to_jsonable(m: list[list[complex]]) -> list:
    """Row-major list of {re, im} pairs for a complex matrix."""
    return [[{"re": v.real, "im": v.imag} for v in row] for row in m]


def random_term_bounds(box: int) -> tuple[list[int], list[int]]:
    """The bounds, low inclusive and high exclusive, of the six integers
    (p, q, r, a, b, d) that ``random_element`` draws per term: p, q, r in
    [-box, box], numerators a, b in [-6, 6] and denominator d in [1, 3]."""
    return [-box] * 3 + [-6, -6, 1], [box + 1] * 3 + [7, 7, 4]


def element_from_rows(rows: Iterable[Sequence[int]]) -> AlgebraElement:
    """The sum of (a + b*i)/d U^p V^q W^r over rows (p, q, r, a, b, d) of
    ints with d > 0, in row order: terms at one key add up, and a key whose
    sum is zero is left out."""
    terms: dict[Key, Triple] = {}
    for p, q, r, a, b, d in rows:
        g = gcd(a, b, d)
        t = (a, b, d) if g == 1 else (a // g, b // g, d // g)
        s = terms.get((p, q, r))
        terms[(p, q, r)] = t if s is None else _add(s, t)
    return AlgebraElement._of_clean({k: t for k, t in terms.items() if t[0] or t[1]})


def random_element(rng: np.random.Generator, box: int = 5, n_terms: int = 4) -> AlgebraElement:
    """A random finitely supported element with small rational coefficients,
    each term drawn within ``random_term_bounds(box)``.

    The draw order is part of the seed contract, since ``report all --seed
    S`` reruns the same inputs only while it holds: per term p, q, r, then
    the real numerator, the imaginary numerator and the denominator.  All
    are taken in one bounded draw, which numpy makes value by value exactly
    as it makes one scalar draw after another, and read by
    ``element_from_rows``.
    """
    lo, hi = random_term_bounds(box)
    return element_from_rows(rng.integers(lo, hi, size=(n_terms, 6)).tolist())
