"""Exact arithmetic for the discrete Heisenberg group and its twisted group ring.

The group H3 is generated by unitaries U, V, W subject to VU = WUV with W
central.  Every group element has a unique normal form U^p V^q W^r, so the
group is modelled by exponent triples (p, q, r) with the multiplication law

    (p1, q1, r1) * (p2, q2, r2) = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2).

Finitely supported complex-rational coefficient functions on Z^3 then model
the group ring: twisted Laurent polynomials in U, V, W.  All ring operations
are exact; floating point appears only when an element is evaluated in a
finite-dimensional representation.

A coefficient (``GaussianRational``) is three integers (a, b, d) meaning
(a + b*i)/d, kept canonical (d > 0, gcd(a, b, d) = 1).  A product of two
elements writes each operand over one common denominator, sums the term
products as integer pairs per output key, and reduces each output
coefficient once; the commutator does the same in one pass over the term
pairs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

import numpy as np

Rationalish = Union[int, Fraction, str]


def _frac(x: Rationalish) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as three integers (a, b, d) meaning (a + b*i)/d, with d > 0 and
    gcd(a, b, d) = 1.  The form is canonical, so equal values have equal
    fields.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        # Both parts are in lowest terms, so gcd(a, b, d) is already 1.
        _set(self, "_a", re.numerator * (d // re.denominator))
        _set(self, "_b", im.numerator * (d // im.denominator))
        _set(self, "_d", d)

    @staticmethod
    def of(re: Rationalish = 0, im: Rationalish = 0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(self._a * d2 - other._a * d1,
                        self._b * d2 - other._b * d1, d1 * d2)

    def __neg__(self) -> "GaussianRational":
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def conjugate(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def to_complex(self) -> complex:
        # int true division rounds exactly as Fraction.__float__ does
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return f"{self.re}{'+' if self._b >= 0 else ''}{self.im}i"


_set = object.__setattr__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """Wrap fields that are already canonical."""
    x = object.__new__(GaussianRational)
    _set(x, "_a", a)
    _set(x, "_b", b)
    _set(x, "_d", d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to the canonical form."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational.of(1)


@dataclass(frozen=True)
class GroupElement:
    """Exponent triple (p, q, r) for the normal-form word U^p V^q W^r."""

    p: int
    q: int
    r: int

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.p + other.p,
            self.q + other.q,
            self.r + other.r + self.q * other.p,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.p, -self.q, self.p * self.q - self.r)

    def is_identity(self) -> bool:
        return self.p == 0 and self.q == 0 and self.r == 0

    def is_central(self) -> bool:
        return self.p == 0 and self.q == 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


IDENTITY = GroupElement(0, 0, 0)


def conjugate(h: GroupElement, g: GroupElement) -> GroupElement:
    """h g h^{-1}."""
    return h * g * h.inverse()


@dataclass(frozen=True)
class RationalAngle:
    """A reduced fraction s/t representing the angle theta = s/t of a root
    of unity lambda = exp(2*pi*i*s/t)."""

    s: int
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("denominator must be a positive integer")
        if gcd(self.s, self.t) != 1 and not (self.s == 0 and self.t == 1):
            raise ValueError("angle fraction must be in lowest terms")

    @staticmethod
    def of(s: int, t: int) -> "RationalAngle":
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
        return np.exp(2j * np.pi * self.s / self.t)


Key = tuple[int, int, int]
CoeffLike = Union[int, Fraction, complex, GaussianRational]


def _coerce_coeff(c: CoeffLike) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, complex):
        return GaussianRational(Fraction(c.real), Fraction(c.imag))
    return GaussianRational(c)


class AlgebraElement:
    """A finitely supported element of the twisted group ring C[H3].

    Stores a mapping from exponent triples to exact Gaussian-rational
    coefficients.  Zero coefficients are never stored, so equality of the
    term dictionaries is equality of elements.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, CoeffLike] | None = None):
        clean: dict[Key, GaussianRational] = {}
        if terms:
            for key, c in terms.items():
                coeff = _coerce_coeff(c)
                if not coeff.is_zero():
                    p, q, r = key
                    clean[(int(p), int(q), int(r))] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def terms(self) -> dict[Key, GaussianRational]:
        return dict(self._terms)

    def coeff(self, p: int, q: int, r: int) -> GaussianRational:
        return self._terms.get((p, q, r), GR_ZERO)

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
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, GR_ZERO) + c
        return AlgebraElement._of_clean(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, GR_ZERO) - c
        return AlgebraElement._of_clean(out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({k: -c for k, c in self._terms.items()})

    def scale(self, c: CoeffLike) -> "AlgebraElement":
        cc = _coerce_coeff(c)
        return AlgebraElement({k: v * cc for k, v in self._terms.items()})

    @staticmethod
    def _of_clean(terms: dict[Key, GaussianRational]) -> "AlgebraElement":
        """Wrap a dict with int-triple keys, dropping zero coefficients; unlike
        ``__init__`` it rebuilds no key, so ring operations allocate less."""
        x = object.__new__(AlgebraElement)
        object.__setattr__(
            x, "_terms", {k: c for k, c in terms.items() if not c.is_zero()})
        return x

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        a, b = self._terms, other._terms
        # A one-term operand maps keys one to one: nothing accumulates.
        if len(b) == 1:
            ((p2, q2, r2), c2), = b.items()
            unit = c2 == GR_ONE
            return AlgebraElement._of_clean({
                (p1 + p2, q1 + q2, r1 + r2 + q1 * p2): c1 if unit else c1 * c2
                for (p1, q1, r1), c1 in a.items()
            })
        if len(a) == 1:
            ((p1, q1, r1), c1), = a.items()
            unit = c1 == GR_ONE
            return AlgebraElement._of_clean({
                (p1 + p2, q1 + q2, r1 + r2 + q1 * p2): c2 if unit else c1 * c2
                for (p2, q2, r2), c2 in b.items()
            })
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
        out = {}
        for (p, q, r), c in self._terms.items():
            out[(-p, -q, p * q - r)] = c.conjugate()
        return AlgebraElement(out)

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        """self*other - other*self in one pass over the term pairs.

        Both products share each coefficient product; their keys differ only
        in the W exponent (q1*p2 against q2*p1), and pairs where those agree
        cancel.
        """
        d1, nums1 = _numerators(self._terms)
        d2, nums2 = _numerators(other._terms)
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
        parts = [f"({c}) U^{p} V^{q} W^{r}" for (p, q, r), c in sorted(self._terms.items())]
        return "AlgebraElement(" + " + ".join(parts) + ")"


def _numerators(terms: dict[Key, GaussianRational]):
    """(D, [(key, a', b')]) with every coefficient written as (a' + b'*i)/D."""
    d = lcm(*[c._d for c in terms.values()])
    return d, [(k, c._a * (d // c._d), c._b * (d // c._d)) for k, c in terms.items()]


def _from_sums(sums: dict[Key, tuple[int, int]], d: int) -> AlgebraElement:
    """The element with coefficient (a + b*i)/d at each key of ``sums``."""
    return AlgebraElement._of_clean({k: _reduced(a, b, d) for k, (a, b) in sums.items()})


U = AlgebraElement.monomial(1, 0, 0)
V = AlgebraElement.monomial(0, 1, 0)
W = AlgebraElement.monomial(0, 0, 1)
ONE = AlgebraElement.one()


def is_central(x: AlgebraElement) -> bool:
    """True iff x commutes with both U and V.

    For finitely supported elements this is equivalent to the support lying
    on the W axis (p = q = 0); both routes are equivalent and the commutator
    route is the defining one.
    """
    return x.commutator(U).is_zero() and x.commutator(V).is_zero()


def apply_automorphism(x: AlgebraElement, n: int = 1) -> AlgebraElement:
    """The n-th power of the automorphism alpha: conjugation by V.

    alpha(U) = WU, alpha(V) = V, alpha(W) = W.  On a monomial the exponent
    of W shifts by n*p.
    """
    return AlgebraElement(
        {(p, q, r + n * p): c for (p, q, r), c in x.terms.items()}
    )


def eval_at_angle(x: AlgebraElement, theta: RationalAngle) -> np.ndarray:
    """Evaluate x in the t-dimensional clock-and-shift representation.

    With lambda = exp(2*pi*i*s/t):  U acts as the cyclic shift
    e_j -> e_{j+1 mod t}, V as the clock diag(lambda^j) and W as lambda
    times the identity.  This is a unital *-homomorphism onto a quotient in
    which the defining relation becomes VU = lambda UV.
    """
    t = theta.t
    j = np.arange(t)
    out = np.zeros((t, t), dtype=complex)
    # U^p V^q W^r sends e_j to lambda^(r + q*j) e_{j+p}; lambda^t = 1.
    for (p, q, r), c in x.terms.items():
        p, q, r = p % t, q % t, r % t  # as Python ints, so int64 cannot overflow
        out[(j + p) % t, j] += c.to_complex() * theta.lam ** ((r + q * j) % t)
    return out


def quotient_to_torus(x: AlgebraElement) -> AlgebraElement:
    """Push x through the quotient map W -> 1: sum coefficients over r."""
    out: dict[Key, GaussianRational] = {}
    for (p, q, r), c in x.terms.items():
        key = (p, q, 0)
        out[key] = out.get(key, GR_ZERO) + c
    return AlgebraElement(out)


# ---- serialization ----


def _term_record(key: Key, c: GaussianRational) -> dict:
    p, q, r = key
    return {"p": p, "q": q, "r": r, "re": str(c.re), "im": str(c.im)}


def element_to_dict(x: AlgebraElement) -> dict:
    return {"terms": [_term_record(k, x.coeff(*k)) for k in x.support()]}


def _exponent(rec: Mapping, name: str) -> int:
    v = rec[name]
    # bool is an int subclass, and int() would truncate 1.7 or parse "1".
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"exponent {name} must be an integer, got {v!r}")
    return int(v)


def _coefficient(rec: Mapping, name: str) -> Fraction:
    v = rec.get(name, 0)
    # A float is already a binary approximation, and a bool is an int.
    if isinstance(v, bool) or not isinstance(v, (numbers.Rational, str)):
        raise ValueError(f"coefficient {name} must be an integer or a string "
                         f"such as \"1/2\", got {v!r}")
    return Fraction(v)


def element_from_dict(data: Mapping) -> AlgebraElement:
    if not isinstance(data, Mapping):
        raise TypeError(f"an element is a JSON object, got {data!r}")
    terms: dict[Key, GaussianRational] = {}
    for rec in data.get("terms", []):
        key = (_exponent(rec, "p"), _exponent(rec, "q"), _exponent(rec, "r"))
        coeff = GaussianRational(_coefficient(rec, "re"), _coefficient(rec, "im"))
        terms[key] = terms.get(key, GR_ZERO) + coeff
    return AlgebraElement(terms)


def element_to_json(x: AlgebraElement) -> str:
    return json.dumps(element_to_dict(x), sort_keys=True)


def element_from_json(text: str) -> AlgebraElement:
    return element_from_dict(json.loads(text))


def matrix_to_jsonable(m: np.ndarray) -> list:
    """Row-major list of {re, im} pairs for a complex matrix."""
    return [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in m]


def random_element(
    rng: np.random.Generator,
    box: int = 5,
    n_terms: int = 4,
    max_num: int = 6,
) -> AlgebraElement:
    """A random finitely supported element with small rational coefficients."""
    terms: dict[Key, GaussianRational] = {}
    for _ in range(n_terms):
        key = tuple(int(v) for v in rng.integers(-box, box + 1, size=3))
        num_re = int(rng.integers(-max_num, max_num + 1))
        num_im = int(rng.integers(-max_num, max_num + 1))
        den = int(rng.integers(1, 4))
        terms[key] = terms.get(key, GR_ZERO) + GaussianRational(
            Fraction(num_re, den), Fraction(num_im, den)
        )
    return AlgebraElement(terms)
