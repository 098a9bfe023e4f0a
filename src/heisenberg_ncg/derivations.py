"""Derivations of the Heisenberg group ring and their decomposition.

A derivation of C[H3] is determined by the images dU = d(U) and dV = d(V);
the image of the central generator W is forced to vanish.  Writing

    d(U) = sum a_{p,q,r} U^p V^q W^r,    d(V) = sum b_{p,q,r} U^p V^q W^r,

the Leibniz rule applied to the relation VU = WUV forces, for all p, q, r,

    (b_{p,q+1,r-1} - b_{p,q+1,r+q-1}) + (a_{p+1,q,r-p+q-1} - a_{p+1,q,r+q-1}) = 0

together with the axis conditions a_{p,0,r} = 0 for p != 1 and
b_{0,q,r} = 0 for q != 1 (these follow from the relation plus finite
support, but are reported separately for diagnostics).

A derivation that splits at all splits uniquely as

    d = z1 * d1 + z2 * d2 + [., x]

with z1, z2 central (Laurent polynomials in W), d1, d2 the canonical
derivations d1(U) = U, d2(V) = V, and x finitely supported and normalized to
have no W-axis terms.  The inner part x is recovered cell by cell through
telescoping sums over the coefficients of dU (step q) or dV (step p), and
the result is verified by exact reconstruction.  Consistency is necessary
for the split, not sufficient: d(U) = U V, d(V) = 0 is consistent, but its
inner part V (1 - W)^-1 has infinite support, so reconstruction fails.

The split is also how a derivation is evaluated: d1 and d2 scale
U^p V^q W^r by p and by q, so ``apply`` computes

    d(y) = z1 * d1(y) + z2 * d2(y) + y x - x y

from one decomposition, with no power-by-power Leibniz expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .algebra import (
    GR_ZERO,
    AlgebraElement,
    GaussianRational,
    Key,
    U,
    V,
    element_from_dict,
    element_to_dict,
    is_central,
    random_element,
)


@dataclass(frozen=True)
class Derivation:
    """A derivation given by its generator images; d(W) = 0 always."""

    dU: AlgebraElement
    dV: AlgebraElement

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation(self.dU + other.dU, self.dV + other.dV)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return Derivation(self.dU - other.dU, self.dV - other.dV)

    def is_zero(self) -> bool:
        return self.dU.is_zero() and self.dV.is_zero()


@dataclass(frozen=True)
class Violation:
    kind: Literal["axis-a", "axis-b", "relation"]
    cell: Key


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class DecompositionResult:
    z1: AlgebraElement
    z2: AlgebraElement
    x: AlgebraElement


def canonical_derivation(which: int) -> Derivation:
    """The two canonical outer derivations: d1(U) = U, d2(V) = V."""
    if which == 1:
        return Derivation(U, AlgebraElement.zero())
    if which == 2:
        return Derivation(AlgebraElement.zero(), V)
    raise ValueError("which must be 1 or 2")


def inner_derivation(x: AlgebraElement) -> Derivation:
    """The commutator derivation a -> [a, x] = ax - xa."""
    return Derivation(U.commutator(x), V.commutator(x))


def check_consistency(d: Derivation) -> ConsistencyReport:
    """Verify the coefficient relation forced by VU = WUV and the axis rules."""
    a = d.dU.terms
    b = d.dV.terms
    violations: list[Violation] = []

    for (p, q, r) in sorted(a):
        if q == 0 and p != 1:
            violations.append(Violation("axis-a", (p, q, r)))
    for (p, q, r) in sorted(b):
        if p == 0 and q != 1:
            violations.append(Violation("axis-b", (p, q, r)))

    # The relation at (p, q, r) references b_{p,q+1,*} and a_{p+1,q,*}; it can
    # only fail where one of the four terms is supported.
    cells: set[Key] = set()
    for (P, Q, R) in a:
        # R = r + q - 1 or R = r - p + q - 1 with p = P - 1, q = Q
        cells.add((P - 1, Q, R - Q + 1))
        cells.add((P - 1, Q, R + (P - 1) - Q + 1))
    for (P, Q, R) in b:
        # R = r - 1 or R = r + q - 1 with q = Q - 1
        cells.add((P, Q - 1, R + 1))
        cells.add((P, Q - 1, R - (Q - 1) + 1))

    def av(p, q, r):
        return a.get((p, q, r), GR_ZERO)

    def bv(p, q, r):
        return b.get((p, q, r), GR_ZERO)

    for (p, q, r) in sorted(cells):
        lhs = (
            bv(p, q + 1, r - 1)
            - bv(p, q + 1, r + q - 1)
            + av(p + 1, q, r - p + q - 1)
            - av(p + 1, q, r + q - 1)
        )
        if not lhs.is_zero():
            violations.append(Violation("relation", (p, q, r)))

    return ConsistencyReport(not violations, tuple(violations))


def _weighted(y: AlgebraElement, axis: int) -> AlgebraElement:
    """d1(y) (axis 0) or d2(y) (axis 1): U^p V^q W^r scaled by p or by q."""
    return AlgebraElement({
        k: GaussianRational(c.re * k[axis], c.im * k[axis])
        for k, c in y.terms.items()
    })


def apply(d: Derivation, y: AlgebraElement) -> AlgebraElement:
    """Evaluate d on y through its decomposition d = z1*d1 + z2*d2 + [., x].

    Since z1 and z2 are central, d(y) = z1*d1(y) + z2*d2(y) + (y*x - x*y).
    Raises what ``decompose`` raises: ValueError for an inconsistent
    derivation, ArithmeticError if no finitely supported x splits d.
    """
    parts = decompose(d)
    return parts.z1 * _weighted(y, 0) + parts.z2 * _weighted(y, 1) + y.commutator(parts.x)


def _column(x: AlgebraElement, p: int, q: int) -> dict[int, GaussianRational]:
    return {r: c for (pp, qq, r), c in x.terms.items() if pp == p and qq == q}


def _columns(
    x: AlgebraElement, dp: int, dq: int
) -> dict[tuple[int, int], dict[int, GaussianRational]]:
    """Every column of x in one pass, keyed by (p - dp, q - dq)."""
    cols: dict[tuple[int, int], dict[int, GaussianRational]] = {}
    for (p, q, r), c in x.terms.items():
        cols.setdefault((p - dp, q - dq), {})[r] = c
    return cols


def _telescope(
    column: dict[int, GaussianRational], r: int, step: int, route: str
) -> GaussianRational:
    """The telescoping sum defining the inner-part coefficient at height r.

    ``column`` holds the source coefficients (a_{p+1,q,*} for the a-route,
    b_{p,q+1,*} for the b-route) and ``step`` the nonzero index step (q for
    the a-route, p for the b-route).  The sum runs away from height 0: over
    r + step, r + 2*step, ... when step points away from 0 (sign -1 on the
    a-route), else over r, r - step, ... (sign +1 on the a-route).  The
    b-route has the opposite signs.  These signs make reconstruction exact.
    """
    if not column:
        return GR_ZERO
    outward = (step > 0) == (r >= 0)
    stride = step if outward else -step
    stop = max(column) + 1 if stride > 0 else min(column) - 1
    start = r + stride if outward else r
    total = sum((column[h] for h in range(start, stop, stride) if h in column), GR_ZERO)
    return -total if outward == (route == "a") else total


def inner_coefficient(
    d: Derivation, p: int, q: int, r: int, route: str
) -> GaussianRational:
    """Coefficient alpha_{p,q,r} of the inner part, via one of the two routes.

    The a-route telescopes the dU coefficients with step q (valid for
    q != 0); the b-route telescopes the dV coefficients with step p (valid
    for p != 0).  On interior cells (p != 0 and q != 0) both routes agree
    for consistent derivations.
    """
    if route == "a":
        if q == 0:
            raise ValueError("a-route requires q != 0")
        return _telescope(_column(d.dU, p + 1, q), r, q, "a")
    if route == "b":
        if p == 0:
            raise ValueError("b-route requires p != 0")
        return _telescope(_column(d.dV, p, q + 1), r, p, "b")
    raise ValueError("route must be 'a' or 'b'")


def compose_from_parts(
    z1: AlgebraElement, z2: AlgebraElement, x: AlgebraElement
) -> Derivation:
    """Build z1*d1 + z2*d2 + [., x]; z1 and z2 must be central."""
    if not is_central(z1) or not is_central(z2):
        raise ValueError("z1 and z2 must be central (W-axis) elements")
    inner = inner_derivation(x)
    return Derivation(z1 * U + inner.dU, z2 * V + inner.dV)


def decompose(d: Derivation) -> DecompositionResult:
    """Split a consistent derivation into canonical and inner parts.

    Returns (z1, z2, x) with z1 = sum_r a_{1,0,r} W^r, z2 = sum_r b_{0,1,r} W^r,
    and x the inner part normalized by alpha_{0,0,r} = 0.  Raises
    ValueError if the input is inconsistent, and ArithmeticError if the
    exact reconstruction differs from d, that is, if no finitely supported
    x splits d.
    """
    report = check_consistency(d)
    if not report.passed:
        raise ValueError(
            "cannot decompose an inconsistent derivation "
            f"({len(report.violations)} violating cells)"
        )

    # a_{p+1,q,*} and b_{p,q+1,*} are the sources of the cell (p, q) of x;
    # the cell (0, 0) holds z1 and z2 instead.
    a_cols = _columns(d.dU, 1, 0)
    b_cols = _columns(d.dV, 0, 1)
    z1 = AlgebraElement({(0, 0, r): c for r, c in a_cols.pop((0, 0), {}).items()})
    z2 = AlgebraElement({(0, 0, r): c for r, c in b_cols.pop((0, 0), {}).items()})

    x_terms: dict[Key, GaussianRational] = {}
    for (p, q) in a_cols.keys() | b_cols.keys():
        if q != 0:
            column, step, route = a_cols.get((p, q)), q, "a"
        else:
            column, step, route = b_cols.get((p, q)), p, "b"
        if not column:
            continue
        # A telescope only reaches heights between its column and 0.
        for r in range(min(min(column), 0), max(max(column), 0) + 1):
            x_terms[(p, q, r)] = _telescope(column, r, step, route)

    x = AlgebraElement(x_terms)  # drops the zero coefficients
    rebuilt = compose_from_parts(z1, z2, x)
    if rebuilt.dU != d.dU or rebuilt.dV != d.dV:
        cells = len((rebuilt.dU - d.dU).terms) + len((rebuilt.dV - d.dV).terms)
        raise ArithmeticError(
            "d is not z1*d1 + z2*d2 + [., x] for any finitely supported x "
            f"(cells where the reconstruction differs from d: {cells})")
    return DecompositionResult(z1=z1, z2=z2, x=x)


# ---- serialization ----


def derivation_to_dict(d: Derivation) -> dict:
    return {"dU": element_to_dict(d.dU), "dV": element_to_dict(d.dV)}


def derivation_from_dict(data) -> Derivation:
    return Derivation(
        element_from_dict(data["dU"]), element_from_dict(data["dV"])
    )


def decomposition_to_dict(res: DecompositionResult) -> dict:
    return {
        "z1": element_to_dict(res.z1),
        "z2": element_to_dict(res.z2),
        "x": element_to_dict(res.x),
    }


def random_derivation_parts(
    rng: np.random.Generator, box: int = 5, n_terms: int = 3
) -> DecompositionResult:
    """Random (z1, z2, x) parts, in the normal form ``decompose`` returns."""
    def central() -> AlgebraElement:
        return AlgebraElement(
            {(0, 0, int(r)): int(c) for r, c in zip(
                rng.integers(-box, box + 1, size=2),
                rng.integers(-4, 5, size=2),
            )}
        )

    z1 = central()
    z2 = central()
    x = random_element(rng, box=box, n_terms=n_terms)
    # Normalize: the W-axis part of x acts trivially in commutators anyway.
    x = AlgebraElement(
        {k: c for k, c in x.terms.items() if (k[0], k[1]) != (0, 0)}
    )
    return DecompositionResult(z1=z1, z2=z2, x=x)


def random_consistent_derivation(
    rng: np.random.Generator, box: int = 5, n_terms: int = 3
) -> Derivation:
    """A random consistent derivation built from random (z1, z2, x) parts."""
    parts = random_derivation_parts(rng, box, n_terms)
    return compose_from_parts(parts.z1, parts.z2, parts.x)
