"""Derivations of the Heisenberg group ring and their decomposition.

A derivation of C[H3] is determined by the images dU = d(U) and dV = d(V);
the image of the central generator W is forced to vanish.  Writing

    d(U) = sum a_{p,q,r} U^p V^q W^r,    d(V) = sum b_{p,q,r} U^p V^q W^r,

the Leibniz rule applied to the relation VU = WUV is the ring identity

    d(V) U + V d(U) = W (d(U) V + U d(V)).

The coefficient of the difference of its sides at U^p V^q W^r is the
relation at the cell (p-1, q-1, r-q+1), where a violation is reported:

    (b_{p,q+1,r-1} - b_{p,q+1,r+q-1}) + (a_{p+1,q,r-p+q-1} - a_{p+1,q,r+q-1}) = 0.

With A the column of d(U) at (p+1, q) and B that of d(V) at (p, q+1), as
Laurent polynomials in W, the relation on the cells (p, q, *) is
(W^p - 1) A + (W^q - 1) B = 0, read at height r from the coefficient of
W^(r+q-1); one pass over the terms of d(U) and d(V) evaluates it.

The axis conditions a_{p,0,r} = 0 for p != 1 and b_{0,q,r} = 0 for q != 1
follow from it plus finite support, but are reported separately.

A derivation that splits at all splits uniquely as

    d = z1 * d1 + z2 * d2 + [., x]

with z1, z2 central (Laurent polynomials in W), d1, d2 the canonical
derivations d1(U) = U, d2(V) = V, and x finitely supported and normalized to
have no W-axis terms.  [U, x] has column (1 - W^q) x_{p,q} at (p+1, q) and
[V, x] has (W^p - 1) x_{p,q} at (p, q+1), so each column of x is a column of
dU over 1 - W^q (q != 0) or of dV over W^p - 1, found in work linear in the
entries and the output.  ``decompose`` checks consistency once, builds the
columns once, and checks the split by exact reconstruction.  It may
not exist: d(U) = U V, d(V) = 0 is consistent, but its inner part
V (1 - W)^-1, at the cell (0, 1), has infinite support.

The split is also how a derivation is evaluated: d1 and d2 scale
U^p V^q W^r by p and by q, so ``apply`` computes

    d(y) = z1 * d1(y) + z2 * d2(y) + y x - x y

from one decomposition, given or computed, with no power-by-power Leibniz
expansion.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Literal, NamedTuple

from .algebra import (
    AlgebraElement,
    GaussianRational,
    Key,
    Triple,
    U,
    V,
    ZERO_T,
    _add,
    _neg,
    _raw,
    element_from_dict,
    element_from_rows,
    element_to_dict,
    is_central,
    random_term_bounds,
)

if TYPE_CHECKING:
    import numpy as np

# Cap on the terms of x; at it, `hnc deriv decompose` peaks at ~0.7 GB RSS.
MAX_INNER_TERMS = 10**6


class Derivation(NamedTuple):
    """A derivation given by its generator images; d(W) = 0 always."""

    dU: AlgebraElement
    dV: AlgebraElement


class Violation(NamedTuple):
    kind: Literal["axis-a", "axis-b", "relation"]
    cell: Key


class ConsistencyReport(NamedTuple):
    passed: bool
    violations: tuple[Violation, ...] = ()


class DecompositionResult(NamedTuple):
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
    """Verify the Leibniz identity on VU = WUV and the axis rules.

    One direct pass over the terms of d(U) and d(V), with no ring product
    and no columns (see the module docstring), adds each coefficient, as an
    integer numerator over the lcm of the distinct denominators, into the
    two cells it enters; the cells left nonzero are the violations, in order.
    """
    (a, _, _), (b, _, _) = sides = _sides(d)
    violations = [Violation("axis-a", k) for k in sorted(k for k in a if k[1] == 0 and k[0] != 1)]
    violations += [Violation("axis-b", k) for k in sorted(k for k in b if k[0] == 0 and k[1] != 1)]

    den = lcm(*{e for _, _, e in a.values()}, *{e for _, _, e in b.values()})
    sums: dict[Key, tuple[int, int]] = {}
    get = sums.get
    # The entry at height h of the column at the cell (p, q) enters W^(h+step)
    # with + and W^h with -, step p for d(U) and q for d(V); the coefficient
    # of W^k is the cell at height k + 1 - q.
    for terms, dp, dq in sides:
        for (p, q, h), (re, im, e) in terms.items():
            p, q = p - dp, q - dq
            if step := p * dp + q * dq:
                re, im = re * (den // e), im * (den // e)
                key = (p, q, h + step + 1 - q)
                s = get(key)
                sums[key] = (re, im) if s is None else (s[0] + re, s[1] + im)
                key = (p, q, h + 1 - q)
                s = get(key)
                sums[key] = (-re, -im) if s is None else (s[0] - re, s[1] - im)
    cells = sorted(k for k, s in sums.items() if s[0] or s[1])
    violations += [Violation("relation", k) for k in cells]
    return ConsistencyReport(not violations, tuple(violations))


def _weighted(y: AlgebraElement, axis: int) -> AlgebraElement:
    """d1(y) (axis 0) or d2(y) (axis 1): U^p V^q W^r scaled by p or by q.

    (a*w + b*w*i)/d reduces by gcd(w, d) alone, since gcd(a, b, d) = 1."""
    out: dict[Key, Triple] = {}
    for k, (a, b, d) in y._terms.items():
        if w := k[axis]:
            g = gcd(w, d)
            out[k] = (a * w, b * w, d) if g == 1 else (a * (w // g), b * (w // g), d // g)
    return AlgebraElement._of_clean(out)


def apply(d: Derivation | DecompositionResult, y: AlgebraElement) -> AlgebraElement:
    """Evaluate d on y through its decomposition d = z1*d1 + z2*d2 + [., x].

    Since z1 and z2 are central, d(y) = z1*d1(y) + z2*d2(y) + (y*x - x*y).
    d may be that decomposition, which is then not computed again.  Raises
    ValueError for a non-central z1 or z2, as ``compose_from_parts`` does,
    and what ``decompose`` raises: ValueError for an inconsistent
    derivation, ArithmeticError if no finitely supported x splits d; and
    UnsupportedInput, before the product's work, if y times x, z1 or z2
    would take over ``algebra.MAX_TERM_PRODUCTS`` term products.
    """
    parts = d if isinstance(d, DecompositionResult) else decompose(d)
    _require_central(parts.z1, parts.z2)
    return parts.z1 * _weighted(y, 0) + parts.z2 * _weighted(y, 1) + y.commutator(parts.x)


def _sides(d: Derivation) -> list[tuple[dict[Key, Triple], int, int]]:
    """The terms of d(U) and of d(V), each with the shift (dp, dq) that
    takes an entry to its cell: d(U) at (p+1, q) and d(V) at (p, q+1)."""
    return [(x._terms, dp, dq) for x, dp, dq in zip(d, (1, 0), (0, 1))]


def _columns(
    terms: dict[Key, Triple], dp: int, dq: int
) -> dict[tuple[int, int], dict[int, Triple]]:
    """Every column of the terms in one pass, keyed by (p - dp, q - dq)."""
    cols: dict[tuple[int, int], dict[int, Triple]] = {}
    for (p, q, r), c in terms.items():
        cols.setdefault((p - dp, q - dq), {})[r] = c
    return cols


def _quotient(column: dict[int, Triple], step: int, sign: int,
              written: int = 0) -> dict[int, Triple] | None:
    """sign * column / (1 - W^step) as {height: coefficient}; None if infinite.

    On each residue class of heights mod step, the quotient g (with
    g_h - g_{h-step} = sign * column_h) is the running sum of the entries
    in height order along step, written from one entry up to the next; it
    is finite iff every class sums to zero.  Raises ValueError before
    ``written`` plus its own terms would exceed MAX_INNER_TERMS.
    """
    out: dict[int, Triple] = {}
    runs: dict[int, tuple[int, Triple]] = {}  # class: (last entry, sum)
    for h in sorted(column, reverse=step < 0):
        c = column[h] if sign > 0 else _neg(column[h])
        run = runs.get(k := h % step)
        if run is not None and run[1] != ZERO_T:
            last, total = run
            if written + len(out) + (h - last) // step > MAX_INNER_TERMS:
                raise ValueError(f"the inner part has more than {MAX_INNER_TERMS} terms")
            out.update(dict.fromkeys(range(last, h, step), total))
            c = _add(total, c)
        runs[k] = (h, c)
    return out if all(total == ZERO_T for _, total in runs.values()) else None


def inner_coefficient(
    d: Derivation, p: int, q: int, route: str
) -> dict[int, GaussianRational]:
    """The column {r: alpha_{p,q,r}} of the inner part at the cell (p, q),
    via one of the two routes; heights that are absent have coefficient 0.

    The a-route divides the dU column at (p+1, q) by 1 - W^q (q != 0), the
    b-route the dV column at (p, q+1) by W^p - 1 (p != 0).  Both agree on
    interior cells of consistent derivations, and raise ArithmeticError for
    a quotient with infinite support.
    """
    if route == "a":
        if q == 0:
            raise ValueError("a-route requires q != 0")
        quotient = _quotient(_columns(*_sides(d)[0]).get((p, q), {}), q, 1)
    elif route == "b":
        if p == 0:
            raise ValueError("b-route requires p != 0")
        quotient = _quotient(_columns(*_sides(d)[1]).get((p, q), {}), p, -1)
    else:
        raise ValueError("route must be 'a' or 'b'")
    if quotient is None:
        raise ArithmeticError(f"{route}-route quotient at cell {(p, q)} is infinite")
    return {r: _raw(t) for r, t in quotient.items()}


def _require_central(z1: AlgebraElement, z2: AlgebraElement) -> None:
    if not is_central(z1) or not is_central(z2):
        raise ValueError("z1 and z2 must be central (W-axis) elements")


def compose_from_parts(
    z1: AlgebraElement, z2: AlgebraElement, x: AlgebraElement
) -> Derivation:
    """Build z1*d1 + z2*d2 + [., x]; z1 and z2 must be central."""
    _require_central(z1, z2)
    inner = inner_derivation(x)
    return Derivation(z1 * U + inner.dU, z2 * V + inner.dV)


def decompose(d: Derivation) -> DecompositionResult:
    """Split a consistent derivation into canonical and inner parts.

    Returns (z1, z2, x) with z1 = sum_r a_{1,0,r} W^r, z2 = sum_r b_{0,1,r} W^r,
    and x the inner part normalized by alpha_{0,0,r} = 0.  Raises ValueError
    if d is inconsistent or x has over MAX_INNER_TERMS terms, ArithmeticError
    if no finitely supported x splits d (the reconstruction differs from d).
    """
    report = check_consistency(d)
    if not report.passed:
        raise ValueError(
            "cannot decompose an inconsistent derivation "
            f"({len(report.violations)} violating cells)"
        )

    # a_{p+1,q,*} and b_{p,q+1,*} are the sources of the cell (p, q) of x;
    # the cell (0, 0) holds z1 and z2 instead.
    a_cols, b_cols = (_columns(*side) for side in _sides(d))
    z1 = AlgebraElement._of_clean({(0, 0, r): c for r, c in a_cols.pop((0, 0), {}).items()})
    z2 = AlgebraElement._of_clean({(0, 0, r): c for r, c in b_cols.pop((0, 0), {}).items()})

    x_terms: dict[Key, Triple] = {}
    infinite = []
    # a cell with q != 0 and no d(U) column has the empty quotient
    for (p, q) in sorted([c for c in a_cols if c[1]] + [c for c in b_cols if not c[1]]):
        quotient = (_quotient(a_cols[(p, q)], q, 1, len(x_terms)) if q
                    else _quotient(b_cols[(p, q)], p, -1, len(x_terms)))
        if quotient is None:
            infinite.append((p, q))
        else:
            x_terms.update({(p, q, r): c for r, c in quotient.items()})

    x = AlgebraElement._of_clean(x_terms)
    rebuilt = compose_from_parts(z1, z2, x)
    if rebuilt.dU != d.dU or rebuilt.dV != d.dV:
        cells = len((rebuilt.dU - d.dU).support()) + len((rebuilt.dV - d.dV).support())
        raise ArithmeticError(
            "d is not z1*d1 + z2*d2 + [., x] for any finitely supported x "
            f"(cells where the reconstruction differs from d: {cells}; "
            f"cells (p, q) of x with infinite support: {infinite})")
    return DecompositionResult(z1=z1, z2=z2, x=x)


# ---- serialization ----


def derivation_to_dict(d: Derivation) -> dict:
    return {"dU": element_to_dict(d.dU), "dV": element_to_dict(d.dV)}


def derivation_from_dict(data) -> Derivation:
    """The derivation {"dU": element, "dV": element}; input of another
    shape is a TypeError or ValueError that names what is missing."""
    if not isinstance(data, dict):
        raise TypeError(f"a derivation is a JSON object with dU and dV, got {data!r}")
    missing = [k for k in ("dU", "dV") if k not in data]
    if missing:
        raise ValueError(f"a derivation is a JSON object with dU and dV; "
                         f"{data!r} has no {' or '.join(missing)}")
    return Derivation(element_from_dict(data["dU"]), element_from_dict(data["dV"]))


def decomposition_to_dict(res: DecompositionResult) -> dict:
    return {
        "z1": element_to_dict(res.z1),
        "z2": element_to_dict(res.z2),
        "x": element_to_dict(res.x),
    }


def random_derivation_parts(
    rng: np.random.Generator, box: int = 5, n_terms: int = 3
) -> DecompositionResult:
    """Random (z1, z2, x) parts, in the normal form ``decompose`` returns.

    The draw order is part of the seed contract: the two heights in
    [-box, box] and then the two coefficients in [-4, 4] of z1, the same
    for z2, then the rows of x in ``random_element``'s order.  All are taken
    in one bounded draw, which numpy makes value by value exactly as it
    makes the draws one after another, and the rows are read by
    ``element_from_rows``.  Two equal heights keep the second coefficient;
    x drops its W-axis terms.
    """
    lo, hi = random_term_bounds(box)
    draw = rng.integers([-box, -box, -4, -4] * 2 + lo * n_terms,
                        [box + 1, box + 1, 5, 5] * 2 + hi * n_terms).tolist()
    z1, z2 = (AlgebraElement({(0, 0, r1): c1, (0, 0, r2): c2})
              for r1, r2, c1, c2 in (draw[:4], draw[4:8]))
    rows = (draw[i:i + 6] for i in range(8, len(draw), 6))
    # Normalize: the W-axis part of x acts trivially in commutators anyway.
    x = element_from_rows(row for row in rows if row[0] or row[1])
    return DecompositionResult(z1=z1, z2=z2, x=x)


def random_consistent_derivation(
    rng: np.random.Generator, box: int = 5, n_terms: int = 3
) -> Derivation:
    """A random consistent derivation built from random (z1, z2, x) parts."""
    parts = random_derivation_parts(rng, box, n_terms)
    return compose_from_parts(parts.z1, parts.z2, parts.x)
