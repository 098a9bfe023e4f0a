"""Conjugacy, centralizers and cohomological invariants for H3.

Conjugating U^p V^q W^r by U^x V^y W^z shifts the W-exponent by y*p - x*q,
which ranges over the multiples of k = gcd(p, q).  Conjugacy classes of
noncentral elements are therefore labelled by (p, q, r mod k), and the
centralizer of a noncentral element is {h : q * p_h = p * q_h}, a copy of
Z^2 (spanned by a primitive vector over (p, q) together with the centre).

The quotient N_g of the centralizer by the cyclic group generated by g is
computed case by case, and each isomorphism type carries a known group
cohomology profile with complex coefficients.  Summing the identity-class
profile over degrees n - 2j gives the finite-rank part of the cyclic
cohomology of the group ring; the countably many nontrivial conjugacy
classes contribute a product factor in degrees <= 2 only.
"""

from __future__ import annotations

import re
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from . import UnsupportedInput
from .group import GroupElement, group_product

if TYPE_CHECKING:
    import numpy as np

# Coordinates of g below this bound keep q1 * p2 of the group law, for the
# other factor in a box of at most 12, far inside int64.
_MAX_BRUTE_FORCE_COORDINATE = 2**31


class CentralizerReport(NamedTuple):
    case: str  # Case1 | Case2 | Case3 | Case4a | Case4b | Identity
    k: int
    p_prime: int
    q_prime: int
    s_k: int
    l: int
    ng_type: str  # Z | ZxZl(l) | Z2 | CentralExtension(m) | H3


class CohomologyProfile(NamedTuple):
    dims: tuple[int, ...]


class CyclicDimReport(NamedTuple):
    degree: int
    finite_rank: int
    countable_factor: bool


def _ng_label(l: int) -> str:
    # Z x Z_1 collapses to Z.
    return "Z" if l == 1 else f"ZxZl({l})"


def classify_element(g: GroupElement) -> CentralizerReport:
    """Closed-form centralizer / quotient classification of a group element."""
    p, q, r = g.p, g.q, g.r
    if g.is_identity():
        return CentralizerReport("Identity", 0, 0, 0, 0, 0, "H3")
    if p == 0 and q == 0:
        if abs(r) == 1:
            return CentralizerReport("Case4a", 0, 0, 0, 0, 0, "Z2")
        return CentralizerReport(
            "Case4b", 0, 0, 0, 0, abs(r), f"CentralExtension({abs(r)})"
        )
    if q == 0:
        l = gcd(p, r)
        return CentralizerReport("Case2", abs(p), p // abs(p), 0, 0, l, _ng_label(l))
    if p == 0:
        l = gcd(q, r)
        return CentralizerReport("Case3", abs(q), 0, q // abs(q), 0, l, _ng_label(l))
    k = gcd(p, q)
    p_prime, q_prime = p // k, q // k
    s_k = p_prime * q_prime * k * (k - 1) // 2
    l = gcd(k, r - s_k)
    return CentralizerReport("Case1", k, p_prime, q_prime, s_k, l, _ng_label(l))


def centralizer_membership(g: GroupElement, h) -> bool | np.ndarray:
    """Closed-form membership predicate for the centralizer of g, at the
    exponent triple h.

    For central g both sides are 0.  Works elementwise when h's fields are
    arrays, as for ``box_points``.
    """
    p, q, _ = h
    return g.q * p == q * g.p


def conjugacy_representative(g: GroupElement) -> GroupElement:
    """Canonical representative (p, q, r mod gcd(p, q)); central elements
    are singleton classes."""
    if g.is_central():
        return g
    k = gcd(g.p, g.q)
    return GroupElement(g.p, g.q, g.r % k)


def box_points(box: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (p, q, r) in [-box, box]^3 as three int64 arrays p, q and r,
    in lexicographic (p, q, r) order."""
    import numpy as np

    span = np.arange(-box, box + 1, dtype=np.int64)
    p, q, r = np.meshgrid(span, span, span, indexing="ij")
    return p.ravel(), q.ravel(), r.ravel()


def brute_force_centralizer(g: GroupElement, box: int) -> np.ndarray:
    """Boolean mask over ``box_points(box)``: True where h commutes with g.

    The group law is evaluated once on the whole box, given as one
    broadcast grid (the span of p, q and r along axes 0, 1 and 2): g*h and
    h*g are triples of arrays, compared field by field, and the mask is
    raveled in ``box_points`` order.
    """
    import numpy as np

    if box > 12:
        raise ValueError("box larger than 12 is not supported")
    if any(abs(c) >= _MAX_BRUTE_FORCE_COORDINATE for c in g.as_tuple()):
        raise ValueError("coordinates of g must be below 2**31 in absolute value")
    span = np.arange(-box, box + 1, dtype=np.int64)
    h = span[:, None, None], span[None, :, None], span[None, None, :]
    gh, hg = group_product(g.as_tuple(), h), group_product(h, g.as_tuple())
    return ((gh[0] == hg[0]) & (gh[1] == hg[1]) & (gh[2] == hg[2])).ravel()


# The torsion is read as an ASCII digit string, never through int(): only
# whether it is 0 or 1 matters, whatever its length.
_ZXZL = re.compile(r"ZxZl\(([0-9]+)\)")
_CEXT = re.compile(r"CentralExtension\(([0-9]+)\)")


def group_cohomology(t: str) -> CohomologyProfile:
    """Complex-coefficient group cohomology profile of a supported type.

    Supported descriptors: "Z", "Z2", "ZxZl(l)", "CentralExtension(m)", "H3".
    Trailing zeros are truncated from the profile.  Any other descriptor
    raises UnsupportedInput.
    """
    if t == "Z":
        return CohomologyProfile((1, 1))
    if t == "Z2":
        return CohomologyProfile((1, 2, 1))
    if t == "H3":
        return CohomologyProfile((1, 2, 2, 1))
    m = _ZXZL.fullmatch(t)
    if m:
        if m.group(1).lstrip("0") == "":
            raise UnsupportedInput("ZxZl torsion must be >= 1")
        # The torsion factor is invisible over the complex numbers, so the
        # profile agrees with that of Z for every l >= 1.
        return CohomologyProfile((1, 1))
    m = _CEXT.fullmatch(t)
    if m:
        if m.group(1).lstrip("0") in ("", "1"):
            raise UnsupportedInput("central extension torsion must be >= 2")
        # Rank-2 central extension of Z^2 by Z with torsion quotient: the
        # spectral sequence collapses and the dimensions match those of Z^2.
        return CohomologyProfile((1, 2, 1))
    raise UnsupportedInput(f"unsupported group descriptor: {t!r}")


H3_PROFILE = group_cohomology("H3")


def cyclic_cohomology_dim(n: int) -> CyclicDimReport:
    """Dimension data for the degree-n cyclic cohomology of the group ring.

    The identity conjugacy class contributes the direct sum of H^{n-2j}(H3)
    over j >= 0, giving finite ranks 1, 2, 3, 3, 3, ...  The countably many
    infinite-order classes contribute a product of lines exactly in degrees
    n <= 2, since their quotient groups have cohomological dimension <= 2.
    A negative n raises UnsupportedInput.
    """
    if n < 0:
        raise UnsupportedInput("degree must be nonnegative")
    # the degrees n - 2j that carry group cohomology: k <= n, n - k even
    rank = sum(dim for k, dim in enumerate(H3_PROFILE.dims)
               if k <= n and (n - k) % 2 == 0)
    return CyclicDimReport(degree=n, finite_rank=rank, countable_factor=n <= 2)


def periodic_cyclic_dims() -> tuple[int, int]:
    """Even and odd periodic cyclic cohomology dimensions (stabilized ranks)."""
    return (
        cyclic_cohomology_dim(10).finite_rank,
        cyclic_cohomology_dim(11).finite_rank,
    )
