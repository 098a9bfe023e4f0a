"""The discrete Heisenberg group H3 on exponent triples.

H3 is generated by U, V, W subject to VU = WUV with W central.  Every
element has a unique normal form U^p V^q W^r, so the group is modelled by
exponent triples (p, q, r) with the multiplication law

    (p1, q1, r1) * (p2, q2, r2) = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2).

This module holds that law and nothing of the group ring C[H3] built on
it in ``algebra``, so the group commands run without the ring.
"""

from __future__ import annotations

import numbers

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
    triples whose fields are ints, or int arrays that broadcast together,
    taken elementwise."""
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
