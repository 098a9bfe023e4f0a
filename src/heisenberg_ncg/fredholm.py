"""Fredholm modules, their index pairings and trace pairings.

Odd modules live on l2(Z) with the symmetry F = sign(n).  Each acts on one
generator by the shift S and sends the others to 1, a character chi onto
C(T): a k x k block element x has the symbol pi(x) = sum_s B_s S^s, kept
as its nonzero exact entries (i, j, s) -> (B_s)_ij with no dense block per
shift power s, and pi(x*) = sum_s B_s* S^(-s).  The pairing with a unitary
u is the index of T_u = P u P, P the projection onto the half line n >= 0,
computed exactly two ways: ``odd_cocycle_pairing`` reads it as the cyclic
1-cocycle value sum_s s ||B_s||_F^2 (Connes 1985), and ``odd_pairing``, its
K-homology cross-check, as dim ker T_u - dim ker T_u*.

Both kernels lie in a finite window.  For the band b = max |s|, T_u* T_u =
1 - X* X with X = (1 - P) u P, which vanishes on span[b, oo) (x) C^k.  So
ker T_u, where f = X* X f, lies in (ker X)^perp, inside span[0, b) (x) C^k,
and so does ker T_u* = ker T_(u*).  T_u maps that window into span[0, 2b)
(x) C^k; with C(x) the (2b k) x (b k) compression between the two, the
index is rank C(u*) - rank C(u), each rank exact over Q(i) (Gohberg & Krein,
"Systems of integral equations on a half line", AMS Transl. 14 (1960);
Boettcher & Silbermann, "Analysis of Toeplitz Operators", ch. 2 and 6).

Shift convention: "the shift" S is the operator (S xi)(n) = xi(n+1), whose
matrix moves e_n to e_{n-1}.  With this convention the compression of S to
the half line has a one-dimensional kernel (e_0) while its star is
injective, so Index(ESE) = +1, matching the index values all the module
pairings below are normalized to.

Even modules over the scalar representation psi (every generator to 1)
live on C^2 (doubled per matrix ampliation), and their trace formula
-Tr(gamma pi(p) [F, pi(p)]^2) equals Tr psi(p)^3 = Tr psi(p): the rank of
the Gaussian-rational projection psi(p), computed exactly.  Of the
two-dimensional graded modules (the torus Dirac phase operator and the
boundary image of the first odd torus module share one representation),
only projections with scalar blocks pair here; the Dirac pairing of a
sampled projector field is in the companion module ``chern``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .algebra import (
    GR_ZERO,
    AlgebraElement,
    GaussianRational,
    UnsupportedInput,
    check_term_products,
)

# Largest b k, the dimension of the window span[0, b) (x) C^k.  Elimination
# there grows like (b k)^3 times the cost of coefficients whose digits grow
# along it: at b k = 64, (diag(U, 1) [[3/5, -4/5], [4/5, 3/5]])^32 took
# 0.7 s on a 2-core Xeon, 1.2 s with 119/169 and 120/169, and 2.7 s at 96.
MAX_WINDOW = 64

# Generator actions for the odd l2(Z) modules: which generators act by the
# shift; all others act by the identity.
_ODD_SHIFT_GEN: dict[str, str] = {
    "z1": "U",
    "z1prime": "V",
    "w1": "U",
    "w1prime": "W",
    "del0_w0": "V",
}

_EVEN_SCALAR = {"z0", "w0"}
_EVEN_GRADED = {"dirac_T2", "del1_w1"}


MatrixElement = Union[AlgebraElement, Sequence[Sequence[AlgebraElement]]]
Matrix = list[list[GaussianRational]]


def _as_blocks(x: MatrixElement) -> list[list[AlgebraElement]]:
    """x as a k x k list of rows; any other shape raises UnsupportedInput
    naming it (a non-square u with u u* = 1 is no unitary)."""
    if isinstance(x, AlgebraElement):
        return [[x]]
    blocks = [list(row) for row in x]
    lengths = [len(row) for row in blocks]
    if not blocks or lengths != [len(blocks)] * len(blocks):
        raise UnsupportedInput("a block matrix must be a nonempty square list of rows; "
                               f"this one has rows of lengths {lengths}")
    return blocks


def _star_blocks(blocks: list[list[AlgebraElement]]) -> list[list[AlgebraElement]]:
    """The star of a block matrix: transpose, and star every entry."""
    return [[row[i].star() for row in blocks] for i in range(len(blocks[0]))]


def _block_product(
    a: list[list[AlgebraElement]], b: list[list[AlgebraElement]]
) -> list[list[AlgebraElement]]:
    """a b, refused before any ring product past MAX_TERM_PRODUCTS: column t
    of a times row t of b, summed over t (sum_t c_t^2 for u u*).  Only pairs
    of nonzero entries are visited, so past the k^2 zero tests the work is
    bounded by the term products counted."""
    check_term_products(sum(sum(len(row[t]._terms) for row in a)
                            * sum(len(e._terms) for e in b[t]) for t in range(len(b))))
    nonzero = [[(j, e) for j, e in enumerate(row) if not e.is_zero()] for row in b]
    out = [[AlgebraElement.zero()] * len(b[0]) for _ in a]
    for row, out_row in zip(a, out):
        for x, pairs in zip(row, nonzero):
            if not x.is_zero():
                for j, y in pairs:
                    out_row[j] += x * y
    return out


class OutsideModuleError(UnsupportedInput):
    """An element outside the algebra that an odd module represents."""


Symbol = dict[tuple[int, int, int], GaussianRational]


def _symbol(name: str, x: MatrixElement) -> tuple[int, Symbol]:
    """Symbol of pi(x) on the odd module ``name``: the block size k and the
    nonzero entries {(i, j, s): (B_s)_ij}, coefficients summed per shift
    power s.

    A monomial U^p V^q W^r acts as the shift to the power of the module's
    shift exponent.  w1prime represents only C*(U, W): VU = WUV would force
    W = 1, so a term with a V exponent is rejected there.  Any other name
    than an odd module's raises UnsupportedInput.
    """
    if name not in _ODD_SHIFT_GEN:
        raise UnsupportedInput(f"{name!r} is not an odd module")
    axis = "UVW".index(_ODD_SHIFT_GEN[name])
    blocks = _as_blocks(x)
    out: Symbol = {}
    for i, row in enumerate(blocks):
        for j, e in enumerate(row):
            for key, c in e.terms.items():
                if name == "w1prime" and key[1]:
                    raise OutsideModuleError(
                        "module w1prime represents only C*(U, W); the term "
                        "U^{} V^{} W^{} has a V exponent".format(*key))
                at = (i, j, key[axis])
                out[at] = out.get(at, GR_ZERO) + c
    return len(blocks), {at: c for at, c in out.items() if not c.is_zero()}


def _compress(k: int, symbol: Symbol, band: int) -> Matrix:
    """sum_s B_s S^s compressed from domain [0, band) to range [0, 2 band),
    as rows: block (i, j) is B_(j - i), since S, the co-shift matrix
    e_n -> e_(n-1), has (S^s)[i, j] = 1 iff i = j - s."""
    return [[symbol.get((a, c, j - i), GR_ZERO) for j in range(band) for c in range(k)]
            for i in range(2 * band) for a in range(k)]


def build_representation(name: str, x: MatrixElement) -> tuple[Matrix, Matrix]:
    """Half-line compressions of pi(x) and pi(x*) on the odd module
    ``name``, as the pair (entries, star_entries), from the window [0, b)
    of the band b to [0, 2b).  The adjoint side compresses
    sum_s B_s* S^(-s), not the matrix adjoint of ``entries``.  Raises
    ValueError, naming the bound, if b k exceeds ``MAX_WINDOW``."""
    k, symbol = _symbol(name, x)
    band = max((abs(s) for _, _, s in symbol), default=0)
    if band * k > MAX_WINDOW:
        raise ValueError(f"a {k}x{k} block unitary of band {band} has a kernel window of "
                         f"dimension {band * k}, over the limit of {MAX_WINDOW}")
    adjoint = {(j, i, -s): c.conjugate() for (i, j, s), c in symbol.items()}
    return _compress(k, symbol, band), _compress(k, adjoint, band)


def _rank(m: Matrix) -> int:
    """Rank over Q(i) by Gaussian elimination, column by column: a column
    with no nonzero entry is dropped; otherwise the first row with one is
    the pivot, scaled to lead with 1 and cleared from the other rows."""
    m, rank = list(m), 0
    while m and m[0]:
        i = next((i for i, row in enumerate(m) if not row[0].is_zero()), None)
        if i is None:
            m = [row[1:] for row in m]
            continue
        pivot = m.pop(i)
        c = pivot[0]
        norm = c.re ** 2 + c.im ** 2
        inverse = GaussianRational(c.re / norm, -c.im / norm)
        tail = [x * inverse for x in pivot[1:]]
        m = [[x - row[0] * y for x, y in zip(row[1:], tail)] if not row[0].is_zero()
             else row[1:] for row in m]
        rank += 1
    return rank


def _check_unitary(x: MatrixElement) -> None:
    blocks = _as_blocks(x)
    k = len(blocks)
    identity = [
        [AlgebraElement.one() if i == j else AlgebraElement.zero() for j in range(k)]
        for i in range(k)
    ]
    if _block_product(blocks, _star_blocks(blocks)) != identity:
        raise ValueError("input is not unitary in the group ring")


class KernelDims(NamedTuple):
    """dim ker T_u and dim ker T_u* of a Toeplitz operator T_u."""

    dim_ker: int
    dim_ker_star: int

    @property
    def index(self) -> int:
        return self.dim_ker - self.dim_ker_star


def odd_pairing(name: str, u: MatrixElement) -> KernelDims:
    """Index pairing of an odd module with a unitary (or matrix unitary) as
    the kernel dimensions of T_u and T_u*, each the width b k of the window
    of ``build_representation`` minus a compression's rank; ``.index`` is
    their difference."""
    entries, star_entries = build_representation(name, u)
    _check_unitary(u)
    width = len(entries[0]) if entries else 0
    return KernelDims(width - _rank(entries), width - _rank(star_entries))


def odd_cocycle_pairing(name: str, u: MatrixElement) -> int:
    """Index pairing of an odd module with a unitary (or matrix unitary):
    the winding number sum_s s ||B_s||_F^2 of its symbol, an exact integer
    (else ArithmeticError).  An element outside the module's algebra raises
    OutsideModuleError before the unitarity check's ValueError."""
    _, symbol = _symbol(name, u)
    _check_unitary(u)
    total = sum((s * (c.re ** 2 + c.im ** 2) for (_, _, s), c in symbol.items()),
                Fraction(0))
    if total.denominator != 1:
        raise ArithmeticError(f"winding number {total} of a unitary is not an integer")
    return int(total)


def even_pairing_trace(name: str, p: MatrixElement) -> int:
    """Trace-formula pairing of an even module with a (matrix) projection.

    For z0 and w0 the representation is psi + 0 on C^2 (psi sends every
    generator to 1), amplified over matrix entries, and
    -Tr(gamma pi(p) [F, pi(p)]^2) = Tr psi(p)^3 = Tr psi(p): psi is a
    *-homomorphism, so psi(p) is a Gaussian-rational projection whose
    trace, the sum of the diagonal blocks' coefficients, is exact.  The
    graded modules (dirac_T2, del1_w1) accept only projections with scalar
    blocks, which commute with F, so the pairing vanishes.  Any other name
    raises UnsupportedInput before any work.
    """
    if name not in _EVEN_SCALAR | _EVEN_GRADED:
        raise UnsupportedInput(f"{name!r} is not an even module")
    blocks = _as_blocks(p)

    # exact projection check (p = p* = p^2) in the group ring
    if blocks != _star_blocks(blocks) or blocks != _block_product(blocks, blocks):
        raise ValueError("input is not a projection in the group ring")

    if name in _EVEN_SCALAR:
        trace = sum((c for i, row in enumerate(blocks) for c in row[i].terms.values()),
                    GaussianRational())
        return int(trace.re)

    # A graded module: a projection whose blocks are scalars (support at the
    # origin) is constant across the lattice and commutes with the diagonal
    # phase operator.
    if any(e.support() not in ([], [(0, 0, 0)]) for row in blocks for e in row):
        raise ValueError(
            "graded-module trace route only covers projections with scalar "
            "blocks; a nonconstant projection in the group ring has no route "
            "here (chern.dirac_even_pairing takes a sampled projector field)")
    return 0
