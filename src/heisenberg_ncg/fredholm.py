"""Fredholm modules, their index pairings and trace pairings.

Odd modules live on l2(Z) with the symmetry F = sign(n).  Each acts on one
generator by the shift S and sends the others to 1, a character chi onto
C(T): a k x k block element x has the symbol pi(x) = sum_s B_s S^s, one
exact k x k block per shift power s, and pi(x*) = sum_s B_s* S^(-s).  The
pairing with a unitary u is the winding number of chi(u), the cyclic
1-cocycle value sum_s s ||B_s||_F^2 (Connes 1985), exact in
``odd_cocycle_pairing``.  Its K-homology cross-check ``odd_pairing``
compresses both to the nonnegative half line and counts kernel dimensions
by SVD, a real one when the symbol is real.
A square truncation of a Toeplitz operator always has matrix index zero,
so the compressions are rectangular: domain [0, N], range
[0, N + band + 2].  That index must agree on the three windows N, 2N and
4N that ``odd_windows`` reads off the unitary: N = max(32, band + 2), so
the smallest window sees the whole kernel.

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
from typing import TYPE_CHECKING, Sequence, Union

from .algebra import GR_ZERO, AlgebraElement, GaussianRational

if TYPE_CHECKING:
    import numpy as np

# Singular values at or below this count towards a kernel dimension.
KERNEL_TOL = 1e-8
# The smallest stabilization window.
MIN_WINDOW = 32
# Largest k * 2N for the middle window 2N and a k x k block unitary: at
# k * 2N = 1792 the dense compressions took 568 MB of measured peak RSS for
# a real symbol (~185 (k*2N)^2 B) and 655 MB for a complex one.
MAX_BLOCK_TRUNCATION = 1800

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


def _as_blocks(x: MatrixElement) -> list[list[AlgebraElement]]:
    if isinstance(x, AlgebraElement):
        return [[x]]
    return [list(row) for row in x]


def _star_blocks(blocks: list[list[AlgebraElement]]) -> list[list[AlgebraElement]]:
    """The star of a block matrix: transpose, and star every entry."""
    return [[row[i].star() for row in blocks] for i in range(len(blocks[0]))]


def _block_product(
    a: list[list[AlgebraElement]], b: list[list[AlgebraElement]]
) -> list[list[AlgebraElement]]:
    return [
        [sum((row[t] * b[t][j] for t in range(len(b))), AlgebraElement.zero())
         for j in range(len(b[0]))]
        for row in a
    ]


class OutsideModuleError(ValueError):
    """An element outside the algebra that an odd module represents."""


def _symbol(name: str, x: MatrixElement) -> dict[int, list[list[GaussianRational]]]:
    """Symbol of pi(x) on the odd module ``name``: shift power -> exact
    k x k block.  The zero power is always present, so an empty symbol
    still has its block size.

    A monomial U^p V^q W^r acts as the shift to the power of the module's
    shift exponent.  w1prime represents only C*(U, W): VU = WUV would force
    W = 1, so a term with a V exponent is rejected there.
    """
    if name not in _ODD_SHIFT_GEN:
        raise ValueError(f"{name!r} is not an odd module")
    axis = "UVW".index(_ODD_SHIFT_GEN[name])
    blocks = _as_blocks(x)
    k = len(blocks)
    out = {0: [[GR_ZERO] * k for _ in range(k)]}
    for i, row in enumerate(blocks):
        for j, e in enumerate(row):
            for key, c in e.terms.items():
                if name == "w1prime" and key[1]:
                    raise OutsideModuleError(
                        "module w1prime represents only C*(U, W); the term "
                        "U^{} V^{} W^{} has a V exponent".format(*key))
                out.setdefault(key[axis], [[GR_ZERO] * k for _ in range(k)])[i][j] += c
    return out


def _compress(symbol: dict, rows: int, cols: int) -> np.ndarray:
    """sum_s B_s S^s compressed to range [0, rows), domain [0, cols), as a
    (k rows) x (k cols) complex block matrix.

    S is the co-shift matrix e_n -> e_{n-1}, so S^s has ones on the s-th
    superdiagonal: (S^s)[i, j] = 1 iff i = j - s.  Each block is written
    along its diagonal of one (k, rows, k, cols) array.
    """
    import numpy as np
    k = len(symbol[0])
    m = np.zeros((k, rows, k, cols), dtype=complex)
    for s, block in symbol.items():
        j = np.arange(max(0, s), min(cols, rows + s))
        m[:, j - s, :, j] = [[c.to_complex() for c in row] for row in block]
    return m.reshape(k * rows, k * cols)


def build_representation(
    name: str, x: MatrixElement, truncation: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular half-line compressions of pi(x) and pi(x*) on the odd
    module ``name``, as the pair (entries, star_entries).

    The domain window is [0, truncation] and the range window exceeds it
    by the band width of the symbol plus two; ``odd_windows`` gives the
    truncations that see the whole kernel.  The adjoint side compresses
    sum_s B_s* S^(-s) on the same shape, so it is not the matrix adjoint
    of ``entries``: compressions do not commute with adjoints on the nose.
    """
    symbol = _symbol(name, x)
    rows, cols = truncation + 1 + max(map(abs, symbol)) + 2, truncation + 1
    adjoint = {-s: [[row[i].conjugate() for row in block] for i in range(len(block))]
               for s, block in symbol.items()}
    return _compress(symbol, rows, cols), _compress(adjoint, rows, cols)


def _kernel_dim(m: np.ndarray) -> int:
    import numpy as np
    # a real matrix has the same singular values over R as over C, and the
    # real SVD takes about a quarter of the complex one's flops
    sv = np.linalg.svd(m if m.imag.any() else m.real, compute_uv=False)
    cols = m.shape[1]
    return int(cols - np.count_nonzero(sv > KERNEL_TOL))


def _check_unitary(x: MatrixElement) -> None:
    blocks = _as_blocks(x)
    k = len(blocks)
    identity = [
        [AlgebraElement.one() if i == j else AlgebraElement.zero() for j in range(k)]
        for i in range(k)
    ]
    if _block_product(blocks, _star_blocks(blocks)) != identity:
        raise ValueError("input is not unitary in the group ring")


def odd_windows(name: str, u: MatrixElement) -> tuple[int, int, int]:
    """The stabilization windows (N, 2N, 4N), N = max(32, band + 2), of the
    pairing of the odd module ``name`` with ``u``.

    Raises ValueError, naming the bound, if k * 2N exceeds
    ``MAX_BLOCK_TRUNCATION`` for a k x k block unitary.
    """
    symbol = _symbol(name, u)
    k, band = len(symbol[0]), max(map(abs, symbol))
    n = max(MIN_WINDOW, band + 2)
    if k * 2 * n > MAX_BLOCK_TRUNCATION:
        raise ValueError(f"{k} * {2 * n} exceeds {MAX_BLOCK_TRUNCATION}: a {k}x{k} block "
                         f"unitary is too large for the windows {[n, 2 * n, 4 * n]}")
    return n, 2 * n, 4 * n


def odd_pairing(name: str, u: MatrixElement) -> int:
    """Index pairing of an odd module with a unitary (or matrix unitary),
    dim ker - dim ker* of its compressions, equal on every window of
    ``odd_windows`` (else ArithmeticError): the K-homology cross-check of
    ``odd_cocycle_pairing``.

    ``MAX_BLOCK_TRUNCATION`` bounds its memory, not its time: a 28 x 28
    identity on ``z1`` (k * 2N = 1792) takes ~25 s and ~570 MB of peak RSS
    on a 2-core Xeon, for an index of 0."""
    windows = odd_windows(name, u)
    _check_unitary(u)
    values = [_kernel_dim(m) - _kernel_dim(m_star)
              for m, m_star in (build_representation(name, u, n) for n in windows)]
    if len(set(values)) != 1:
        raise ArithmeticError(f"index did not stabilize across windows {list(windows)}: "
                              f"{values}")
    return values[0]


def odd_cocycle_pairing(name: str, u: MatrixElement) -> int:
    """Index pairing of an odd module with a unitary (or matrix unitary):
    the winding number sum_s s ||B_s||_F^2 of its symbol, an exact integer
    (else ArithmeticError).  An element outside the module's algebra raises
    OutsideModuleError before the unitarity check's ValueError."""
    symbol = _symbol(name, u)
    _check_unitary(u)
    total = sum((s * (c.re ** 2 + c.im ** 2)
                 for s, block in symbol.items() for row in block for c in row),
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
    blocks, which commute with F, so the pairing vanishes.
    """
    blocks = _as_blocks(p)

    # exact projection check (p = p* = p^2) in the group ring
    if blocks != _star_blocks(blocks) or blocks != _block_product(blocks, blocks):
        raise ValueError("input is not a projection in the group ring")

    if name in _EVEN_SCALAR:
        trace = sum((c for i, row in enumerate(blocks) for c in row[i].terms.values()),
                    GaussianRational())
        return int(trace.re)

    if name in _EVEN_GRADED:
        # A projection whose blocks are scalars (support at the origin) is
        # constant across the lattice and commutes with the diagonal phase
        # operator.
        if any(e.support() not in ([], [(0, 0, 0)]) for row in blocks for e in row):
            raise ValueError(
                "graded-module trace route only covers projections with scalar "
                "blocks; a nonconstant projection in the group ring has no route "
                "here (chern.dirac_even_pairing takes a sampled projector field)")
        return 0

    raise ValueError(f"{name!r} is not an even module")
