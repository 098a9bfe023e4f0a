"""Fredholm modules as finite matrix truncations, indices and trace pairings.

Odd modules live on l2(Z) with the symmetry F = sign(n).  Index pairings
compress the represented unitary to the nonnegative half line and count
kernel dimensions.  A square truncation of a Toeplitz operator always has
matrix index zero, so the compressions used here are rectangular: the
domain window is [0, N] and the range window [0, N + band + 2], wider
than the domain by more than the band width of the operator.  The adjoint side is the
compression of the represented star of the unitary on the same shape.
An index must agree on the three windows N = max(T // 2, 16), T and 2T
of one truncation T; ``odd_windows`` is that rule.

Shift convention: "the shift" S is the operator (S xi)(n) = xi(n+1), whose
matrix moves e_n to e_{n-1}.  With this convention the compression of S to
the half line has a one-dimensional kernel (e_0) while its star is
injective, so Index(ESE) = +1, matching the index values all the module
pairings below are normalized to.

Even modules over the scalar representation live on C^2 (doubled per
matrix ampliation) and their pairings are evaluated by the finite trace
formula (-1)^n Tr(gamma pi(p) [F, pi(p)]^{2n}), which is exact there.
The two-dimensional graded modules (the torus Dirac phase operator and the
boundary image of the first odd torus module share one representation) are
handled in the companion module that evaluates Dirac pairings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .algebra import AlgebraElement

# Singular values at or below this count towards a kernel dimension.
KERNEL_TOL = 1e-8
# The smallest stabilization window.
MIN_WINDOW = 16
# Largest k * T for truncation T and a k x k block unitary: the dense
# compressions take ~260 (k*T)^2 B of measured peak RSS, near 1 GB here.
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


@dataclass(frozen=True)
class TruncatedOperator:
    """A finite compression of a represented element.

    ``entries`` is the (range x domain) matrix of the operator and
    ``star_entries`` the compression of the represented star on the same
    shape (not the matrix adjoint: compressions do not commute with
    adjoints on the nose).
    """

    entries: np.ndarray
    star_entries: np.ndarray


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


def _odd_symbol(gen: str, x: AlgebraElement) -> dict[int, complex]:
    """Laurent symbol of pi(x) on l2(Z): mapping shift power -> coefficient.

    The distinguished generator ``gen`` acts by the shift, the others by
    the identity, so a monomial U^p V^q W^r acts as the shift to the power
    of the distinguished exponent.
    """
    out: dict[int, complex] = {}
    for (p, q, r), c in x.terms.items():
        k = {"U": p, "V": q, "W": r}[gen]
        out[k] = out.get(k, 0j) + c.to_complex()
    return out


def _symbols(name: str, x: MatrixElement):
    """Block symbols of pi(x) and of pi(x*) on the odd module ``name``, and
    the band width: the largest shift power in either."""
    if name not in _ODD_SHIFT_GEN:
        raise ValueError(f"{name!r} is not an odd module")
    gen = _ODD_SHIFT_GEN[name]
    blocks = _as_blocks(x)
    symbols = [[_odd_symbol(gen, e) for e in row] for row in blocks]
    star_symbols = [[_odd_symbol(gen, e) for e in row] for row in _star_blocks(blocks)]
    band = max((abs(k) for row in symbols + star_symbols for s in row for k in s),
               default=0)
    return symbols, star_symbols, band


def _laurent_matrix(symbol: dict[int, complex], rows: int, cols: int) -> np.ndarray:
    """Matrix of sum_k c_k S^k compressed to range [0, rows), domain [0, cols).

    S is the co-shift matrix e_n -> e_{n-1}, so S^k has ones on the k-th
    superdiagonal: (S^k)[i, j] = 1 iff i = j - k.
    """
    m = np.zeros((rows, cols), dtype=complex)
    for k, c in symbol.items():
        for j in range(max(0, k), min(cols, rows + k)):
            m[j - k, j] += c
    return m


def build_representation(name: str, x: MatrixElement, truncation: int) -> TruncatedOperator:
    """Rectangular half-line compression of pi(x) on the odd module ``name``.

    For block-matrix arguments the blocks are assembled diagonally per
    entry.  The domain window is [0, truncation] and the range window
    exceeds it by the band width of the symbol plus two; ``odd_windows``
    says which truncations give a faithful compression.
    """
    symbols, star_symbols, band = _symbols(name, x)
    n_dom = truncation + 1
    n_rng = truncation + 1 + band + 2

    def assemble(sym):
        brows = []
        for row in sym:
            brows.append([_laurent_matrix(s, n_rng, n_dom) for s in row])
        return np.block(brows)

    return TruncatedOperator(entries=assemble(symbols), star_entries=assemble(star_symbols))


def _kernel_dim(m: np.ndarray) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    cols = m.shape[1]
    return int(cols - np.count_nonzero(sv > KERNEL_TOL))


def fredholm_index(ops: Sequence[TruncatedOperator]) -> int:
    """dim ker T - dim ker T* with a stabilization certificate.

    Every supplied truncation must report the same kernel dimensions;
    otherwise the computation is rejected as non-stabilized.
    """
    if len(ops) < 2:
        raise ValueError("need at least two truncation sizes for stabilization")
    values = [_kernel_dim(op.entries) - _kernel_dim(op.star_entries) for op in ops]
    if len(set(values)) != 1:
        raise ArithmeticError(f"index did not stabilize across truncations: {values}")
    return values[0]


def _check_unitary(x: MatrixElement) -> None:
    blocks = _as_blocks(x)
    k = len(blocks)
    identity = [
        [AlgebraElement.one() if i == j else AlgebraElement.zero() for j in range(k)]
        for i in range(k)
    ]
    if _block_product(blocks, _star_blocks(blocks)) != identity:
        raise ValueError("input is not unitary in the group ring")


def odd_windows(name: str, u: MatrixElement, truncation: int) -> tuple[int, int, int]:
    """The stabilization windows (max(T // 2, 16), T, 2T) of truncation T
    for the pairing of the odd module ``name`` with ``u``.

    Raises ValueError, naming the bound, unless the three windows are
    distinct, the smallest is at least the band width of u plus two (so
    the compression sees the whole kernel), and k * T is at most
    ``MAX_BLOCK_TRUNCATION`` for a k x k block unitary.
    """
    symbols, _, band = _symbols(name, u)
    k = len(symbols)
    if k * truncation > MAX_BLOCK_TRUNCATION:
        raise ValueError(f"truncation {truncation} exceeds {MAX_BLOCK_TRUNCATION // k}"
                         f" for a {k}x{k} block unitary")
    windows = (max(truncation // 2, MIN_WINDOW), truncation, 2 * truncation)
    # MIN_WINDOW + 1 is the least T with three distinct windows; a band
    # with band + 2 > MIN_WINDOW needs T // 2 >= band + 2 on top of that.
    least = MIN_WINDOW + 1 if band + 2 <= MIN_WINDOW else 2 * (band + 2)
    if truncation < least:
        raise ValueError(
            f"truncation {truncation} must be at least {least}: the windows "
            f"{list(windows)} must be distinct, and the smallest at least "
            f"{band + 2} (the unitary's band width {band} plus 2)")
    return windows


def odd_pairing(name: str, u: MatrixElement, truncation: int = 64) -> int:
    """Index pairing of an odd module with a unitary (or matrix unitary),
    stabilized over the windows ``odd_windows`` gives for ``truncation``."""
    _check_unitary(u)
    windows = odd_windows(name, u, truncation)
    return fredholm_index([build_representation(name, u, n) for n in windows])


def even_pairing_trace(name: str, p: MatrixElement) -> int:
    """Trace-formula pairing for the scalar even modules (z0, w0).

    The representation is psi + 0 on C^2 with psi killing all generator
    exponents (every generator maps to 1), amplified over matrix entries.
    The formula (-1)^n Tr(gamma pi(p) [F, pi(p)]^{2n}), evaluated at
    n = 1, is exact on this finite-dimensional space.  For the graded
    two-dimensional modules use the Dirac evaluation engine; the only
    projections this routine accepts there are those commuting with F, for
    which the pairing vanishes.
    """
    blocks = _as_blocks(p)
    k = len(blocks)

    # exact projection check (p = p* = p^2) in the group ring
    if blocks != _star_blocks(blocks) or blocks != _block_product(blocks, blocks):
        raise ValueError("input is not a projection in the group ring")

    def scalar(e: AlgebraElement) -> complex:
        return sum(c.to_complex() for c in e.terms.values())

    psi = np.array([[scalar(blocks[i][j]) for j in range(k)] for i in range(k)])

    if name in _EVEN_SCALAR:
        dim = 2 * k
        pi_p = np.zeros((dim, dim), dtype=complex)
        pi_p[:k, :k] = psi
        F = np.block([
            [np.zeros((k, k)), np.eye(k)],
            [np.eye(k), np.zeros((k, k))],
        ]).astype(complex)
        gamma = np.block([
            [np.eye(k), np.zeros((k, k))],
            [np.zeros((k, k)), -np.eye(k)],
        ]).astype(complex)
        comm = F @ pi_p - pi_p @ F
        val = -np.trace(gamma @ pi_p @ (comm @ comm))
        out = float(np.real(val))
        if abs(out - round(out)) > 1e-9:
            raise ArithmeticError("trace pairing did not evaluate to an integer")
        return int(round(out))

    if name in _EVEN_GRADED:
        # The graded torus modules: a projection whose represented matrix
        # is constant across the lattice commutes with the diagonal phase
        # operator, so the pairing vanishes identically.  Constant here
        # means every block is a scalar multiple of the identity of the
        # ring (Fourier support at the origin after the symbol map).
        for i in range(k):
            for j in range(k):
                supp = blocks[i][j].support()
                if supp and supp != [(0, 0, 0)]:
                    raise ValueError(
                        "graded-module trace route only covers projections "
                        "commuting with the symmetry; use the Dirac engine "
                        "for nonconstant projector fields"
                    )
        return 0

    raise ValueError(f"{name!r} is not an even module")

