"""Exact integer linear algebra: Smith-style diagonalization over Z.

Provides kernel bases, integer image membership and lattice comparison for
integer matrices, which is what exactness checking of six-term sequences
needs.  All matrices use numpy object dtype so arithmetic stays exact for
arbitrarily large intermediate entries.
"""

from __future__ import annotations

import numpy as np


def as_int_matrix(rows) -> np.ndarray:
    a = np.array(rows, dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a 2-D integer matrix")
    return a


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_x, x = x, old_x - qq * x
        old_y, y = y, old_y - qq * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _eliminate(D: np.ndarray, T: np.ndarray, i: int) -> bool:
    """Clear D[j, i] for every j > i by unimodular row operations on D,
    repeated on T; returns whether any row changed."""
    changed = False
    for j in range(i + 1, D.shape[0]):
        a, b = D[i, i], D[j, i]
        if b == 0:
            continue
        if a != 0 and b % a == 0:
            # row j -= (b // a) * row i
            x, y, u, v = 1, 0, 1, b // a
        else:
            g, x, y = _exgcd(int(a), int(b))
            u, v = int(a) // g, int(b) // g
        for M in (D, T):
            mi, mj = M[i].copy(), M[j].copy()
            M[i] = x * mi + y * mj
            M[j] = -v * mi + u * mj
        changed = True
    return changed


def smith_diagonalize(A: np.ndarray):
    """Diagonalize A over Z with unimodular transforms.

    Returns (L, D, R) with D = L @ A @ R diagonal (not necessarily with
    divisibility along the diagonal, which the lattice computations here do
    not need), and L, R unimodular.  Column i is cleared below the diagonal
    by row operations on (D, L), and row i right of it by the same row
    operations on the transposed views (D.T, R.T), until both stay clear.
    """
    A = as_int_matrix(A)
    m, n = A.shape
    D = A.copy()
    L = np.eye(m, dtype=object)
    R = np.eye(n, dtype=object)
    for i in range(min(m, n)):
        while True:
            c1 = _eliminate(D, L, i)
            c2 = _eliminate(D.T, R.T, i)
            if not (c1 or c2):
                break
    return L, D, R


def kernel_basis(A: np.ndarray) -> np.ndarray:
    """Columns form a Z-basis of the integer kernel of A."""
    A = as_int_matrix(A)
    _, D, R = smith_diagonalize(A)
    m, n = A.shape
    cols = [j for j in range(n) if j >= m or D[j, j] == 0]
    if not cols:
        return np.zeros((n, 0), dtype=object)
    return R[:, cols]


def solve_in_image(A: np.ndarray, x) -> bool:
    """Whether x is in the integer column span of A."""
    A = as_int_matrix(A)
    x = np.array(x, dtype=object).reshape(-1)
    L, D, _ = smith_diagonalize(A)
    y = L @ x
    m, n = A.shape
    for i in range(m):
        d = D[i, i] if i < n else 0
        if d == 0:
            if y[i] != 0:
                return False
        elif y[i] % d != 0:
            return False
    return True


def lattice_contained(B1: np.ndarray, B2: np.ndarray) -> bool:
    """Whether the column lattice of B1 is contained in that of B2."""
    B1 = as_int_matrix(B1)
    return all(solve_in_image(B2, B1[:, j]) for j in range(B1.shape[1]))


def lattices_equal(B1: np.ndarray, B2: np.ndarray) -> bool:
    return lattice_contained(B1, B2) and lattice_contained(B2, B1)


def image_equals_kernel(A_in: np.ndarray, A_out: np.ndarray) -> dict:
    """Exactness at the middle node of A_in followed by A_out.

    Checks that the composition vanishes (image inside kernel) and that
    every kernel basis vector lies in the integer image of A_in.
    """
    A_in = as_int_matrix(A_in)
    A_out = as_int_matrix(A_out)
    comp = A_out @ A_in
    comp_zero = bool((comp == 0).all())
    ker = kernel_basis(A_out)
    ker_in_im = lattice_contained(ker, A_in)
    return {
        "composition_zero": comp_zero,
        "kernel_in_image": ker_in_im,
        "exact": comp_zero and ker_in_im,
    }
