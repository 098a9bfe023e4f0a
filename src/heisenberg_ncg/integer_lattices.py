"""Exact integer linear algebra: Smith-style diagonalization over Z.

Provides kernel bases, integer image membership and lattice comparison for
integer matrices, which is what exactness checking of six-term sequences
needs.  A matrix is a tuple of row tuples of Python ints, so arithmetic
stays exact for arbitrarily large intermediate entries; an m x 0 matrix is
m empty rows.

Each function that diagonalizes a matrix also takes its Smith form, as
``smith_diagonalize`` returns it, in ``form`` (``forms`` for the two maps
of ``image_equals_kernel``), and then does not diagonalize it again.

Shapes that do not fit are a ValueError naming both, never a silent
truncation: ``matmul`` needs as many columns in A as rows in B,
``solve_in_image`` a vector with one entry per row of A,
``lattice_contained`` two matrices with the same number of rows, and
``image_equals_kernel`` maps that chain (as many columns in the outgoing
map as rows in the incoming one).  ``transpose`` and ``matmul`` also refuse
a matrix whose rows differ in length, naming the shortest and the longest.
"""

from __future__ import annotations

from operator import index

Matrix = tuple[tuple[int, ...], ...]


def as_int_matrix(rows) -> Matrix:
    """``rows`` as a Matrix; raises ValueError unless it is a nonempty list
    of rows of one length, and TypeError for an entry that is not an
    integer."""
    m = tuple(tuple(map(index, row)) for row in rows)
    if not m or len({len(row) for row in m}) != 1:
        raise ValueError("expected a 2-D integer matrix")
    return m


def shape(A: Matrix) -> tuple[int, int]:
    """(rows, columns); the 0 x 0 matrix is ()."""
    return len(A), len(A[0]) if A else 0


def _check_rows(what: str, A) -> None:
    """Raise ValueError unless the rows of A have one length: ``zip`` would
    stop at the shortest and drop the other columns' tails."""
    lengths = {len(row) for row in A}
    if len(lengths) > 1:
        raise ValueError(f"{what}: rows of lengths {min(lengths)} and {max(lengths)} "
                         "do not fit")


def transpose(A: Matrix) -> Matrix:
    """A's columns as rows; an m x 0 matrix has no columns and becomes ()."""
    _check_rows("transpose", A)
    return tuple(zip(*A))


def _shape_error(what: str, A, B) -> ValueError:
    return ValueError(f"{what}: shapes {A[0]}x{A[1]} and {B[0]}x{B[1]} do not fit")


def matmul(A: Matrix, B: Matrix) -> Matrix:
    _check_rows("matmul", A)
    _check_rows("matmul", B)
    if shape(A)[1] != len(B):
        raise _shape_error("matmul", shape(A), shape(B))
    cols = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


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


def _eliminate(D: list[list[int]], T: list[list[int]], i: int) -> bool:
    """Clear D[j][i] for every j > i by unimodular row operations on D,
    repeated on T; returns whether any row changed."""
    changed = False
    for j in range(i + 1, len(D)):
        a, b = D[i][i], D[j][i]
        if b == 0:
            continue
        if a != 0 and b % a == 0:
            # row j -= (b // a) * row i
            x, y, u, v = 1, 0, 1, b // a
        else:
            g, x, y = _exgcd(a, b)
            u, v = a // g, b // g
        for M in (D, T):
            mi, mj = M[i], M[j]
            M[i] = [x * s + y * t for s, t in zip(mi, mj)]
            M[j] = [-v * s + u * t for s, t in zip(mi, mj)]
        changed = True
    return changed


def smith_diagonalize(A: Matrix):
    """Diagonalize A over Z with unimodular transforms.

    Returns (L, D, R) with D = L A R diagonal (not necessarily with
    divisibility along the diagonal, which the lattice computations here do
    not need), and L, R unimodular.  Column i is cleared below the diagonal
    by row operations on (D, L), and row i right of it by the same row
    operations on the transposes (D^T, R^T), until both stay clear.
    """
    A = as_int_matrix(A)
    m, n = shape(A)
    D = [list(row) for row in A]
    L = _identity(m)
    Rt = _identity(n)
    for i in range(min(m, n)):
        while True:
            c1 = _eliminate(D, L, i)
            c2 = any(D[i][i + 1:])  # whether _eliminate(D^T, R^T, i) changes a row
            if c2:
                Dt = [list(col) for col in zip(*D)]
                _eliminate(Dt, Rt, i)
                D = [list(row) for row in zip(*Dt)]
            if not (c1 or c2):
                break
    return (tuple(map(tuple, L)), tuple(map(tuple, D)), transpose(Rt))


def kernel_basis(A: Matrix, form=None) -> Matrix:
    """Columns form a Z-basis of the integer kernel of A (n x 0 if it is
    trivial)."""
    _, D, R = form or smith_diagonalize(A)
    m, n = shape(D)
    cols = [j for j in range(n) if j >= m or D[j][j] == 0]
    return tuple(tuple(row[j] for j in cols) for row in R)


def solve_in_image(A: Matrix, x, form=None) -> bool:
    """Whether the vector x is in the integer column span of A."""
    x = tuple(map(index, x))
    if len(x) != len(A):
        raise _shape_error("solve_in_image", shape(A), (len(x), 1))
    L, D, _ = form or smith_diagonalize(A)
    y = [sum(a * b for a, b in zip(row, x)) for row in L]
    m, n = shape(D)
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d == 0:
            if y[i] != 0:
                return False
        elif y[i] % d != 0:
            return False
    return True


def lattice_contained(B1: Matrix, B2: Matrix, form=None) -> bool:
    """Whether the column lattice of B1 is contained in that of B2; B2 is
    diagonalized once for all the columns of B1."""
    B1 = as_int_matrix(B1)  # transpose would drop the tail of a long row
    if len(B1) != len(B2):
        raise _shape_error("lattice_contained", shape(B1), shape(B2))
    form = form or smith_diagonalize(B2)
    return all(solve_in_image(B2, col, form) for col in transpose(B1))


def image_equals_kernel(A_in: Matrix, A_out: Matrix, forms=None) -> dict:
    """Exactness at the middle node of A_in followed by A_out.

    Checks that the composition vanishes (image inside kernel) and that
    every kernel basis vector lies in the integer image of A_in.
    """
    A_in = as_int_matrix(A_in)
    A_out = as_int_matrix(A_out)
    if shape(A_out)[1] != len(A_in):
        raise _shape_error("image_equals_kernel", shape(A_in), shape(A_out))
    form_in, form_out = forms or (smith_diagonalize(A_in), smith_diagonalize(A_out))
    comp_zero = not any(v for row in matmul(A_out, A_in) for v in row)
    ker_in_im = lattice_contained(kernel_basis(A_out, form_out), A_in, form_in)
    return {
        "composition_zero": comp_zero,
        "kernel_in_image": ker_in_im,
        "exact": comp_zero and ker_in_im,
    }
