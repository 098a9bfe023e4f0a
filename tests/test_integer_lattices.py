import numpy as np
from conftest import seeded
from hypothesis import given
from hypothesis import strategies as st

from heisenberg_ncg.integer_lattices import (
    _exgcd,
    as_int_matrix,
    image_equals_kernel,
    kernel_basis,
    lattice_contained,
    lattices_equal,
    smith_diagonalize,
    solve_in_image,
)

small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def det_sign_free_unimodular(m: np.ndarray) -> bool:
    a = np.array(m, dtype=object)
    n = a.shape[0]
    # integer determinant by fraction-free expansion (small sizes only)
    def det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        total = 0
        for j in range(k):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total

    return abs(det([list(r) for r in a])) == 1


def reference_smith(A: np.ndarray):
    """The diagonalization with separate column and row sweeps, kept as the
    reference for the shared elimination step."""
    m, n = A.shape
    D = A.copy()
    L = np.eye(m, dtype=object)
    R = np.eye(n, dtype=object)

    def clear_col(i) -> bool:
        changed = False
        for j in range(i + 1, m):
            if D[j, i] == 0:
                continue
            if D[i, i] != 0 and D[j, i] % D[i, i] == 0:
                f = D[j, i] // D[i, i]
                D[j] = D[j] - f * D[i]
                L[j] = L[j] - f * L[i]
                changed = True
                continue
            g, x, y = _exgcd(int(D[i, i]), int(D[j, i]))
            u, v = int(D[i, i]) // g, int(D[j, i]) // g
            ri, rj = D[i].copy(), D[j].copy()
            D[i] = x * ri + y * rj
            D[j] = -v * ri + u * rj
            li, lj = L[i].copy(), L[j].copy()
            L[i] = x * li + y * lj
            L[j] = -v * li + u * lj
            changed = True
        return changed

    def clear_row(i) -> bool:
        changed = False
        for j in range(i + 1, n):
            if D[i, j] == 0:
                continue
            if D[i, i] != 0 and D[i, j] % D[i, i] == 0:
                f = D[i, j] // D[i, i]
                D[:, j] = D[:, j] - f * D[:, i]
                R[:, j] = R[:, j] - f * R[:, i]
                changed = True
                continue
            g, x, y = _exgcd(int(D[i, i]), int(D[i, j]))
            u, v = int(D[i, i]) // g, int(D[i, j]) // g
            ci, cj = D[:, i].copy(), D[:, j].copy()
            D[:, i] = x * ci + y * cj
            D[:, j] = -v * ci + u * cj
            ri, rj = R[:, i].copy(), R[:, j].copy()
            R[:, i] = x * ri + y * rj
            R[:, j] = -v * ri + u * rj
            changed = True
        return changed

    for i in range(min(m, n)):
        while True:
            c1 = clear_col(i)
            c2 = clear_row(i)
            if not (c1 or c2):
                break
    return L, D, R


class TestDiagonalization:
    @seeded(300)
    @given(st.integers(1, 6).flatmap(lambda m: st.lists(
        st.lists(st.integers(-40, 40), min_size=m, max_size=m),
        min_size=1, max_size=6)))
    def test_matches_reference_sweeps(self, rows):
        A = as_int_matrix(rows)
        got = smith_diagonalize(A)
        want = reference_smith(A)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tolist() == w.tolist()
            assert {type(v) for v in g.flat} <= {int}

    @seeded(150)
    @given(small_matrices)
    def test_transforms_are_unimodular_and_diagonalize(self, rows):
        A = as_int_matrix(rows)
        L, D, R = smith_diagonalize(A)
        assert (D == L @ A @ R).all()
        m, n = A.shape
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        assert det_sign_free_unimodular(L)
        assert det_sign_free_unimodular(R)

    def test_pathological_pivot_terminates(self):
        # equal off-diagonal entries used to ping-pong the pivot rotation
        A = as_int_matrix([[1, 1], [1, 1]])
        L, D, R = smith_diagonalize(A)
        assert (D == L @ A @ R).all()


class TestKernelsAndImages:
    @seeded(100)
    @given(small_matrices)
    def test_kernel_basis_annihilated(self, rows):
        A = as_int_matrix(rows)
        K = kernel_basis(A)
        if K.shape[1]:
            assert (A @ K == 0).all()

    @seeded(100)
    @given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_columns_lie_in_image(self, rows, coeffs):
        A = as_int_matrix(rows)
        v = A @ np.array(coeffs[: A.shape[1]] + [0] * max(0, A.shape[1] - len(coeffs)), dtype=object)
        assert solve_in_image(A, v)

    def test_image_membership_negative(self):
        A = as_int_matrix([[2, 0], [0, 2]])
        assert not solve_in_image(A, [1, 0])
        assert solve_in_image(A, [2, -4])

    def test_lattice_comparison(self):
        B1 = as_int_matrix([[2, 0], [0, 2]])
        B2 = as_int_matrix([[1, 0], [0, 1]])
        assert lattice_contained(B1, B2)
        assert not lattice_contained(B2, B1)
        assert lattices_equal(B2, as_int_matrix([[1, 1], [0, 1]]))


class TestExactness:
    def test_exact_pair(self):
        # Z --2--> Z --proj--> Z/ (kernel of [0]) ... use Z^2 example:
        A_in = as_int_matrix([[1], [0]])
        A_out = as_int_matrix([[0, 1]])
        res = image_equals_kernel(A_in, A_out)
        assert res["exact"]

    def test_composition_nonzero_detected(self):
        A_in = as_int_matrix([[1], [1]])
        A_out = as_int_matrix([[0, 1]])
        res = image_equals_kernel(A_in, A_out)
        assert not res["composition_zero"] and not res["exact"]

    def test_kernel_not_covered_detected(self):
        A_in = as_int_matrix([[2], [0]])
        A_out = as_int_matrix([[0, 1]])
        res = image_equals_kernel(A_in, A_out)
        assert res["composition_zero"] and not res["kernel_in_image"]
