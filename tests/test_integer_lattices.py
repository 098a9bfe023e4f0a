import numpy as np
import pytest
from conftest import seeded, smith_calls
from hypothesis import given
from hypothesis import strategies as st

from heisenberg_ncg.integer_lattices import (
    _exgcd,
    as_int_matrix,
    image_equals_kernel,
    kernel_basis,
    lattice_contained,
    matmul,
    smith_diagonalize,
    solve_in_image,
    transpose,
)


def arr(M) -> np.ndarray:
    """A matrix as a numpy object array of the same Python ints."""
    return np.array(M, dtype=object)


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
        got = [arr(M) for M in smith_diagonalize(A)]
        want = reference_smith(arr(A))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tolist() == w.tolist()
            assert {type(v) for v in g.flat} <= {int}

    @seeded(150)
    @given(small_matrices)
    def test_transforms_are_unimodular_and_diagonalize(self, rows):
        A = as_int_matrix(rows)
        L, D, R = (arr(M) for M in smith_diagonalize(A))
        assert (D == L @ arr(A) @ R).all()
        m, n = arr(A).shape
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        assert det_sign_free_unimodular(L)
        assert det_sign_free_unimodular(R)

    def test_pathological_pivot_terminates(self):
        # equal off-diagonal entries used to ping-pong the pivot rotation
        A = as_int_matrix([[1, 1], [1, 1]])
        L, D, R = (arr(M) for M in smith_diagonalize(A))
        assert (D == L @ arr(A) @ R).all()


class TestKernelsAndImages:
    @seeded(100)
    @given(small_matrices)
    def test_kernel_basis_annihilated(self, rows):
        A = as_int_matrix(rows)
        K = arr(kernel_basis(A))
        if K.shape[1]:
            assert (arr(A) @ K == 0).all()

    @seeded(100)
    @given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_columns_lie_in_image(self, rows, coeffs):
        A = as_int_matrix(rows)
        n = len(A[0])
        v = arr(A) @ np.array(coeffs[:n] + [0] * max(0, n - len(coeffs)), dtype=object)
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
        B3 = as_int_matrix([[1, 1], [0, 1]])
        assert lattice_contained(B2, B3) and lattice_contained(B3, B2)


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


class TestShapes:
    """Shapes that do not fit are refused, naming both, never truncated."""

    def test_matmul(self):
        with pytest.raises(ValueError, match=r"^matmul: shapes 1x3 and 2x1 do not fit$"):
            matmul(((1, 2, 3),), ((1,), (1,)))
        assert matmul(((1, 2),), ((1,), (1,))) == ((3,),)

    @pytest.mark.parametrize("A, B", [(((1, 2),), ((1, 2), (3,))),
                                      (((1, 2), (3,)), ((1,), (2,)))])
    def test_matmul_refuses_ragged_rows(self, A, B):
        # zip would stop at the short row and drop a column's tail
        with pytest.raises(ValueError, match=r"^matmul: rows of lengths 1 and 2 do not fit$"):
            matmul(A, B)

    def test_transpose_refuses_ragged_rows(self):
        with pytest.raises(ValueError, match=r"^transpose: rows of lengths 1 and 3 do not fit$"):
            transpose(((1, 2, 3), (4,)))
        assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
        assert transpose(((), ())) == ()

    def test_solve_in_image(self):
        with pytest.raises(ValueError, match=r"^solve_in_image: shapes 2x2 and 3x1 do not fit$"):
            solve_in_image(((1, 0), (0, 1)), (1, 2, 3))

    def test_lattice_contained(self):
        with pytest.raises(ValueError, match=r"^lattice_contained: shapes 3x1 and 2x2 do not fit$"):
            lattice_contained(((1,), (2,), (3,)), ((1, 0), (0, 1)))
        # a lattice with no generators lies in every lattice of its rank
        assert lattice_contained(((),) * 2, ((2, 0), (0, 2)))

    def test_image_equals_kernel(self):
        # A_in is 2x1 and A_out 1x3: the outgoing map does not start where
        # the incoming one ends
        with pytest.raises(ValueError,
                           match=r"^image_equals_kernel: shapes 2x1 and 1x3 do not fit$"):
            image_equals_kernel(((1,), (0,)), ((0, 1, 0),))


class TestOneSmithForm:
    def test_lattice_contained_diagonalizes_once(self, monkeypatch):
        calls = smith_calls(monkeypatch)
        B2 = ((2, 0, 1), (0, 2, 1), (0, 0, 3))
        assert lattice_contained(((2, 4, 6, 0), (0, 2, 4, 6), (0, 0, 0, 0)), B2)
        assert calls == [B2]

    @seeded(150)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=4),
        st.integers(1, 4).flatmap(lambda k: st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=n, max_size=n)))))
    def test_exactness_from_given_forms(self, pair):
        # the report read from the two Smith forms is the one that takes a
        # kernel basis and then asks image membership column by column
        A_out, A_in = (as_int_matrix(rows) for rows in pair)
        ker = kernel_basis(A_out)
        comp_zero = not (arr(A_out) @ arr(A_in)).any()
        ker_in_im = all(solve_in_image(A_in, col) for col in zip(*ker))
        want = {"composition_zero": comp_zero, "kernel_in_image": ker_in_im,
                "exact": comp_zero and ker_in_im}
        forms = smith_diagonalize(A_in), smith_diagonalize(A_out)
        assert image_equals_kernel(A_in, A_out) == want
        assert image_equals_kernel(A_in, A_out, forms) == want
