import numpy as np
import pytest

from heisenberg_ncg.algebra import (
    ONE,
    U,
    V,
    W,
    AlgebraElement,
    GaussianRational,
)
from heisenberg_ncg.fredholm import (
    build_representation,
    even_pairing_trace,
    fredholm_index,
    odd_pairing,
    odd_windows,
)

ZERO = AlgebraElement.zero()


def monomial(p: int, q: int) -> AlgebraElement:
    return AlgebraElement({(p, q, 0): GaussianRational.of(1)})


class TestHalfLineIndex:
    def test_shift_compression_index_is_one(self):
        # the distinguished generator compresses to an operator with
        # one-dimensional kernel (e_0) and injective star
        ops = [build_representation("z1", U, n) for n in odd_windows("z1", U, 64)]
        assert fredholm_index(ops) == 1

    def test_rectangular_window_shapes(self):
        # domain [0, 32], range wider by the band width 1 plus 2
        op = build_representation("z1", U, 32)
        assert op.entries.shape == op.star_entries.shape == (36, 33)

    def test_star_entries_are_represented_star(self):
        op = build_representation("z1", U, 32)
        star = build_representation("z1", U.star(), 32)
        assert np.array_equal(op.star_entries, star.entries)

    def test_non_stabilized_index_rejected(self):
        op = build_representation("z1", U, 32)
        with pytest.raises(ValueError):
            fredholm_index([op])

    @pytest.mark.parametrize("name", ["z0", "dirac_T2", "bogus"])
    def test_non_odd_module_rejected(self, name):
        with pytest.raises(ValueError, match="is not an odd module"):
            build_representation(name, U, 32)


class TestWindows:
    def test_default_windows(self):
        assert odd_windows("z1", U, 64) == (32, 64, 128)
        assert odd_windows("z1", U, 17) == (16, 17, 34)

    @pytest.mark.parametrize("truncation", [4, 15, 16])
    def test_below_seventeen_rejected(self, truncation):
        with pytest.raises(ValueError, match="must be at least 17"):
            odd_windows("z1", U, truncation)

    def test_block_cap(self):
        block = [[V, ZERO], [ZERO, ONE]]
        assert odd_windows("z1prime", block, 900) == (450, 900, 1800)
        with pytest.raises(ValueError, match="truncation 901 exceeds 900 for a 2x2"):
            odd_windows("z1prime", block, 901)

    def test_smallest_window_holds_the_band(self):
        # band 40: the smallest window T // 2 must be at least 42
        u40 = monomial(40, 0)
        with pytest.raises(ValueError, match="must be at least 84"):
            odd_windows("z1", u40, 64)
        with pytest.raises(ValueError, match="must be at least 84"):
            odd_windows("z1", u40, 83)
        assert odd_windows("z1", u40, 84) == (42, 84, 168)
        # the band belongs to the module's shift generator: V^40 is
        # the identity on z1
        assert odd_windows("z1", monomial(0, 40), 64) == (32, 64, 128)

    def test_pairing_uses_the_rule(self):
        assert odd_pairing("z1", monomial(40, 0), 84) == 40
        with pytest.raises(ValueError, match="must be at least 84"):
            odd_pairing("z1", monomial(40, 0))


class TestOddPairings:
    def test_z1_column(self):
        assert odd_pairing("z1", U) == 1
        assert odd_pairing("z1", V) == 0
        Z = ZERO
        assert odd_pairing("z1", [[V, Z], [Z, ONE]]) == 0

    def test_z1prime_column(self):
        assert odd_pairing("z1prime", U) == 0
        assert odd_pairing("z1prime", V) == 1
        Z = ZERO
        assert odd_pairing("z1prime", [[V, Z], [Z, ONE]]) == 1

    def test_torus_modules(self):
        assert odd_pairing("w1", U) == 1
        assert odd_pairing("w1", W) == 0
        assert odd_pairing("w1prime", W) == 1
        assert odd_pairing("w1prime", U) == 0

    def test_boundary_module(self):
        assert odd_pairing("del0_w0", V) == 1
        assert odd_pairing("del0_w0", U) == 0

    def test_higher_winding(self):
        assert odd_pairing("z1", U * U) == 2
        assert odd_pairing("z1", U.star()) == -1

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            odd_pairing("z1", U + V)
        with pytest.raises(ValueError):
            odd_pairing("z1", U.scale(2))


class TestEvenTracePairings:
    def test_scalar_column(self):
        Z = ZERO
        assert even_pairing_trace("z0", ONE) == 1
        assert even_pairing_trace("z0", [[ONE, Z], [Z, Z]]) == 1
        assert even_pairing_trace("w0", ONE) == 1

    def test_zero_projection(self):
        assert even_pairing_trace("z0", ZERO) == 0

    def test_graded_constant_route(self):
        Z = ZERO
        assert even_pairing_trace("del1_w1", ONE) == 0
        assert even_pairing_trace("del1_w1", [[ONE, Z], [Z, Z]]) == 0
        assert even_pairing_trace("dirac_T2", ONE) == 0

    def test_graded_nonconstant_rejected(self):
        # a projection-valued input that does not commute with the phase
        # operator must be routed through the Dirac engine instead
        half = GaussianRational.of("1/2")
        p = AlgebraElement({(0, 0, 0): half, (1, 0, 0): GaussianRational.of("1/4"),
                            (-1, 0, 0): GaussianRational.of("1/4")})
        # p = (1 + cos)/2 is a positive element but not a projection;
        # build a genuine one on the doubled algebra instead: reject at
        # the projection check or the constancy check, both ValueError.
        with pytest.raises(ValueError):
            even_pairing_trace("del1_w1", p)

    def test_non_projection_rejected(self):
        with pytest.raises(ValueError):
            even_pairing_trace("z0", U)

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError, match="is not an even module"):
            even_pairing_trace("z1", ONE)

