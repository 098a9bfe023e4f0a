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
    module_spec,
    odd_pairing,
)

ZERO = AlgebraElement.zero()


class TestHalfLineIndex:
    def test_shift_compression_index_is_one(self):
        # the distinguished generator compresses to an operator with
        # one-dimensional kernel (e_0) and injective star
        ops = [
            build_representation(module_spec("z1", n), U) for n in (32, 64, 128)
        ]
        assert fredholm_index(ops) == 1

    def test_rectangular_window_shapes(self):
        op = build_representation(module_spec("z1", 32), U)
        n_dom, n_rng = op.window
        assert op.entries.shape == (n_rng, n_dom)
        assert n_rng > n_dom

    def test_star_entries_are_represented_star(self):
        op = build_representation(module_spec("z1", 32), U)
        star = build_representation(module_spec("z1", 32), U.star())
        assert np.array_equal(op.star_entries, star.entries)

    def test_non_stabilized_index_rejected(self):
        op = build_representation(module_spec("z1", 32), U)
        with pytest.raises(ValueError):
            fredholm_index([op])


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

    def test_higher_commutator_powers_agree(self):
        assert even_pairing_trace("z0", ONE, 2) == even_pairing_trace("z0", ONE, 4)

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

    def test_odd_commutator_count_rejected(self):
        with pytest.raises(ValueError):
            even_pairing_trace("z0", ONE, 3)

