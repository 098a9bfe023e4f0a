import numpy as np
import pytest

from heisenberg_ncg.chern import (
    _DiracEngine,
    bott_projector,
    constant_projector,
    dirac_even_pairing,
    fourier_coefficients,
    lattice_chern,
    ProjectorField,
)


class TestProjectorFields:
    def test_bott_field_is_valid(self):
        field = bott_projector(32, 1.0)
        assert field.grid == 32

    def test_invalid_mass_rejected(self):
        for mass in (0.0, 2.0, -2.0, 3.0, -2.5):
            with pytest.raises(ValueError):
                bott_projector(16, mass)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            bott_projector(4, 1.0)

    def test_non_projector_rejected(self):
        bad = np.zeros((8, 8, 2, 2), dtype=complex)
        bad[..., 0, 0] = 0.5
        with pytest.raises(ValueError):
            ProjectorField(8, bad)

    def test_fourier_tail_certificate(self):
        field = bott_projector(64, 1.0)
        coeffs, K = fourier_coefficients(field)
        assert K < 32
        # reconstruct a sample point from the coefficients
        k = 2 * np.pi * np.arange(64) / 64
        total = np.zeros((2, 2), dtype=complex)
        for (a, b), c in coeffs.items():
            total += c * np.exp(-1j * (a * k[5] + b * k[9]))
        assert np.max(np.abs(total - field.samples[5, 9])) < 1e-6


class TestLatticeChern:
    @pytest.mark.parametrize("grid", [16, 32, 64])
    def test_bott_class_has_unit_chern(self, grid):
        assert lattice_chern(bott_projector(grid, 1.0)) == 1

    def test_orientation_reversal(self):
        assert lattice_chern(bott_projector(32, -1.0)) == -1

    def test_constant_field_is_flat(self):
        assert lattice_chern(constant_projector(16)) == 0


class TestDiracPairing:
    def test_probing_matches_dense_trace_at_small_size(self):
        # dense oracle: materialize P, F0 and the trace directly
        field = bott_projector(64, 1.0)
        coeffs, K = fourier_coefficients(field, tail=1e-3)
        N = 10
        w = 2 * N + 1
        dim = w * w * 2
        idx = lambda m, n, a: (m * w + n) * 2 + a
        P = np.zeros((dim, dim), dtype=complex)
        for m in range(w):
            for n in range(w):
                for (da, db), c in coeffs.items():
                    mm, nn = m + da, n + db
                    if 0 <= mm < w and 0 <= nn < w:
                        for a in range(2):
                            for b in range(2):
                                P[idx(mm, nn, a), idx(m, n, b)] += c[a, b]
        grid = np.arange(-N, N + 1)
        z = grid[:, None] + 1j * grid[None, :]
        f0 = np.where(z == 0, 1.0, z / np.where(np.abs(z) == 0, 1.0, np.abs(z)))
        F = np.diag(np.repeat(f0.reshape(-1), 2))
        A = F @ P - P @ F
        AAs, AsA = A @ A.conj().T, A.conj().T @ A
        engine = _DiracEngine(coeffs, N)
        for n in (1, 2):
            dense = np.trace(P @ np.linalg.matrix_power(AAs, n)) - np.trace(
                P @ np.linalg.matrix_power(AsA, n)
            )
            # the engine's star operator is the negated true adjoint, so its
            # raw chain value carries a factor (-1)^n relative to the dense
            # trace; the public entry point compensates with the same sign
            (probed,) = engine.graded_traces((n,), spacing=w)  # spacing >= window: exact
            assert abs((-1) ** n * probed - dense.real) < 1e-8

    def test_fft_symbol_matches_loop_reference(self):
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, 24)
        # reference: one full-grid exponential per coefficient block
        f1 = np.fft.fftfreq(engine.L)
        ref = np.zeros((engine.L, engine.L, 2, 2), dtype=complex)
        for (a, b), c in coeffs.items():
            ref += (
                np.exp(-2j * np.pi * (a * f1[:, None] + b * f1[None, :]))[
                    ..., None, None
                ]
                * c
            )
        got = engine.symbol.transpose(2, 3, 0, 1)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_one_pass_traces_match_separate_passes(self):
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, 22)
        both = engine.graded_traces((2, 3), spacing=6)
        (t2,) = engine.graded_traces((2,), spacing=6)
        (t3,) = engine.graded_traces((3,), spacing=6)
        assert abs(both[0] - t2) < 1e-10
        assert abs(both[1] - t3) < 1e-10

    def test_constant_field_pairs_to_zero(self):
        res = dirac_even_pairing(constant_projector(32))
        assert res["value"] == 0
        assert res["certificates"]["constant_field"]

    def test_bott_field_pairs_to_one(self):
        res = dirac_even_pairing(bott_projector(64, 1.0), truncation=48)
        assert res["value"] == 1
        runs = res["certificates"]["runs"]
        assert len(runs) == 3
        assert len({r["truncation"] for r in runs}) == 2
        assert max(res["certificates"]["residuals"]) < 0.1

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            dirac_even_pairing(bott_projector(64, 1.0), truncation=12)

    def test_truncation_without_distinct_second_run_rejected(self):
        # default tail: kernel radius 24, so the smallest allowed truncation
        # is 32, where the smaller certificate run would repeat the first
        field = bott_projector(64, 1.0)
        assert fourier_coefficients(field)[1] == 24
        with pytest.raises(ValueError, match="distinct second certificate run"):
            dirac_even_pairing(field, truncation=32)

    def test_odd_commutator_count_rejected(self):
        with pytest.raises(ValueError):
            dirac_even_pairing(bott_projector(32, 1.0), n_commutators=3)
