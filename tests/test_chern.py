import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import no_work

import heisenberg_ncg
from heisenberg_ncg import chern
from heisenberg_ncg.algebra import UnsupportedInput
from heisenberg_ncg.chern import (
    _DiracEngine,
    bott_projector,
    dirac_even_pairing,
    fourier_coefficients,
    lattice_chern,
    ProjectorField,
)


def _blocks(coeffs):
    """((a, b), block) for every block of a centred coefficient array."""
    K = len(coeffs) // 2
    for i, row in enumerate(coeffs):
        for j, c in enumerate(row):
            yield (i - K, j - K), c


def _dict_coefficients(field, tail):
    """The earlier dict form of ``fourier_coefficients``: the nonzero kept
    blocks keyed by frequency, collected by a loop over the grid."""
    g = field.grid
    c = np.fft.ifft2(field.samples, axes=(0, 1))
    freqs = np.fft.fftfreq(g, 1 / g).astype(int)
    mag = np.abs(c).max(axis=(2, 3))
    vmax = np.maximum(np.abs(freqs)[:, None], np.abs(freqs)[None, :])
    chosen = None
    for K in range(1, g // 2):
        if mag[vmax > K].sum() < tail:
            chosen = K
            break
    if chosen is None:
        raise ValueError("Fourier tail does not certify the requested decay bound")
    coeffs = {}
    for i in range(g):
        for j in range(g):
            if vmax[i, j] <= chosen and mag[i, j] > 0:
                coeffs[(int(freqs[i]), int(freqs[j]))] = c[i, j].copy()
    return coeffs, chosen


def constant_field(grid: int) -> ProjectorField:
    """diag(1, 0) at every sample: a rank-1 field constant over the torus."""
    samples = np.zeros((grid, grid, 2, 2), dtype=complex)
    samples[..., 0, 0] = 1
    return ProjectorField(grid, samples)


class TestProjectorFields:
    def test_bott_field_is_valid(self):
        field = bott_projector(32, 1.0)
        assert field.grid == 32

    def test_invalid_mass_rejected(self):
        for mass in (0.0, 2.0, -2.0, 3.0, -2.5):
            with pytest.raises(UnsupportedInput):
                bott_projector(16, mass)

    def test_small_grid_rejected(self):
        with pytest.raises(UnsupportedInput):
            bott_projector(4, 1.0)

    def test_large_grid_rejected_before_sampling(self, monkeypatch):
        monkeypatch.setattr(np, "meshgrid", no_work)
        with pytest.raises(UnsupportedInput, match="grid must be at least 8 and at most 2048"):
            bott_projector(2049, 1.0)

    def test_non_projector_rejected(self):
        bad = np.zeros((8, 8, 2, 2), dtype=complex)
        bad[..., 0, 0] = 0.5
        with pytest.raises(ValueError):
            ProjectorField(8, bad)

    def test_fields_compare_and_hash_by_identity(self):
        a, b = bott_projector(8, 1.0), bott_projector(8, 1.0)
        assert a == a and a != b and a != "field"
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
        with pytest.raises(AttributeError, match="immutable"):
            a.grid = 16

    def test_fourier_tail_certificate(self):
        field = bott_projector(64, 1.0)
        coeffs, K = fourier_coefficients(field)
        assert K < 32
        assert coeffs.shape == (2 * K + 1, 2 * K + 1, 2, 2)
        # reconstruct a sample point from the coefficients
        k = 2 * np.pi * np.arange(64) / 64
        total = np.zeros((2, 2), dtype=complex)
        for (a, b), c in _blocks(coeffs):
            total += c * np.exp(-1j * (a * k[5] + b * k[9]))
        assert np.max(np.abs(total - field.samples[5, 9])) < 1e-6

    @pytest.mark.parametrize("tail", [1e-8, 1e-5, 1e-3])
    @pytest.mark.parametrize("grid", [8, 16, 24, 32, 64, 128])
    def test_block_array_matches_dict_routine(self, grid, tail):
        # the array holds exactly the blocks the earlier dict routine kept,
        # bit for bit, and zeros at the frequencies it dropped
        for mass in (-1.9, -1.5, -1.0, -0.3, 0.1, 0.5, 1.0, 1.7):
            field = bott_projector(grid, mass)
            try:
                ref, ref_K = _dict_coefficients(field, tail)
            except ValueError:
                with pytest.raises(ArithmeticError, match="does not certify"):
                    fourier_coefficients(field, tail)
                continue
            coeffs, K = fourier_coefficients(field, tail)
            assert K == ref_K
            assert coeffs.shape == (2 * K + 1, 2 * K + 1, 2, 2)
            for (a, b), c in _blocks(coeffs):
                if (a, b) in ref:
                    assert c.tobytes() == ref.pop((a, b)).tobytes()
                else:
                    assert not c.any()
            assert not ref


class TestLatticeChern:
    @pytest.mark.parametrize("grid", [16, 32, 64])
    def test_bott_class_has_unit_chern(self, grid):
        assert lattice_chern(bott_projector(grid, 1.0)) == 1

    def test_orientation_reversal(self):
        assert lattice_chern(bott_projector(32, -1.0)) == -1

    def test_constant_field_is_flat(self):
        assert lattice_chern(constant_field(16)) == 0


class TestDiracPairing:
    def test_probing_matches_dense_trace_at_small_size(self):
        # dense oracle: materialize P, F0 and both trace forms directly
        for mass in (1.0, -1.0):
            field = bott_projector(64, mass)
            coeffs, K = fourier_coefficients(field, tail=1e-3)
            N = 10
            w = 2 * N + 1
            dim = w * w * 2
            idx = lambda m, n, a: (m * w + n) * 2 + a
            P = np.zeros((dim, dim), dtype=complex)
            for m in range(w):
                for n in range(w):
                    for (da, db), c in _blocks(coeffs):
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
            D = P - F @ P @ F.conj().T
            engine = _DiracEngine(coeffs, N)
            for n in (1, 2, 3):
                chains = np.trace(P @ np.linalg.matrix_power(AAs, n)) - np.trace(
                    P @ np.linalg.matrix_power(AsA, n)
                )
                power = np.trace(np.linalg.matrix_power(D, 2 * n + 1))
                (probed,) = engine.graded_traces((n,), spacing=w)  # spacing >= window: exact
                assert abs(probed - chains.real) < 1e-8
                assert abs(probed - power.real) < 1e-8

    def test_fft_symbol_matches_loop_reference(self):
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, 24)
        # reference: one full-grid exponential per coefficient block
        f1 = np.fft.fftfreq(engine.L)
        ref = np.zeros((engine.L, engine.L, 2, 2), dtype=complex)
        for (a, b), c in _blocks(coeffs):
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_pass_applies_p_once_per_power(self, monkeypatch, n):
        # orders (n, n + 1) read D^k v up to k = n + 1: n + 1 applications
        # of P, each on one stacked batch, then one forward-only quadratic
        # form, per probe batch
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, 22)
        calls = []
        for name in ("apply_p", "quadratic_form"):
            def counting(u, name=name, method=getattr(engine, name)):
                calls.append((name, len(u)))
                return method(u)

            monkeypatch.setattr(engine, name, counting)
        engine.graded_traces((n, n + 1), spacing=6)
        batches = [len(b) for b in engine._probe_chunks(6)]
        assert calls == [call for b in batches
                         for call in [("apply_p", b)] * (n + 1) + [("quadratic_form", b)]]

    @pytest.mark.parametrize("truncation, b", [(10, 3), (22, 5)])
    def test_quadratic_form_is_the_inner_product_through_apply_p(self, truncation, b):
        # <u, D u> = <u, P u> - <F0* u, P F0* u> on seeded random unit
        # vectors; a larger batch first leaves the buffer dirty for the next
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, truncation)
        rng = np.random.default_rng(truncation)
        w = engine.w
        for size in (b + 2, b):
            u = rng.normal(size=(size, 2, w, w)) + 1j * rng.normal(size=(size, 2, w, w))
            u /= np.linalg.norm(u)
            pu = engine.apply_p(u)
            want = float((u.conj() * (pu[:size] - engine.f0 * pu[size:])).sum().real)
            assert abs(engine.quadratic_form(u) - want) < 1e-12

    def test_spacing_over_the_window_runs_only_the_nonzero_combs(self):
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-3)
        engine = _DiracEngine(coeffs, 4)
        w = engine.w
        assert sum(len(b) for b in engine._probe_chunks(w + 5)) == 2 * w**2
        assert engine.graded_traces((1, 2), spacing=w + 5) == engine.graded_traces(
            (1, 2), spacing=w)

    def test_constant_field_pairs_to_zero(self):
        # a constant field commutes with the phase operator, so D vanishes
        # up to rounding and every graded trace with it
        res = dirac_even_pairing(constant_field(16), truncation=17, probe_spacing=2)
        assert res["value"] == 0
        assert max(abs(r["value"]) for r in res["certificates"]["runs"]) < 1e-12

    def test_bott_field_pairs_to_one(self, acceptance_report):
        # criterion 3 runs this pairing: bott_projector(64, 1.0), truncation
        # 48 and the other defaults
        crit = next(r for r in acceptance_report["results"] if r["criterion"] == 3)
        res = crit["details"]["dirac"]
        assert res["value"] == 1
        runs = res["certificates"]["runs"]
        assert len(runs) == 3
        assert len({r["truncation"] for r in runs}) == 2
        assert max(res["certificates"]["residuals"]) < 0.1

    @pytest.mark.parametrize("spacing, probes", [(12, 288), (35, 2450), (40, 2450)])
    def test_probe_count_is_the_combs_run_at_the_first_truncation(
            self, monkeypatch, spacing, probes):
        # the window at truncation 17 is 35 wide; the stand-in reads every
        # run as exactly 1
        class Engine:
            def __init__(self, coeffs, truncation):
                pass

            def graded_traces(self, orders, spacing):
                return [1.0] * len(orders)

        monkeypatch.setattr(chern, "_DiracEngine", Engine)
        res = dirac_even_pairing(constant_field(16), truncation=17, probe_spacing=spacing)
        assert res["certificates"]["probes"] == probes
        assert res["certificates"]["probe_spacing"] == spacing

    def test_small_truncation_rejected(self):
        with pytest.raises(UnsupportedInput):
            dirac_even_pairing(bott_projector(64, 1.0), truncation=12)

    def test_large_truncation_rejected_before_the_fourier_pass(self, monkeypatch):
        # on a grid too coarse, the pass would raise ArithmeticError first
        field = bott_projector(64, 1.0)
        monkeypatch.setattr(chern, "fourier_coefficients", no_work)
        monkeypatch.setattr(chern, "_DiracEngine", no_work)
        with pytest.raises(UnsupportedInput, match="truncation 129 must be at most 128"):
            dirac_even_pairing(field, truncation=129)

    def test_truncation_without_distinct_second_run_rejected(self):
        # default tail: kernel radius 24, so the smallest allowed truncation
        # is 32, where the smaller certificate run would repeat the first
        field = bott_projector(64, 1.0)
        assert fourier_coefficients(field)[1] == 24
        with pytest.raises(UnsupportedInput, match="distinct second certificate run"):
            dirac_even_pairing(field, truncation=32)

    def test_odd_commutator_count_rejected(self):
        with pytest.raises(ValueError):
            dirac_even_pairing(bott_projector(32, 1.0), n_commutators=3)

    def test_empty_probe_comb_rejected(self):
        with pytest.raises(ValueError, match="probe_spacing"):
            dirac_even_pairing(bott_projector(64, 1.0), probe_spacing=0)


def test_scipy_is_imported_only_by_the_dirac_engine():
    # Exact-arithmetic work and the CLI never load scipy.fft, which would
    # double the objects that every full garbage collection scans.
    code = (
        "import sys, heisenberg_ncg.cli, numpy as np\n"
        "print('scipy.fft' in sys.modules)\n"
        "from heisenberg_ncg.chern import _DiracEngine\n"
        "_DiracEngine(np.array([[[[1, 0], [0, 0]]]]), 2)\n"
        "print('scipy.fft' in sys.modules)\n"
    )
    src = str(Path(heisenberg_ncg.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120,
                         check=True).stdout
    assert out.split() == ["False", "True"]
