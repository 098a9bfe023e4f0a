import concurrent.futures
import itertools
import os
import subprocess
import sys
import threading
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
    graded_traces,
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


def eigh_chern(field: ProjectorField) -> int:
    """``lattice_chern`` with the band vector found by ``np.linalg.eigh``:
    the reference for reading it off a column of the projector."""
    _, vecs = np.linalg.eigh(field.samples)
    band = vecs[..., :, 1]  # eigenvector of eigenvalue 1
    lx = np.einsum("ijk,ijk->ij", band.conj(), np.roll(band, -1, axis=0))
    ly = np.einsum("ijk,ijk->ij", band.conj(), np.roll(band, -1, axis=1))
    plaq = lx * np.roll(ly, -1, axis=0) * np.roll(lx, -1, axis=1).conj() * ly.conj()
    total = float(np.angle(plaq).sum() / (2 * np.pi))
    nearest = round(total)
    if abs(total - nearest) > 0.01:
        raise ArithmeticError(f"plaquette sum {total} is not integer-quantized")
    return chern.ORIENTATION_SIGN * int(nearest)


def gauged(field: ProjectorField, rng) -> ProjectorField:
    """U P U* for U = exp(iH), H a random Hermitian field of three low
    Fourier modes: a smooth unitary gauge, so the same bundle sampled
    with other band phases and other projector entries."""
    k = 2 * np.pi * np.arange(field.grid) / field.grid
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    h = np.zeros(field.samples.shape, dtype=complex)
    for a, b in rng.integers(-2, 3, size=(3, 2)):
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h += np.cos(a * k1 + b * k2 + rng.uniform(0, 2 * np.pi))[..., None, None] * (c + c.conj().T)
    e, v = np.linalg.eigh(h)
    u = np.einsum("ijab,ijb,ijcb->ijac", v, np.exp(1j * e), v.conj())
    return ProjectorField(field.grid, np.einsum("ijab,ijbc,ijdc->ijad", u, field.samples, u.conj()))


def chern_outcome(route, field):
    """The Chern number a route returns, or ArithmeticError if it raises one."""
    try:
        return route(field)
    except ArithmeticError:
        return ArithmeticError


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

    @pytest.mark.parametrize("grid", [8, 12, 16, 32, 64, 128])
    def test_column_band_matches_the_eigh_reference(self, grid):
        # near the gap (mass 1e-3 and +-1.99) and on gauged fields too, the
        # number or the ArithmeticError is the reference's
        rng = np.random.default_rng(grid)
        fields = [constant_field(grid), gauged(constant_field(grid), rng)]
        for mass in (1.0, -1.0, 1.5, -1.5, 0.5, -0.5, 1e-3, 1.99, -1.99):
            field = bott_projector(grid, mass)
            fields += [field, gauged(field, rng)]
        for field in fields:
            assert chern_outcome(lattice_chern, field) == chern_outcome(eigh_chern, field)


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
                [(probed,)] = graded_traces([(engine, (n,))], w)  # spacing >= window: exact
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
        [both] = graded_traces([(engine, (2, 3))], 6)
        [(t2,)] = graded_traces([(engine, (2,))], 6)
        [(t3,)] = graded_traces([(engine, (3,))], 6)
        assert abs(both[0] - t2) < 1e-10
        assert abs(both[1] - t3) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_pass_applies_p_once_per_power(self, monkeypatch, n):
        # orders (n, n + 1) read D^k v up to k = n + 1: n + 1 applications
        # of P, each on one stacked batch, then one forward-only quadratic
        # form, per probe batch, all in the batch's worker buffer.  Batches
        # on different workers interleave, so the calls are read per thread,
        # split where each batch starts; three workers run whatever the CPU
        # count.
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, 22)
        monkeypatch.setattr(chern, "_worker_count", lambda batches: 3)
        calls = {}
        for name in ("_batch_traces", "apply_p", "quadratic_form"):
            def counting(u, *rest, name=name, method=getattr(engine, name)):
                seen = tuple(u) if name == "_batch_traces" else len(u)
                calls.setdefault(threading.get_ident(), []).append((name, seen, id(rest[-1])))
                return method(u, *rest)

            monkeypatch.setattr(engine, name, counting)
        graded_traces([(engine, (n, n + 1))], 6)
        assert len(calls) == 3
        ran = []
        for seq in calls.values():
            while seq:
                (mark, combs, buffer), seq = seq[0], seq[1:]
                assert mark == "_batch_traces"
                b = len(combs)
                steps = [("apply_p", b, buffer)] * (n + 1) + [("quadratic_form", b, buffer)]
                assert seq[: n + 2] == steps
                seq = seq[n + 2 :]
                ran.append(combs)
        assert sorted(ran) == sorted(map(tuple, engine._probe_chunks(6)))

    @pytest.mark.parametrize("truncation, b", [(10, 3), (22, 5)])
    def test_quadratic_form_is_the_inner_product_through_apply_p(self, truncation, b):
        # <u, D u> = <u, P u> - <F0* u, P F0* u> on seeded random unit
        # vectors; a larger batch first leaves the buffer dirty for the next
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, truncation)
        rng = np.random.default_rng(truncation)
        w = engine.w
        buffer = np.empty(4 * (b + 2) * engine.L**2, dtype=complex)
        for size in (b + 2, b):
            u = rng.normal(size=(size, 2, w, w)) + 1j * rng.normal(size=(size, 2, w, w))
            u /= np.linalg.norm(u)
            pu = engine.apply_p(u, buffer)
            want = float((u.conj() * (pu[:size] - engine.f0 * pu[size:])).sum().real)
            assert abs(engine.quadratic_form(u, buffer) - want) < 1e-12

    def test_spacing_over_the_window_runs_only_the_nonzero_combs(self):
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-3)
        engine = _DiracEngine(coeffs, 4)
        w = engine.w
        assert sum(len(b) for b in engine._probe_chunks(w + 5)) == 2 * w**2
        assert graded_traces([(engine, (1, 2))], w + 5) == graded_traces([(engine, (1, 2))], w)

    @pytest.mark.parametrize("truncation, spacing", [(22, 6), (17, 2)])
    def test_traces_do_not_depend_on_the_worker_count(self, monkeypatch, truncation, spacing):
        # each run's partials are summed in batch order, so every count gives
        # a two-run schedule the floats of a serial loop over each run's
        # batches; six workers on a short switch interval stress the shared
        # job counter and the per-worker buffers
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        runs = [(_DiracEngine(coeffs, truncation), (2, 3)),
                (_DiracEngine(coeffs, truncation - 8), (2,))]
        traces = {}
        interval = sys.getswitchinterval()
        for k in (1, 2, 3, 6):
            monkeypatch.setattr(chern, "_worker_count", lambda batches, k=k: k)
            try:
                sys.setswitchinterval(1e-6 if k == 6 else interval)
                traces[k] = graded_traces(runs, spacing)
            finally:
                sys.setswitchinterval(interval)
        serial = []
        for engine, orders in runs:
            buffer = np.empty(4 * chern._PROBE_CHUNK * engine.L**2, dtype=complex)
            totals = dict.fromkeys(orders, 0.0)
            for combs in engine._probe_chunks(spacing):
                part = engine._batch_traces(combs, spacing, orders, buffer)
                for n in totals:
                    totals[n] += part[n]
            serial.append([totals[n] for n in orders])
        assert all(t == serial for t in traces.values())

    def test_every_batch_of_every_run_runs_once(self, monkeypatch):
        # the shorter run is listed first; one worker takes the jobs in
        # schedule order, the longer run's first, and on three workers
        # every job still runs exactly once
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        short, long = (2,), (2, 3)
        runs = [(_DiracEngine(coeffs, 14), short), (_DiracEngine(coeffs, 22), long)]
        ran, lock = [], threading.Lock()
        batch_traces = _DiracEngine._batch_traces

        def recording(self, combs, *rest):
            with lock:
                ran.append((self.w, tuple(combs)))
            return batch_traces(self, combs, *rest)

        monkeypatch.setattr(_DiracEngine, "_batch_traces", recording)
        want = [(engine.w, tuple(combs)) for engine, _ in reversed(runs)
                for combs in engine._probe_chunks(6)]
        for k in (1, 3):
            monkeypatch.setattr(chern, "_worker_count", lambda batches, k=k: k)
            ran.clear()
            graded_traces(runs, 6)
            if k == 1:
                assert ran == want
            assert sorted(ran) == sorted(want)

    def test_pairing_does_not_depend_on_the_worker_count(self, monkeypatch):
        field = bott_projector(64, 1.0)
        results = []
        for k in (1, 2, 3):
            monkeypatch.setattr(chern, "_worker_count", lambda batches, k=k: k)
            results.append(dirac_even_pairing(field, truncation=24, tail=1e-5,
                                              probe_spacing=6))
        assert results[0]["value"] == 1
        assert results[1] == results[0] and results[2] == results[0]

    def test_no_thread_outlives_a_pairing(self, monkeypatch):
        # one pairing schedules both certificate windows on one pool, which
        # lives only for the call, also when a batch on any worker raises;
        # that error reaches the caller
        class Late(Exception):
            pass

        pools = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        field = bott_projector(64, 1.0)
        monkeypatch.setattr(chern, "_worker_count", lambda batches: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        before = threading.active_count()
        dirac_even_pairing(field, truncation=24, tail=1e-5, probe_spacing=6)
        assert pools == [(2,)]
        assert threading.active_count() == before
        applied = itertools.count()
        apply_p = _DiracEngine.apply_p

        def failing(self, u, buffer):
            # three applications per batch at n_commutators 4: the tenth
            # is in the fourth batch or later
            if next(applied) == 9:
                raise Late
            return apply_p(self, u, buffer)

        monkeypatch.setattr(_DiracEngine, "apply_p", failing)
        with pytest.raises(Late):
            dirac_even_pairing(field, truncation=24, tail=1e-5, probe_spacing=6)
        assert len(pools) == 2
        assert threading.active_count() == before

    def test_an_error_stops_the_other_workers(self, monkeypatch):
        # the calling thread fails on its first batch; the other worker
        # finishes the batch it is on and starts few further ones, where
        # without the stop it would take every remaining batch
        coeffs, K = fourier_coefficients(bott_projector(64, 1.0), tail=1e-5)
        engine = _DiracEngine(coeffs, 22)
        monkeypatch.setattr(chern, "_worker_count", lambda batches: 2)
        caller, ran = threading.get_ident(), []
        batch_traces = engine._batch_traces

        def failing(combs, *rest):
            ran.append(combs)
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            return batch_traces(combs, *rest)

        monkeypatch.setattr(engine, "_batch_traces", failing)
        with pytest.raises(KeyboardInterrupt):
            graded_traces([(engine, (2, 3))], 6)
        assert len(ran) < 1 + len(engine._probe_chunks(6)) // 2

    def test_an_error_in_the_second_window_stops_the_pairing(self, monkeypatch):
        # the second certificate window's batches follow the first's in the
        # one schedule; its first batch raises at once, so each other worker
        # finishes at most the batch it is on, and the error reaches the
        # caller with no thread left behind
        class Late(Exception):
            pass

        field = bott_projector(64, 1.0)
        coeffs, K = fourier_coefficients(field, 1e-5)
        first, second = (2 * N + 1 for N in chern.certificate_windows(K, 24))
        batches = len(_DiracEngine(coeffs, 24)._probe_chunks(6))  # as many in either window
        monkeypatch.setattr(chern, "_worker_count", lambda batches: 3)
        ran, lock = [], threading.Lock()
        batch_traces = _DiracEngine._batch_traces

        def failing(self, combs, *rest):
            with lock:
                ran.append(self.w)
                first_of_second = self.w == second and ran.count(second) == 1
            if first_of_second:
                raise Late
            return batch_traces(self, combs, *rest)

        monkeypatch.setattr(_DiracEngine, "_batch_traces", failing)
        before = threading.active_count()
        with pytest.raises(Late):
            dirac_even_pairing(field, truncation=24, tail=1e-5, probe_spacing=6)
        assert threading.active_count() == before
        assert ran.count(first) == batches
        assert ran.count(second) < batches // 2

    def test_worker_count_is_capped(self, monkeypatch):
        # on 64 CPUs a call takes _MAX_WORKERS workers, or one per batch
        # when there are fewer; working that out starts no thread
        monkeypatch.setattr(threading.Thread, "start", no_work)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert chern._worker_count(18) == chern._MAX_WORKERS < 64
        assert chern._worker_count(2) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert chern._worker_count(18) == chern._MAX_WORKERS

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
        # the window at truncation 17 is 35 wide; the scheduler's stand-in
        # reads every run as exactly 1
        def traces(runs, spacing):
            return [[1.0] * len(orders) for _, orders in runs]

        monkeypatch.setattr(chern, "graded_traces", traces)
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
