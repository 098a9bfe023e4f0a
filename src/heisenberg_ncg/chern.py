"""Bott-class projector fields, lattice Chern numbers and Dirac pairings.

The concrete representative of the nontrivial even K-theory class over the
two-torus is the lower-band spectral projector of the two-band family

    h(k1, k2) = sin k1 * sigma_x + sin k2 * sigma_y
                + (mass + cos k1 + cos k2) * sigma_z,

which is gapped away from mass in {-2, 0, 2} and has unit Chern class for
0 < |mass| < 2.  Two independent evaluations are provided:

* ``lattice_chern``: the plaquette field-strength method on a momentum
  grid (products of normalized link overlaps of the band eigenvector,
  summed plaquette phases / 2 pi).

* ``dirac_even_pairing``: the trace formula against the graded module
  whose symmetry is the phase operator F0 e_{m,n} = (m+in)/|m+in|.  The
  projector acts on l2(Z^2) x C^2 by Fourier multiplication; with
  A = F0 P - P F0 restricted to one copy of the Hilbert space, the graded
  trace collapses to Tr(P (A A*)^n) - Tr(P (A* A)^n).  Traces over the
  truncation window are evaluated stochastically-exactly by comb probing:
  probe vectors supported on sublattices of spacing D recover the diagonal
  up to aliasing terms controlled by the exponential decay of the Fourier
  coefficients.  P is applied via zero-padded FFT convolution: its symbol
  is built by one 2-D FFT of the coefficient blocks, the 2x2 symbol
  multiply is done in place, and the transforms are pruned 1-D FFTs that
  skip the padding rows.  The two probing chains share their first P v;
  one pass of n+1 steps yields the traces at n and n+1, and the
  diagonal entries are read against P v, so no final P is applied.

Orientation: the global sign convention is calibrated once so that the
mass = +1 field has lattice Chern number +1 and the Dirac pairing agrees
with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Global orientation calibration: raw plaquette sums and raw graded traces
# for the mass = +1 field both evaluate to +1 with the conventions in this
# file, so both signs are +1.  They must only ever be changed together.
ORIENTATION_SIGN = 1
DIRAC_SIGN = 1
# smallest sample grid of a Bott field
MIN_GRID = 8
# The Dirac certificate's runs must agree within this of a common integer.
CONVERGENCE_TOL = 0.1


@dataclass(frozen=True)
class ProjectorField:
    """G x G samples of a rank-1 Hermitian 2x2 projector over the torus."""

    grid: int
    samples: np.ndarray  # shape (G, G, 2, 2)

    def __post_init__(self):
        g = self.grid
        s = self.samples
        if s.shape != (g, g, 2, 2):
            raise ValueError("sample array shape mismatch")
        herm = np.max(np.abs(s - s.conj().transpose(0, 1, 3, 2)))
        idem = np.max(np.abs(np.einsum("ijab,ijbc->ijac", s, s) - s))
        if herm > 1e-10 or idem > 1e-10:
            raise ValueError("samples are not Hermitian idempotents")
        tr = np.einsum("ijaa->ij", s).real
        if np.max(np.abs(tr - 1.0)) > 1e-8:
            raise ValueError("projector field must have constant rank 1")


def bott_projector(grid: int = 64, mass: float = 1.0) -> ProjectorField:
    """Lower-band spectral projector of the two-band torus family."""
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}")
    if mass in (-2.0, 0.0, 2.0) or not (-2.0 < mass < 2.0) or mass == 0:
        raise ValueError("mass must lie in (-2, 0) or (0, 2); the family is "
                         "gapless at -2, 0 and 2")
    k = 2 * np.pi * np.arange(grid) / grid
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    hx, hy = np.sin(k1), np.sin(k2)
    hz = mass + np.cos(k1) + np.cos(k2)
    e = np.sqrt(hx**2 + hy**2 + hz**2)
    p = np.zeros((grid, grid, 2, 2), dtype=complex)
    p[..., 0, 0] = (1 - hz / e) / 2
    p[..., 1, 1] = (1 + hz / e) / 2
    p[..., 0, 1] = -(hx - 1j * hy) / (2 * e)
    p[..., 1, 0] = -(hx + 1j * hy) / (2 * e)
    return ProjectorField(grid, p)


def constant_projector(grid: int = 64, diag=(1.0, 0.0)) -> ProjectorField:
    p = np.zeros((grid, grid, 2, 2), dtype=complex)
    p[..., 0, 0] = diag[0]
    p[..., 1, 1] = diag[1]
    return ProjectorField(grid, p)


def fourier_coefficients(
    field: ProjectorField, tail: float = 1e-8
) -> tuple[dict[tuple[int, int], np.ndarray], int]:
    """2x2 Fourier coefficients of the field, truncated to the smallest
    square |v|_inf <= K whose discarded tail (sum of max block entries)
    is below ``tail``.  Raises if the grid cannot certify that decay."""
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
        raise ValueError(
            "Fourier tail does not certify the requested decay bound; "
            "increase the grid or relax the tolerance"
        )
    coeffs = {}
    for i in range(g):
        for j in range(g):
            if vmax[i, j] <= chosen and mag[i, j] > 0:
                coeffs[(int(freqs[i]), int(freqs[j]))] = c[i, j].copy()
    return coeffs, chosen


def lattice_chern(field: ProjectorField) -> int:
    """Chern number by plaquette products of band eigenvector overlaps."""
    w, vecs = np.linalg.eigh(field.samples)
    band = vecs[..., :, 1]  # eigenvector of eigenvalue 1
    lx = np.einsum("ijk,ijk->ij", band.conj(), np.roll(band, -1, axis=0))
    ly = np.einsum("ijk,ijk->ij", band.conj(), np.roll(band, -1, axis=1))
    plaq = (
        lx
        * np.roll(ly, -1, axis=0)
        * np.roll(lx, -1, axis=1).conj()
        * ly.conj()
    )
    total = float(np.angle(plaq).sum() / (2 * np.pi))
    nearest = round(total)
    if abs(total - nearest) > 0.01:
        raise ArithmeticError(
            f"plaquette sum {total} is not integer-quantized"
        )
    return ORIENTATION_SIGN * int(nearest)


# Probes per batch.  The chains hold about a dozen batch-sized arrays: one
# pairing at truncation 48 peaked at 142 MB resident with 16 probes per
# batch and 225 MB with 32, at the same speed.
_PROBE_CHUNK = 16


class _DiracEngine:
    """Truncated-window evaluator for the graded torus trace formula.

    A batch of vectors on the window is an array of shape (B, 2, w, w):
    batch, orbital, then the lattice coordinates m, n in [-N, N].
    """

    def __init__(self, coeffs, truncation: int):
        # Imported here, its only user: scipy.fft doubles the objects that
        # every full garbage collection scans, also in exact arithmetic.
        import scipy.fft as sfft
        self.w = w = 2 * truncation + 1
        K = max(max(abs(a), abs(b)) for (a, b) in coeffs)
        # Zero padding: the convolution output is cropped back to the
        # window, so wrap-around artifacts vanish once the circle length
        # exceeds the window plus the kernel radius.
        self.L = L = sfft.next_fast_len(w + K)
        # The symbol sum_v c_v exp(-2 pi i <v, k> / L) is the 2-D DFT of the
        # coefficient blocks placed at (a mod L, b mod L); L > 2K keeps
        # distinct frequencies apart.
        ab = np.array(list(coeffs)) % L
        grid = np.zeros((2, 2, L, L), dtype=complex)
        grid[:, :, ab[:, 0], ab[:, 1]] = np.moveaxis(
            np.array(list(coeffs.values())), 0, -1
        )
        self.symbol = sfft.fft2(grid)
        m = np.arange(-truncation, truncation + 1)
        z = m[:, None] + 1j * m[None, :]
        mag = np.abs(z)
        self.f0 = np.where(z == 0, 1.0 + 0j, z / np.where(mag == 0, 1.0, mag))

    def apply_p(self, v: np.ndarray) -> np.ndarray:
        """P v by zero-padded FFT convolution, for v of shape (B, 2, w, w).

        The transforms are pruned: the forward pass pads the w live rows
        along the last axis before transforming the other, and the inverse
        pass crops to w rows before its second transform.  The 1-D
        transforms are ``fft2``/``ifft2`` calls with a one-element ``axes``,
        so every FFT of the engine passes the one entry point that the
        benchmark's kernel trace wraps (``bench/spans.py``).
        """
        import scipy.fft as sfft
        L, w = self.L, self.w
        h = sfft.fft2(v, s=(L,), axes=(-1,))
        h = sfft.fft2(h, s=(L,), axes=(-2,))
        s = self.symbol
        h0, h1 = h[:, 0], h[:, 1]
        t = h1 * s[0, 1]
        h1 *= s[1, 1]
        h1 += h0 * s[1, 0]
        h0 *= s[0, 0]
        h0 += t
        h = sfft.ifft2(h, axes=(-2,), overwrite_x=True)[:, :, :w]
        return sfft.ifft2(h, axes=(-1,))[..., :w]

    def _commutator(self, f: np.ndarray, v: np.ndarray, pv: np.ndarray):
        """f P v - P (f v), given pv = P v.  With f = f0 this is A; with
        f = conj(f0) it is the engine's star operator, the negated true
        adjoint of A."""
        out = f * pv
        out -= self.apply_p(f * v)
        return out

    def _probe_chunks(self, spacing: int):
        """Comb probes, one per (sublattice offset, orbital), in batches."""
        w = self.w
        combs = [
            (sx, sy, orb)
            for sx in range(spacing)
            for sy in range(spacing)
            for orb in range(2)
        ]
        for lo in range(0, len(combs), _PROBE_CHUNK):
            part = combs[lo : lo + _PROBE_CHUNK]
            probes = np.zeros((len(part), 2, w, w), dtype=complex)
            for i, (sx, sy, orb) in enumerate(part):
                probes[i, orb, sx::spacing, sy::spacing] = 1.0
            yield probes

    def graded_traces(self, orders, spacing: int) -> list[float]:
        """Tr(P (A A*)^n) - Tr(P (A* A)^n) over the window by comb probing,
        for each n in ``orders``, from one pass of max(orders) steps.

        Both chains start from P v, computed once.  The truncated P is
        Hermitian (its coefficient blocks satisfy c_{-v} = c_v^*), so each
        probe's diagonal entry <v, P u> is read as <P v, u>: no final P.
        """
        f, fc = self.f0, self.f0.conj()
        top = max(orders)
        totals = dict.fromkeys(orders, 0.0)
        for probes in self._probe_chunks(spacing):
            pv = self.apply_p(probes)
            u1 = u2 = probes
            pu1 = pu2 = pv
            for k in range(1, top + 1):
                x = self._commutator(fc, u1, pu1)
                u1 = self._commutator(f, x, self.apply_p(x))
                y = self._commutator(f, u2, pu2)
                u2 = self._commutator(fc, y, self.apply_p(y))
                if k in totals:
                    # an elementwise sum, not np.vdot: the BLAS dot product
                    # runs threaded and doubles CPU time for no wall time
                    totals[k] += float((pv.conj() * (u1 - u2)).sum().real)
                if k < top:
                    pu1, pu2 = self.apply_p(u1), self.apply_p(u2)
        return [totals[n] for n in orders]


def certificate_windows(kernel_radius: int, truncation: int) -> tuple[int, int]:
    """The truncations of the Dirac certificate's runs: ``truncation`` and
    a smaller second one, max(truncation - 8, least).

    least = max(16, K + 8) keeps a margin of 8 around the kernel radius K.
    Requiring truncation > least also keeps the second run distinct from
    the first, whose check on truncation it is; otherwise this raises
    ValueError naming the smallest admissible truncation.
    """
    least = max(16, kernel_radius + 8)
    if truncation <= least:
        raise ValueError(
            f"truncation {truncation} must be at least {least + 1} for the "
            f"kernel radius {kernel_radius}, with a distinct second "
            "certificate run")
    return truncation, max(truncation - 8, least)


def dirac_even_pairing(
    field: ProjectorField,
    truncation: int = 48,
    n_commutators: int = 4,
    tail: float = 1e-8,
    probe_spacing: int = 12,
) -> dict:
    """Pairing of the graded torus module with a projector field.

    Evaluates the graded trace at n = n_commutators/2 and n+1 and, at n,
    on the second truncation of ``certificate_windows``; requires all runs
    to agree within ``CONVERGENCE_TOL`` of a common integer, and returns
    that integer with the convergence certificate.
    """
    if n_commutators < 2 or n_commutators % 2 != 0:
        raise ValueError("n_commutators must be a positive even integer")
    coeffs, K = fourier_coefficients(field, tail)

    # Fast exact path: fields constant over the torus commute with the
    # phase operator, so every commutator vanishes.
    if set(coeffs) <= {(0, 0)}:
        return {
            "value": 0,
            "certificates": {"constant_field": True, "kernel_radius": K},
        }

    _, second = certificate_windows(K, truncation)
    n = n_commutators // 2
    t_n, t_next = _DiracEngine(coeffs, truncation).graded_traces(
        (n, n + 1), probe_spacing
    )
    (t_second,) = _DiracEngine(coeffs, second).graded_traces((n,), probe_spacing)
    # (-1)^n undoes the sign the engine's star operator (the negated adjoint)
    # puts on a chain of n commutator pairs
    runs = [
        {"n_commutators": 2 * nn, "truncation": N, "value": (-1) ** nn * raw}
        for nn, N, raw in (
            (n, truncation, t_n),
            (n + 1, truncation, t_next),
            (n, second, t_second),
        )
    ]

    values = [r["value"] for r in runs]
    target = round(values[0])
    residuals = [abs(v - target) for v in values]
    if max(residuals) > CONVERGENCE_TOL:
        raise ArithmeticError(
            f"graded trace did not converge: values {values}"
        )
    return {
        "value": DIRAC_SIGN * int(target),
        "certificates": {
            "kernel_radius": K,
            "runs": runs,
            "residuals": residuals,
        },
    }
