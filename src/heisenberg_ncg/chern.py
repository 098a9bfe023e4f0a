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
  A = F0 P - P F0 and D = P - F0 P F0*, one has A = -D F0, so A A* = D^2
  and A* A = F0* D^2 F0, and by cyclicity the graded trace
  Tr(P (A A*)^n) - Tr(P (A* A)^n) is Tr(D^(2n+1)) (Connes 1985).  On the
  truncation window this is exact: it uses only that the diagonal F0 is
  unitary and the window finite-dimensional, not that the compressed P is
  idempotent.  Traces over the window are evaluated by comb probing:
  probe vectors supported on sublattices of spacing s recover the diagonal
  up to aliasing terms controlled by the exponential decay of the Fourier
  coefficients.  P is applied via zero-padded FFT convolution: its symbol
  is built by one 2-D FFT of the coefficient blocks, the 2x2 symbol
  multiply is done in place, and the transforms are pruned 1-D FFTs that
  skip the padding rows, in place in one preallocated zero-padded buffer.
  Each power of D costs one application of P to the stacked batch
  [u, F0* u].  D is Hermitian, so the top order is read as the quadratic
  form <u, D u>, which by Parseval needs the forward transform only: one
  pass of n+1 powers and one forward transform yields the traces at n and
  n+1.

Orientation: the global sign convention is calibrated once so that the
mass = +1 field has lattice Chern number +1 and the Dirac pairing agrees
with it.
"""

from __future__ import annotations

import numpy as np

from .algebra import UnsupportedInput

# Global orientation calibration: raw plaquette sums and raw graded traces
# for the mass = +1 field both evaluate to +1 with the conventions in this
# file, so both signs are +1.  They must only ever be changed together.
ORIENTATION_SIGN = 1
DIRAC_SIGN = 1
# Smallest and largest sample grid of a Bott field.  Peak RSS is ~250 G^2 B
# for `hnc chern --grid G`, so about 1 GB at the largest.
MIN_GRID = 8
MAX_GRID = 2048
# Largest Dirac truncation N: ~2.1 kB resident per point of its (<= 3N)^2
# FFT grid, measured as `hnc chern --dirac` peak RSS.
MAX_TRUNCATION = 128
# The Dirac certificate's runs must agree within this of a common integer.
CONVERGENCE_TOL = 0.1


class ProjectorField:
    """G x G samples of a rank-1 Hermitian 2x2 projector over the torus.

    Instances are immutable, and equal and hash by identity.
    """

    __slots__ = ("grid", "samples")
    grid: int
    samples: np.ndarray  # shape (G, G, 2, 2)

    def __init__(self, grid: int, samples: np.ndarray):
        g, s = grid, samples
        if s.shape != (g, g, 2, 2):
            raise ValueError("sample array shape mismatch")
        herm = np.max(np.abs(s - s.conj().transpose(0, 1, 3, 2)))
        idem = np.max(np.abs(np.einsum("ijab,ijbc->ijac", s, s) - s))
        if herm > 1e-10 or idem > 1e-10:
            raise ValueError("samples are not Hermitian idempotents")
        tr = np.einsum("ijaa->ij", s).real
        if np.max(np.abs(tr - 1.0)) > 1e-8:
            raise ValueError("projector field must have constant rank 1")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectorField is immutable")

    def __repr__(self) -> str:
        return f"ProjectorField(grid={self.grid!r}, samples={self.samples!r})"


def bott_projector(grid: int = 64, mass: float = 1.0) -> ProjectorField:
    """Lower-band spectral projector of the two-band torus family; a grid or
    mass out of range raises UnsupportedInput."""
    if not MIN_GRID <= grid <= MAX_GRID:
        raise UnsupportedInput(f"grid must be at least {MIN_GRID} and at most {MAX_GRID}")
    if not (-2.0 < mass < 2.0) or mass == 0:
        raise UnsupportedInput("mass must lie in (-2, 0) or (0, 2); the family "
                               "is gapless at -2, 0 and 2")
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


def fourier_coefficients(
    field: ProjectorField, tail: float = 1e-8
) -> tuple[np.ndarray, int]:
    """2x2 Fourier coefficients of the field, truncated to the smallest
    square |v|_inf <= K whose discarded tail (sum of max block entries)
    is below ``tail``: a (2K+1, 2K+1, 2, 2) array whose entry [a + K, b + K]
    is the block of frequency (a, b), and K.  Raises ArithmeticError if the
    grid cannot certify that decay."""
    g = field.grid
    c = np.fft.ifft2(field.samples, axes=(0, 1))
    freqs = np.fft.fftfreq(g, 1 / g).astype(int)
    mag = np.abs(c).max(axis=(2, 3))
    vmax = np.maximum(np.abs(freqs)[:, None], np.abs(freqs)[None, :])
    for K in range(1, g // 2):
        if mag[vmax > K].sum() < tail:
            kept = np.arange(-K, K + 1) % g
            return c[np.ix_(kept, kept)], K
    raise ArithmeticError(
        "Fourier tail does not certify the requested decay bound; "
        "increase the grid or relax the tolerance"
    )


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


# Probes per batch.  Each step of D transforms the stacked batch of twice
# as many in a (8, 2, L, L) complex buffer: 1 MB at truncation 24 with the
# benchmark's tail (L = 63), inside the 2 MB per-core L2 cache of the
# 2-vCPU Xeon it was tuned on.  A sweep of 2 to 16 found 2 to 6 fastest at
# truncation 24, and no size faster beyond the noise at 48 and 64.  One
# pairing at truncation 48 peaks at 75 MB resident, and
# `hnc chern --grid 64 --dirac --truncation 128` at 172 MB.
_PROBE_CHUNK = 4


class _DiracEngine:
    """Truncated-window evaluator for the graded torus trace formula.

    A batch of vectors on the window is an array of shape (b, 2, w, w):
    batch, orbital, then the lattice coordinates m, n in [-N, N].  The
    coefficients are the centred block array of ``fourier_coefficients``.
    The transforms run in place in one zero-padded (2b, 2, L, L) buffer,
    kept for the engine's life and grown only for a larger batch; only the
    last inverse transform writes a new array.
    """

    def __init__(self, coeffs: np.ndarray, truncation: int):
        # Imported here, its only user: scipy.fft doubles the objects that
        # every full garbage collection scans, also in exact arithmetic.
        import scipy.fft as sfft
        self.w = w = 2 * truncation + 1
        K = len(coeffs) // 2
        # Zero padding: the convolution output is cropped back to the
        # window, so wrap-around artifacts vanish once the circle length
        # exceeds the window plus the kernel radius.
        self.L = L = sfft.next_fast_len(w + K)
        # The symbol sum_v c_v exp(-2 pi i <v, k> / L) is the 2-D DFT of the
        # coefficient blocks placed at (a mod L, b mod L); L >= w + K > 2K,
        # true at every truncation certificate_windows admits, keeps
        # distinct frequencies apart.
        at = np.arange(-K, K + 1) % L
        grid = np.zeros((2, 2, L, L), dtype=complex)
        grid[:, :, at[:, None], at] = coeffs.transpose(2, 3, 0, 1)
        self.symbol = sfft.fft2(grid)
        m = np.arange(-truncation, truncation + 1)
        z = m[:, None] + 1j * m[None, :]
        mag = np.abs(z)
        self.f0 = np.where(z == 0, 1.0 + 0j, z / np.where(mag == 0, 1.0, mag))
        self._buffer = np.empty((0, 2, L, L), dtype=complex)

    def _forward(self, u: np.ndarray) -> np.ndarray:
        """The 2-D DFT of the zero-padded stacked batch [u, F0* u], for u
        of shape (b, 2, w, w): shape (2b, 2, L, L), in the engine's buffer.

        The batch is written straight into the window block of the buffer,
        whose padding is zeroed.  The transform is pruned: the last axis is
        transformed on the w live rows only, then the other axis on all L.
        Both run in place.  They are ``fft2`` calls with a one-element
        ``axes``, so every FFT of the engine passes the one entry point that
        the benchmark's kernel trace wraps (``bench/spans.py``).
        """
        import scipy.fft as sfft
        L, w, b = self.L, self.w, len(u)
        if len(self._buffer) < 2 * b:
            self._buffer = np.empty((2 * b, 2, L, L), dtype=complex)
        h = self._buffer[: 2 * b]
        h[:, :, w:] = 0
        h[:, :, :w, w:] = 0
        h[:b, :, :w, :w] = u
        np.multiply(self.f0.conj(), u, out=h[b:, :, :w, :w])
        # scipy writes the transform of an aligned complex array into that
        # array under overwrite_x, so this one lands in the buffer's rows
        sfft.fft2(h[:, :, :w], axes=(-1,), overwrite_x=True)
        return sfft.fft2(h, axes=(-2,), overwrite_x=True)

    def apply_p(self, u: np.ndarray) -> np.ndarray:
        """P [u, F0* u] by zero-padded FFT convolution, for u of shape
        (b, 2, w, w): shape (2b, 2, w, w).

        The 2x2 symbol multiply runs in place on ``_forward``'s transform,
        and the inverse pass crops to w rows before its second transform.
        """
        import scipy.fft as sfft
        w = self.w
        h = self._forward(u)
        s = self.symbol
        h0, h1 = h[:, 0], h[:, 1]
        t = h1 * s[0, 1]
        h1 *= s[1, 1]
        h1 += h0 * s[1, 0]
        h0 *= s[0, 0]
        h0 += t
        h = sfft.ifft2(h, axes=(-2,), overwrite_x=True)[:, :, :w]
        return sfft.ifft2(h, axes=(-1,))[..., :w]

    def quadratic_form(self, u: np.ndarray) -> float:
        """The sum over the batch u of <u, D u>, from ``_forward`` alone.

        <u, D u> = <u, P u> - <F0* u, P F0* u>, and by Parseval each term
        is sum_k X(k)* S(k) X(k) / L^2, for X the transform of the padded
        vector and S the symbol: no inverse transform is needed.
        """
        b = len(u)
        x = self._forward(u)
        xc = x.conj()

        def gram(a: int, c: int) -> np.ndarray:
            # conj(X_a) X_c summed over the rows of u minus those of F0* u
            g = xc[:, a] * x[:, c]
            return g[:b].sum(0) - g[b:].sum(0)

        s, n01 = self.symbol, gram(0, 1)
        form = (s[0, 0] * gram(0, 0) + s[1, 1] * gram(1, 1)
                + s[0, 1] * n01 + s[1, 0] * n01.conj())
        return float(form.real.sum()) / self.L**2

    def _probe_chunks(self, spacing: int):
        """Comb probes, one per (sublattice offset, orbital), in batches.

        Offsets from the window size w on hold no window point, so a
        spacing over w runs the w^2 nonzero combs only.
        """
        w = self.w
        offsets = range(min(spacing, w))
        combs = [(sx, sy, orb) for sx in offsets for sy in offsets for orb in range(2)]
        for lo in range(0, len(combs), _PROBE_CHUNK):
            part = combs[lo : lo + _PROBE_CHUNK]
            probes = np.zeros((len(part), 2, w, w), dtype=complex)
            for i, (sx, sy, orb) in enumerate(part):
                probes[i, orb, sx::spacing, sy::spacing] = 1.0
            yield probes

    def graded_traces(self, orders, spacing: int) -> list[float]:
        """Tr(D^(2n+1)) with D = P - F0 P F0* over the window by comb
        probing, for each n in ``orders``, from one pass of max(orders)
        steps of D and one quadratic form.

        Each step is one ``apply_p``.  D is Hermitian, so each probe's
        diagonal entry <v, D^(2n+1) v> is read as <D^n v, D^(n+1) v>: below
        the top order from the step that makes D^(n+1) v, and at the top
        order as the ``quadratic_form`` of D^n v, which needs no inverse
        transform.  Only the current power and the next are held.
        """
        f = self.f0
        top = max(orders)
        totals = dict.fromkeys(orders, 0.0)
        for probes in self._probe_chunks(spacing):
            b, u = len(probes), probes
            for n in range(top):
                pu = self.apply_p(u)
                du = pu[:b] - f * pu[b:]
                if n in totals:
                    # an elementwise sum, not np.vdot: the BLAS dot product
                    # runs threaded and doubles CPU time for no wall time
                    totals[n] += float((u.conj() * du).sum().real)
                u = du
            totals[top] += self.quadratic_form(u)
        return [totals[n] for n in orders]


def certificate_windows(kernel_radius: int, truncation: int) -> tuple[int, int]:
    """The truncations of the Dirac certificate's runs: ``truncation`` and
    a smaller second one, max(truncation - 8, least).

    least = max(16, K + 8) keeps a margin of 8 around the kernel radius K.
    Requiring truncation > least also keeps the second run distinct from
    the first, whose check on truncation it is; otherwise this raises
    UnsupportedInput naming the smallest admissible truncation.
    """
    least = max(16, kernel_radius + 8)
    if truncation <= least:
        raise UnsupportedInput(
            f"truncation {truncation} must be at least {least + 1} for the "
            f"kernel radius {kernel_radius}, with a distinct second "
            "certificate run")
    return truncation, max(truncation - 8, least)


def check_truncation(truncation: int) -> None:
    """Refuse a Dirac truncation over MAX_TRUNCATION with UnsupportedInput,
    which needs no field: a caller can check before it samples one."""
    if truncation > MAX_TRUNCATION:
        raise UnsupportedInput(f"truncation {truncation} must be at most {MAX_TRUNCATION}")


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
    that integer with the convergence certificate.  Raises ValueError for
    arguments out of range and UnsupportedInput for a truncation refused by
    ``check_truncation`` or ``certificate_windows`` (before any engine
    work), and ArithmeticError for an uncertified Fourier tail or runs that
    do not converge.
    """
    check_truncation(truncation)
    if n_commutators < 2 or n_commutators % 2 != 0:
        raise ValueError("n_commutators must be a positive even integer")
    if probe_spacing < 1:  # an empty comb would read every trace as 0
        raise ValueError("probe_spacing must be a positive integer")
    coeffs, K = fourier_coefficients(field, tail)
    _, second = certificate_windows(K, truncation)
    n = n_commutators // 2
    t_n, t_next = _DiracEngine(coeffs, truncation).graded_traces(
        (n, n + 1), probe_spacing
    )
    (t_second,) = _DiracEngine(coeffs, second).graded_traces((n,), probe_spacing)
    runs = [
        {"n_commutators": 2 * nn, "truncation": N, "value": raw}
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
            # every run's aliasing depends on the comb: one probe per
            # sublattice offset inside the first run's window, and orbital
            "probe_spacing": probe_spacing,
            "probes": 2 * min(probe_spacing, 2 * truncation + 1) ** 2,
            "runs": runs,
            "residuals": residuals,
        },
    }
