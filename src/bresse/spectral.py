"""Frequency-domain measurements: spectrum and resolvent growth.

The spectrum comes from dense real Schur factorizations of the
energy-weighted generator F A F^{-1} (M = F^T F), one per invariant
subspace (two half-size mirror sectors when the system is symmetric under
x -> L - x, else the whole space), each built from a mass-orthonormal node
basis (discretize.mirror_basis) and filled from one Cholesky factor of its
stiffness without forming A, M or F.  Energy-norm resolvents build no
dense matrix: (i lam - A) U = f is Q q = R f_p +
(i lam R + C) f_q, p = i lam q - f_q, Q = K - lam^2 R + i lam C the energy
pencil at i lam: one banded LU per frequency.  The energy adjoint
-(i lam - A~)^{-1} (A~: damping -C) reuses it with Q^H, Q being complex
symmetric, and Lanczos on S* S, S the resolvent, gives the norm squared.
Large spectra run their two sectors, and their scan frequencies, in forked
processes (parallel.fork_map); results merge in order, so they do not
depend on the CPU set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .discretize import (check_dense_cap, energy_block, lanczos_top, mirror_basis,
                         mirror_symmetric, pencil_solver)
from .parallel import fork_map

RESONANCE_RTOL = 1e-14
LANCZOS_RTOL = 1e-10     # Ritz residual over Ritz value at convergence
LANCZOS_MAXITER = 300
BINS_PER_DECADE = 16  # log bins for peak insertion and the growth-fit envelope
# Forked work pays from about 25 ms of serial work: a fork, its pickled
# results and the reap cost 8-10 ms, and two CPUs give 1.3-1.6x.  Medians
# at one BLAS thread: both sector Schurs took 23 ms serial and 21 ms forked
# at dimension 238, 34 and 25 ms at 298; 48 scan frequencies took 29 ms
# serial and 34 ms forked at dimension 186 (product 8928), 73 and 49 ms at
# dimension 400 (19200).
SECTOR_FORK_DIM = 300
SCAN_FORK_WORK = 10000  # frequencies times dimension


class ResonantFrequencyError(RuntimeError):
    """Requested frequency is numerically on the spectrum."""

    def __init__(self, lam: float, sigma_min: float):
        self.lam, self.sigma_min = lam, sigma_min
        super().__init__(f"i*{lam:g} is numerically an eigenvalue (sigma_min={sigma_min:.3e}); "
                         "the resolvent norm is unbounded there")

    def __reduce__(self):  # rebuilt from its arguments, not its message, when unpickled
        return type(self), (self.lam, self.sigma_min)


def eigenvalues(system) -> np.ndarray:
    """Full spectrum of the generator, sorted by imaginary part, cached.

    One real Schur factorization per invariant subspace of the system: its
    mirror sectors J = +1 and J = -1 when mirror_symmetric holds, else the
    whole constrained space (_schur_eigenvalues with sign None).  The
    dimension is refused above DENSE_CAP before any block exists.  The half
    size of each block goes to system.spectrum_blocks.  From dimension
    SECTOR_FORK_DIM the two sectors run in two processes (fork_map), each
    building its own block.
    """
    if system.spectrum is None:
        check_dense_cap(system.dimension)
        signs = (1.0, -1.0) if mirror_symmetric(system.parts) else (None,)
        schur = lambda sign: _schur_eigenvalues(system.parts, sign)  # noqa: E731
        run = fork_map if system.dimension >= SECTOR_FORK_DIM else map
        vals = list(run(schur, signs))
        system.spectrum_blocks = [v.size // 2 for v in vals]
        vals = np.concatenate(vals)
        system.spectrum = vals[np.lexsort((vals.real, vals.imag))]
    return system.spectrum


def _schur_eigenvalues(parts, sign) -> np.ndarray:
    """Eigenvalues, in gees order, of the generator on mirror_basis(parts,
    sign).  The basis is mass-orthonormal, so for its stiffness K = L^T L
    (upper Cholesky factor L) and damping Gram C, F = blockdiag(L, I) turns
    the generator into [[0, L], [-L^T, -C]], C on the psi-velocity block
    only; gees overwrites that array."""
    X, cols = mirror_basis(parts, sign)
    psi = cols["psi"]
    K, C = energy_block(parts, X, psi)
    del X
    h = K.shape[0]
    B = scipy.linalg.cholesky(K)  # upper L
    del K
    Atil = np.zeros((2 * h, 2 * h), order="F")  # gees works in place on Fortran order
    Atil[:h, h:] = B
    np.negative(B.T, out=Atil[h:, :h])
    del B
    v = slice(h + psi.start, h + psi.stop)
    Atil[v, v] = -C
    gees, = scipy.linalg.get_lapack_funcs(("gees",), (Atil,))
    # optimal workspace, as schur() queries it: the default minimum is slower
    lwork = int(gees(lambda re, im: None, Atil, lwork=-1, overwrite_a=True)[-2][0].real)
    _, _, wr, wi, _, _, info = gees(lambda re, im: None, Atil, compute_v=0, lwork=lwork,
                                    overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"real Schur factorization failed (info={info})")
    return wr + 1j * wi


def spectral_abscissa(system, guard: bool = True) -> float:
    """Largest real part over the resolved band |Im lam| <= scan_cap.

    Lattice dispersion misrepresents the coupling between wave families near
    the grid band edge, so the decay margins of band-edge modes shrink with h
    and would dominate a raw maximum at every resolution.  The same band
    guard that caps resolvent scans is applied here; guard=False returns the
    unrestricted maximum over the computed spectrum.
    """
    vals = eigenvalues(system)
    if guard:
        band = vals[np.abs(vals.imag) <= scan_cap(system)]
        if band.size:
            vals = band
    return float(np.max(vals.real))


def resonance_floor(system, lam):
    """sigma_min(i lam - A) at or below which i lam counts as an eigenvalue:
    RESONANCE_RTOL (|lam| + w), w = sqrt(max_i sum_j |K_ij| / R_i) bounding
    the frequencies by Gershgorin."""
    rows = np.asarray(abs(system.parts.stiffness).sum(axis=1)).ravel() / system.parts.mass
    return RESONANCE_RTOL * np.abs(lam) + RESONANCE_RTOL * np.sqrt(np.max(rows))


def on_axis(system, eigs: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues with |Re| at or below the resonance floor."""
    return np.abs(eigs.real) <= resonance_floor(system, eigs.imag)


def _axis_resolvent(system):
    """norm(lam), the energy-norm resolvent at i lam.  States x = [q; p] hold
    both halves in node order; the energy product is x_q^H K y_q + x_p^H R y_p.
    The Lanczos start is fixed and generic: it misses no symmetry class."""
    parts = system.parts
    K, R, C, m = parts.stiffness, parts.mass, parts.damping, parts.mass.size
    start = system.node_state(np.random.default_rng(0).standard_normal(system.dimension) + 0j)
    gram = lambda x: np.concatenate([K @ x[:m], R * x[m:]])  # noqa: E731
    floor = resonance_floor(system, 0.0)

    def norm(lam: float) -> float:
        il = 1j * lam
        try:
            lu_solve = pencil_solver(parts, il)
        except np.linalg.LinAlgError:
            raise ResonantFrequencyError(lam, 0.0) from None

        def solve(v, adjoint):  # (i lam - A)^-1 v, or (i lam - A~)^-1 v if adjoint
            q = lu_solve(R * v[m:] + (il * R + (-C if adjoint else C)) * v[:m], adjoint)
            return np.concatenate([q, il * q - v[:m]])

        theta = lanczos_top(lambda v: -solve(solve(v, False), True), gram, start, 1,
                            LANCZOS_MAXITER, LANCZOS_RTOL)[0][0]
        sigma = 1.0 / np.sqrt(theta)  # 0 for an overflowing, resonant solve
        if not sigma > RESONANCE_RTOL * abs(lam) + floor:  # resonance_floor(system, lam)
            raise ResonantFrequencyError(lam, sigma)
        return float(np.sqrt(theta))
    return norm


@dataclass
class AxisScan:
    lambdas: np.ndarray
    norms: np.ndarray

    @property
    def peak_lambda(self) -> float:
        return float(self.lambdas[np.argmax(self.norms)])

    @property
    def peak_norm(self) -> float:
        return float(np.max(self.norms))


def scan_axis(system, lambdas) -> AxisScan:
    """Resolvent norms over an increasing grid of positive frequencies, in
    grid order.  From SCAN_FORK_WORK frequencies times dimension they are
    dealt over processes (fork_map); a resonant frequency raises as in one
    process, the first in grid order."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-d array")
    if np.any(lambdas <= 0) or np.any(np.diff(lambdas) <= 0):
        raise ValueError("frequency grid must be positive and strictly increasing")
    norm = _axis_resolvent(system)
    run = fork_map if lambdas.size * system.dimension >= SCAN_FORK_WORK else map
    return AxisScan(lambdas=lambdas, norms=np.array(list(run(norm, lambdas))))


def scan_cap(system) -> float:
    """Largest trustworthy frequency, half the lowest grid band edge.

    Each wave family has its own spectral edge 2*c/h; the slowest family's
    edge bounds the window where every branch is resolved.  With unequal
    speeds the slow edge sits below the fast one and carries edge modes whose
    coupling to the damping degenerates (at unequal bending speed an exactly
    conservative pair appears at lam = 2*c_min/h), so the guard must stay
    under the minimum, not the maximum, family speed.
    """
    return 0.5 * system.params.min_wave_speed * np.pi / system.grid.h


def default_axis_grid(system, lam_min: float = 1.0, lam_max: float | None = None,
                      count: int = 48) -> np.ndarray:
    """Log-spaced backbone of count frequencies from lam_min to lam_max
    (capped at scan_cap), both ends exact; it needs no spectrum, so an
    empty window is refused before one is computed."""
    cap = scan_cap(system)
    lam_max = cap if lam_max is None else min(float(lam_max), cap)
    if not 0 < lam_min < lam_max:
        raise ValueError(f"need 0 < lam_min < lam_max, got [{lam_min}, {lam_max}]")
    return np.geomspace(lam_min, lam_max, count)


def insert_peaks(system, grid: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """The grid with resonance peaks inserted, sorted.

    A plain log grid steps over the O(1/|Re|) wide peaks that carry the
    sup-axis growth, so the least-damped eigenfrequency of every log bin
    between the grid's ends is inserted.  Eigenvalues that ``on_axis``
    flags are skipped: the scan would refuse them.
    """
    lam_min, lam_max = grid[0], grid[-1]
    keep = (eigs.imag >= lam_min) & (eigs.imag <= lam_max) & ~on_axis(system, eigs)
    freqs, damp = eigs.imag[keep], np.abs(eigs.real[keep])
    bins = np.floor(np.log10(freqs / lam_min) * BINS_PER_DECADE).astype(int)
    peaks = [freqs[bins == b][np.argmin(damp[bins == b])] for b in np.unique(bins)]
    return np.unique(np.concatenate([grid, peaks]))


@dataclass
class GrowthFit:
    alpha: float
    ci: tuple[float, float]
    window: tuple[float, float]
    n_used: int


def fit_growth_exponent(lambdas, norms, window=None) -> GrowthFit:
    """Least-squares slope of log r against log lambda near the top of the
    scanned band, with a 95 percent confidence interval.

    window: None for the top half decade, or an explicit (lam_lo, lam_hi)
    pair.  Only the envelope maxima of the log bins enter the fit, which
    keeps valley samples from biasing the slope of a peaky resolvent curve.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    norms = np.asarray(norms, dtype=float)
    lam_hi = lambdas.max()
    if window is None:
        lam_lo = lam_hi / np.sqrt(10.0)
    else:
        lam_lo, lam_hi = window
    keep = (lambdas >= lam_lo * (1 - 1e-12)) & (lambdas <= lam_hi * (1 + 1e-12))
    x = np.log(lambdas[keep])
    y = np.log(norms[keep])
    bins = np.floor(x / np.log(10.0) * BINS_PER_DECADE).astype(int)
    pick = [np.flatnonzero(bins == b)[np.argmax(y[bins == b])] for b in np.unique(bins)]
    x, y = x[pick], y[pick]
    m = x.size
    if m < 8:
        raise ValueError(f"growth fit window holds {m} samples, need at least 8")
    if np.ptp(x) == 0.0:
        raise ValueError("growth fit window is degenerate")
    import scipy.special  # here, so that importing the package does not load it

    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = np.sqrt(float(resid @ resid) / (m - 2) / sxx) if m > 2 else np.inf
    half = scipy.special.stdtrit(m - 2, 0.975) * se
    return GrowthFit(alpha=float(slope), ci=(float(slope - half), float(slope + half)),
                     window=(float(lam_lo), float(lam_hi)), n_used=m)


def growth_ratio(scan: AxisScan) -> float:
    """Peak norm in the top decade of the scan over that in its bottom decade."""
    lam, r = scan.lambdas, scan.norms
    top = r[lam >= lam.max() / 10.0]
    bottom = r[lam <= lam.min() * 10.0]
    return float(top.max() / bottom.max())

