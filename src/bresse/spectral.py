"""Frequency-domain measurements: spectrum and resolvent growth.

The resolvent norm is taken in the energy inner product: with M = F^T F the
Cholesky split, r(lam) = 1 / sigma_min(F (i lam I - A) F^{-1}).  The weighted
matrix F A F^{-1} gets one real Schur factorization per system: its eigenvalues
are the spectrum, and its complex triangular form serves the scan, since
unitary similarity leaves singular values untouched and each frequency then
costs two triangular solves per inverse-iteration step.  A dense SVD route is
kept both as a cross-check and as the fallback when the iteration stalls.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
import scipy.special

RESONANCE_RTOL = 1e-14
BINS_PER_DECADE = 16  # log bins for peak insertion and the growth-fit envelope


class ResonantFrequencyError(RuntimeError):
    """Requested frequency is numerically on the spectrum."""

    def __init__(self, lam: float, sigma_min: float):
        super().__init__(
            f"i*{lam:g} is numerically an eigenvalue (sigma_min={sigma_min:.3e}); "
            "the resolvent norm is unbounded there")
        self.lam = lam
        self.sigma_min = sigma_min


def thread_count(requested: int | None = None) -> int:
    """Worker threads: the request, else BRESSE_THREADS, else the CPU count.
    A request or a BRESSE_THREADS value below 1 is refused."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"worker count must be a positive integer, got {requested}")
        return requested
    env = os.environ.get("BRESSE_THREADS", "").strip()
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"BRESSE_THREADS must be a positive integer, got {env!r}")
        return count
    return os.cpu_count() or 1


def eigenvalues(system) -> np.ndarray:
    """Full spectrum of the generator, sorted by imaginary part."""
    return _schur_factors(system).eigenvalues


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


@dataclass
class _SchurFactors:
    T: np.ndarray            # complex upper triangular, Fortran order, unitarily similar to F A F^-1
    eigenvalues: np.ndarray  # from the real Schur form: exact conjugate pairs, sorted by Im
    scale: float             # norm proxy used by the resonance guard


def _schur_factors(system) -> _SchurFactors:
    if system.schur is None:
        # system.M refuses a dimension above DENSE_CAP before allocating
        F = scipy.linalg.cholesky(system.M)          # M = F^T F, F upper
        X = F @ system.A
        # right-multiply by F^{-1} through a transposed triangular solve
        Atil = scipy.linalg.solve_triangular(F, X.T, trans="T", lower=False).T
        gees, = scipy.linalg.get_lapack_funcs(("gees",), (Atil,))
        # optimal workspace, as schur() queries it: the default minimum is slower
        lwork = int(gees(lambda re, im: None, Atil, lwork=-1)[-2][0].real)
        T, _, wr, wi, _, _, info = gees(lambda re, im: None, Atil, compute_v=0, lwork=lwork)
        if info:
            raise np.linalg.LinAlgError(f"real Schur factorization failed (info={info})")
        # singular values are unitarily invariant: rsf2csf gets dummy Schur vectors
        T, _ = scipy.linalg.rsf2csf(T, np.zeros_like(T))
        vals = wr + 1j * wi
        order = np.lexsort((vals.real, vals.imag))
        system.schur = _SchurFactors(T=np.asfortranarray(T), eigenvalues=vals[order],
                                     scale=float(np.linalg.norm(T, 1)))
    return system.schur


def _sigma_min_triangular(T1: np.ndarray) -> float:
    """Smallest singular value of an upper-triangular matrix by inverse
    iteration on (T1^H T1)^{-1} with a fixed start vector.  T1 is Fortran
    ordered, so LAPACK's trtrs solves with it in place."""
    d = T1.shape[0]
    trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (T1,))

    def solve_normal(x):  # resolvent_norm's guard keeps T1's diagonal nonzero
        return trtrs(T1, trtrs(T1, x, trans=2)[0])[0]

    op = scipy.sparse.linalg.LinearOperator((d, d), matvec=solve_normal, dtype=complex)
    v0 = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    try:
        theta = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0, tol=0,
                                          return_eigenvectors=False)
        return float(1.0 / np.sqrt(theta[0]))
    except (scipy.sparse.linalg.ArpackError, scipy.sparse.linalg.ArpackNoConvergence,
            FloatingPointError, ValueError):
        return float(scipy.linalg.svdvals(T1)[-1])


def resolvent_norm(system, lam: float, method: str = "iterative") -> float:
    """Energy-weighted resolvent norm at the axis point i*lam.

    method "iterative" uses inverse iteration on the triangular factor;
    "svd" computes all singular values densely.  Both raise
    ResonantFrequencyError when i*lam sits on the spectrum to rounding.
    """
    if method not in ("iterative", "svd"):
        raise ValueError(f"unknown method {method!r}")
    fac = _schur_factors(system)
    d = fac.T.shape[0]
    T1 = -fac.T                     # a Fortran-ordered copy, shifted in place
    T1.flat[::d + 1] += 1j * lam
    floor = RESONANCE_RTOL * (abs(lam) + fac.scale)
    gap = float(np.min(np.abs(np.diag(T1))))  # a triangular T1 has sigma_min <= gap
    if gap <= floor:
        raise ResonantFrequencyError(lam, gap)
    if method == "svd":
        sigma = float(scipy.linalg.svdvals(T1)[-1])
    else:
        sigma = _sigma_min_triangular(T1)
    if sigma <= floor:
        raise ResonantFrequencyError(lam, sigma)
    return 1.0 / sigma


@dataclass
class AxisScan:
    lambdas: np.ndarray
    norms: np.ndarray

    @property
    def peak_index(self) -> int:
        return int(np.argmax(self.norms))

    @property
    def peak_lambda(self) -> float:
        return float(self.lambdas[self.peak_index])

    @property
    def peak_norm(self) -> float:
        return float(self.norms[self.peak_index])


def scan_axis(system, lambdas, workers: int | None = None) -> AxisScan:
    """Resolvent norms over an increasing grid of positive frequencies.

    Each frequency is independent of the others; they are evaluated on a
    thread pool (LAPACK releases the interpreter lock) and returned in
    grid order.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-d array")
    if np.any(lambdas <= 0) or np.any(np.diff(lambdas) <= 0):
        raise ValueError("frequency grid must be positive and strictly increasing")
    _schur_factors(system)  # build once before fanning out
    n_workers = min(thread_count(workers), lambdas.size)
    if n_workers == 1:
        norms = [resolvent_norm(system, lam) for lam in lambdas]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            norms = list(pool.map(lambda lam: resolvent_norm(system, lam), lambdas))
    return AxisScan(lambdas=lambdas, norms=np.asarray(norms))


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
                      count: int = 48, eigs: np.ndarray | None = None) -> np.ndarray:
    """Log-spaced backbone, optionally augmented with resonance peaks.

    A plain log grid steps over the O(1/|Re|) wide peaks that carry the
    sup-axis growth, so when the spectrum is available the least-damped
    eigenfrequency of every log bin is inserted into the grid.
    """
    cap = scan_cap(system)
    lam_max = cap if lam_max is None else min(float(lam_max), cap)
    if not 0 < lam_min < lam_max:
        raise ValueError(f"need 0 < lam_min < lam_max, got [{lam_min}, {lam_max}]")
    grid = np.geomspace(lam_min, lam_max, count)
    if eigs is not None and len(eigs):
        freqs = eigs.imag
        keep = (freqs >= lam_min) & (freqs <= lam_max)
        if np.any(keep):
            freqs = freqs[keep]
            damp = np.abs(eigs.real[keep])
            bins = np.floor(np.log10(freqs / lam_min) * BINS_PER_DECADE).astype(int)
            peaks = []
            for b in np.unique(bins):
                sel = bins == b
                peaks.append(freqs[sel][np.argmin(damp[sel])])
            grid = np.unique(np.concatenate([grid, peaks]))
    return grid


@dataclass
class GrowthFit:
    alpha: float
    ci: tuple[float, float]
    window: tuple[float, float]
    n_used: int


def fit_growth_exponent(lambdas, norms, window=None,
                        bins_per_decade: int | None = BINS_PER_DECADE) -> GrowthFit:
    """Least-squares slope of log r against log lambda near the top of the
    scanned band, with a 95 percent confidence interval.

    window: None for the top half decade, a float f for the top f fraction
    of the log range, or an explicit (lam_lo, lam_hi) pair.  With binning
    enabled only the per-bin envelope maxima enter the fit, which keeps
    valley samples from biasing the slope of a peaky resolvent curve.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    norms = np.asarray(norms, dtype=float)
    lam_hi = lambdas.max()
    if window is None:
        lam_lo = lam_hi / np.sqrt(10.0)
    elif isinstance(window, tuple):
        lam_lo, lam_hi = window
    else:
        span = np.log10(lam_hi / lambdas.min())
        lam_lo = lam_hi / 10 ** (float(window) * span)
    keep = (lambdas >= lam_lo * (1 - 1e-12)) & (lambdas <= lam_hi * (1 + 1e-12))
    x = np.log(lambdas[keep])
    y = np.log(norms[keep])
    if bins_per_decade:
        bins = np.floor(x / np.log(10.0) * bins_per_decade).astype(int)
        pick = [np.flatnonzero(bins == b)[np.argmax(y[bins == b])]
                for b in np.unique(bins)]
        x, y = x[pick], y[pick]
    m = x.size
    if m < 8:
        raise ValueError(f"growth fit window holds {m} samples, need at least 8")
    if np.ptp(x) == 0.0:
        raise ValueError("growth fit window is degenerate")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = np.sqrt(float(resid @ resid) / (m - 2) / sxx) if m > 2 else np.inf
    half = scipy.special.stdtrit(m - 2, 0.975) * se
    return GrowthFit(alpha=float(slope), ci=(float(slope - half), float(slope + half)),
                     window=(float(lam_lo), float(lam_hi)), n_used=m)


def growth_ratio(scan: AxisScan, decades: float = 1.0) -> float:
    """Peak norm in the top band over peak norm in the bottom band."""
    lam, r = scan.lambdas, scan.norms
    top = r[lam >= lam.max() / 10 ** decades]
    bottom = r[lam <= lam.min() * 10 ** decades]
    return float(top.max() / bottom.max())

