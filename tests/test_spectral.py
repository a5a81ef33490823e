"""Spectrum and resolvent measurements, checked against from-scratch oracles.

The resolvent oracle below computes the energy-weighted smallest singular
value directly from the definition (dense Cholesky, explicit inverse, full
SVD) and shares no code with the production path, which is the banded
half-size route and builds no dense matrix.  The Schur spectrum, filled
from a half-size Cholesky factor, is checked against the eigenvalues of the
dense generator A, by scipy and in 30-digit arithmetic by mpmath, both
split into mirror sectors and in one block.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

from bresse import discretize, spectral
from bresse.discretize import DenseSolverCapError
from bresse.model import DampingShape
from bresse.spectral import (
    ResonantFrequencyError,
    default_axis_grid,
    eigenvalues,
    fit_growth_exponent,
    growth_ratio,
    insert_peaks,
    scan_axis,
    scan_cap,
    spectral_abscissa,
)

from conftest import DDD, DNN, beam, interval, scan_for, system_for


def oracle_singular_values(system, lam):
    F = np.linalg.cholesky(system.M).T
    W = F @ (1j * lam * np.eye(system.dimension) - system.A) @ np.linalg.inv(F)
    return np.linalg.svd(W, compute_uv=False)


def oracle_resolvent_norm(system, lam):
    return 1.0 / oracle_singular_values(system, lam).min()


def nearest_match_gap(ours, theirs):
    """Largest distance from a value in either set to its nearest in the other."""
    assert ours.size == theirs.size
    dist = np.abs(ours[:, None] - theirs[None, :])
    return max(dist.min(axis=0).max(), dist.min(axis=1).max())


def check_dense_eig_oracle(system, blocks):
    """The Schur spectrum against scipy's eigvals of the dense generator,
    each value matched to its nearest counterpart in both directions."""
    ours = eigenvalues(system)
    assert len(system.spectrum_blocks) == blocks
    assert sum(system.spectrum_blocks) == system.dimension // 2
    theirs = scipy.linalg.eigvals(system.A)
    assert nearest_match_gap(ours, theirs) <= 1e-12 * np.abs(theirs).max()


@pytest.mark.parametrize("bc", [DNN, DDD])
@pytest.mark.parametrize("a0", [1.0, 0.0])
def test_eigenvalues_match_dense_eig_oracle(bc, a0):
    """The centred support splits the spectrum into two mirror sectors."""
    check_dense_eig_oracle(system_for(beam(kappa0=2.0), interval(a0=a0), bc, 24), blocks=2)


@pytest.mark.parametrize("bc", [DNN, DDD])
@pytest.mark.parametrize("n, profile", [
    (25, interval()), (25, interval(a0=0.0)),
    (24, interval(shape=DampingShape.SMOOTHED_PLATEAU, ramp=0.1)),
    (24, interval(0.1, 0.6))], ids=["odd", "odd-undamped", "ramped", "asymmetric"])
def test_mirror_split_matches_dense_eig_oracle(bc, n, profile):
    """Odd meshes (no mid node for phi) and a ramped profile (its two sides
    round a few eps apart) split; an asymmetric support stays one block."""
    blocks = 1 if profile.alpha + profile.beta != 1.0 else 2
    check_dense_eig_oracle(system_for(beam(kappa0=2.0), profile, bc, n), blocks)


def mp_eigenvalues(A: np.ndarray, dps: int = 30) -> np.ndarray:
    """Eigenvalues of the double matrix A in dps-digit arithmetic (mpmath)."""
    with mpmath.workdps(dps):
        vals = mpmath.eig(mpmath.matrix(A.tolist()), left=False, right=False)
    return np.array([complex(v) for v in vals])


def check_extended_precision_oracle(system, blocks):
    """At n = 6 (the n = 4 abscissa sits at rounding) every Schur eigenvalue
    lies within 16 eps max|lam| of a 30-digit eigenvalue of the dense
    generator, and every 30-digit eigenvalue within that of a Schur one."""
    ours, exact = eigenvalues(system), mp_eigenvalues(system.A)
    assert len(system.spectrum_blocks) == blocks
    assert nearest_match_gap(ours, exact) <= 16 * np.finfo(float).eps * np.abs(exact).max()


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_eigenvalues_match_extended_precision_oracle(bc):
    check_extended_precision_oracle(system_for(beam(kappa0=2.0), interval(), bc, 6), blocks=2)


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_asymmetric_eigenvalues_match_extended_precision_oracle(bc):
    """The support ]0.1, 0.6[ couples the mirror sectors: it takes one block."""
    system = system_for(beam(kappa0=2.0), interval(0.1, 0.6), bc, 6)
    check_extended_precision_oracle(system, blocks=1)


@pytest.fixture
def no_svd_fallback(monkeypatch):
    """Make the dense SVD raise, so a norm can only come from the iteration."""
    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD fallback taken")

    monkeypatch.setattr(scipy.linalg, "svdvals", no_svd)


def check_near_resonant_norm(bc):
    """At the least-damped resolved mode of an unequal-speed system the
    smallest singular value is tiny; the iterative norm must still agree
    with the dense SVD up to Weyl's backward-error allowance."""
    system = system_for(beam(kappa0=2.0), interval(), bc, 50)
    eig = eigenvalues(system)
    band = eig[(eig.imag > 0) & (eig.imag <= scan_cap(system))]
    lam = float(band[np.argmax(band.real)].imag)
    sv = oracle_singular_values(system, lam)
    assert sv[-1] <= 1e-6 * sv[0]  # genuinely near the spectrum
    tol = 1e-8 * sv[-1] + 16 * np.finfo(float).eps * sv[0]
    assert abs(1.0 / scan_axis(system, [lam]).norms[0] - sv[-1]) <= tol


def test_near_resonant_norm_matches_svd_oracle(no_svd_fallback):
    check_near_resonant_norm(DNN)


def test_near_resonant_norm_matches_svd_oracle_ddd(no_svd_fallback):
    check_near_resonant_norm(DDD)


def test_eigenvalues_sorted_and_cached():
    system = system_for(beam(), interval(), DNN, 10)
    eig = eigenvalues(system)
    assert eig.shape == (system.dimension,)
    assert np.all(np.diff(eig.imag) >= 0)
    assert eigenvalues(system) is eig


def test_conjugation_closure():
    system = system_for(beam(b=1.4), interval(), DDD, 12)
    eig = eigenvalues(system)
    paired = np.sort_complex(np.conj(eig))
    assert np.abs(np.sort_complex(eig) - paired).max() <= 1e-10 * np.abs(eig).max()


def test_undamped_spectrum_is_imaginary():
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(a0=0.0), bc, 12)
        eig = eigenvalues(system)
        assert np.abs(eig.real).max() <= 1e-10 * np.abs(eig).max()


def test_damped_spectrum_strictly_in_left_half_plane():
    """Every eigenvalue sits strictly left of the axis; within the trusted
    band the real-part margin also clears the level that would flag a purely
    imaginary value.  Beyond the band only the sign is checked: with unequal
    wave speeds the slow-family band edge hosts nearly conservative lattice
    pairs whose margins are genuine discretization artifacts."""
    for params, bc in ((beam(), DNN), (beam(), DDD),
                       (beam(b=2.0), DNN), (beam(kappa0=2.0), DNN)):
        system = system_for(params, interval(), bc, 50)
        eig = eigenvalues(system)
        assert np.all(eig.real < 0)
        band = eig[np.abs(eig.imag) <= scan_cap(system)]
        assert np.all(np.abs(band.real) > 1e-10 * (1.0 + np.abs(band.imag)))


def test_abscissa_guard_and_unrestricted():
    system = system_for(beam(), interval(), DNN, 50)
    guarded = spectral_abscissa(system)
    raw = spectral_abscissa(system, guard=False)
    assert raw == eigenvalues(system).real.max()
    assert guarded <= raw < 0.0
    cap = scan_cap(system)
    band = eigenvalues(system)
    band = band[np.abs(band.imag) <= cap]
    assert guarded == band.real.max()


def test_scan_cap_formula():
    system = system_for(beam(kappa0=4.0, b=9.0), interval(), DDD, 10)
    c_min = system.params.min_wave_speed
    assert c_min == 1.0
    assert scan_cap(system) == 0.5 * c_min * np.pi / system.grid.h


def test_resolvent_matches_independent_oracle():
    """The banded norm against the dense SVD oracle to 1e-12: at three
    frequencies inside the band on both families, and in the far field
    (3 and 10 times the largest eigenfrequency) on both families at n = 10
    and 40, for the unit beam and kappa0 = 2.  Far out, S* S is about
    lam^-2 I, and the scan's Lanczos keeps its basis on the DNN border rows
    only because it takes their rounding off each vector (ROADMAP item 3)."""
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(), bc, 10)
        for lam in (0.7, 3.3, 17.0):
            expected = oracle_resolvent_norm(system, lam)
            assert scan_axis(system, [lam]).norms[0] == pytest.approx(expected, rel=1e-12)
    for bc in (DNN, DDD):
        for params in (beam(), beam(kappa0=2.0)):
            for n in (10, 40):
                system = system_for(params, interval(), bc, n)
                top = np.abs(eigenvalues(system).imag).max()
                for lam in (3.0 * top, 10.0 * top):
                    expected = oracle_resolvent_norm(system, lam)
                    assert scan_axis(system, [lam]).norms[0] == pytest.approx(expected,
                                                                              rel=1e-12)


def test_iterative_norm_needs_no_svd_fallback(no_svd_fallback):
    """Every iterative norm on log grids of a DNN and a DDD system comes from
    the Lanczos iteration alone and matches the oracle to 1e-12."""
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(), bc, 12)
        grid = np.geomspace(0.5, scan_cap(system), 16)
        want = [oracle_resolvent_norm(system, lam) for lam in grid]
        np.testing.assert_allclose(scan_axis(system, grid).norms, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_scan_builds_no_dense_matrix(monkeypatch, bc):
    """With the dense cap at zero, so that A, M and every dense half-size
    block refuse to build, a scan of a fresh system still matches the
    oracle computed under the real cap."""
    params = beam(kappa0=2.0)
    grid = np.geomspace(0.5, scan_cap(system_for(params, interval(), bc, 12)), 16)
    want = [oracle_resolvent_norm(system_for(params, interval(), bc, 12), lam)
            for lam in grid]
    fresh = discretize.assemble(params, interval(), bc, 12)
    monkeypatch.setattr(discretize, "DENSE_CAP", 0)
    with pytest.raises(DenseSolverCapError):
        fresh.A
    np.testing.assert_allclose(scan_axis(fresh, grid).norms, want, rtol=1e-12, atol=0)


def test_lanczos_stopped_early_raises(monkeypatch):
    """A Lanczos run cut off before it converges is a numerical failure,
    not a silently wrong norm."""
    system = system_for(beam(), interval(), DNN, 12)
    monkeypatch.setattr(spectral, "LANCZOS_MAXITER", 1)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        scan_axis(system, [3.3])


def test_resolvent_far_field_normal_dominance():
    """Far beyond the spectrum the norm must approach 1/distance."""
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(), bc, 10)
        top = np.abs(eigenvalues(system).imag).max()
        lam = 10.0 * top
        r = scan_axis(system, [lam]).norms[0]
        assert 0.5 <= r * (lam - top) <= 2.0


def test_resolvent_lower_bound_from_spectrum():
    system = system_for(beam(), interval(), DNN, 12)
    eig = eigenvalues(system)
    grid = np.geomspace(0.5, scan_cap(system), 12)
    dist = np.abs(1j * grid[:, None] - eig[None, :]).min(axis=1)
    assert np.all(scan_axis(system, grid).norms * dist >= 1.0 / 1.01)


def test_resonant_frequency_refused():
    system = system_for(beam(), interval(a0=0.0), DNN, 10)
    lam = float(np.abs(eigenvalues(system).imag).max())
    with pytest.raises(ResonantFrequencyError, match="eigenvalue"):
        scan_axis(system, [lam])


def test_dense_cap_enforced(monkeypatch):
    fresh = discretize.assemble(beam(), interval(), DDD, 8)
    monkeypatch.setattr(discretize, "DENSE_CAP", 10)
    with pytest.raises(DenseSolverCapError, match="smaller n"):
        eigenvalues(fresh)
    monkeypatch.setattr(discretize, "DENSE_CAP", fresh.dimension)
    assert eigenvalues(fresh).size == fresh.dimension
    assert "A" not in fresh.__dict__ and "M" not in fresh.__dict__  # no dense operators


def test_scan_axis_validation_and_single_point():
    system = system_for(beam(), interval(), DDD, 8)
    with pytest.raises(ValueError):
        scan_axis(system, np.array([]))
    with pytest.raises(ValueError):
        scan_axis(system, np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        scan_axis(system, np.array([2.0, 2.0]))
    single = scan_axis(system, np.array([3.0]))
    assert single.norms.shape == (1,)
    assert single.peak_lambda == 3.0
    assert single.peak_norm == pytest.approx(oracle_resolvent_norm(system, 3.0), rel=1e-12)


def test_default_grid_capped_and_peak_augmented():
    system = system_for(beam(), interval(), DNN, 10)
    cap = scan_cap(system)
    grid = default_axis_grid(cap, count=16)
    assert grid[0] == 1.0 and grid[-1] == pytest.approx(cap, rel=1e-12)
    assert np.all(np.diff(grid) > 0)
    # a sharply resonant synthetic eigenvalue must be inserted into the grid
    fake = np.array([-1e-6 + 5.123j, -2.0 + 6.0j])
    grid = insert_peaks(system, grid, fake)
    assert np.any(np.isclose(grid, 5.123))
    with pytest.raises(ValueError):
        default_axis_grid(cap, lam_min=cap * 2.0)


def test_growth_exponent_exact_on_synthetic_power_law():
    lam = np.geomspace(1.0, 100.0, 60)
    fit = fit_growth_exponent(lam, lam ** 2)
    assert abs(fit.alpha - 2.0) <= 1e-10
    assert fit.ci[0] <= 2.0 <= fit.ci[1]
    assert fit.n_used >= 8
    # the explicit window form agrees on exact data
    assert abs(fit_growth_exponent(lam, lam ** 2, window=(10.0, 100.0)).alpha
               - 2.0) <= 1e-10


def test_growth_exponent_needs_enough_samples():
    lam = np.geomspace(50.0, 100.0, 30)
    with pytest.raises(ValueError, match="at least 8"):
        fit_growth_exponent(lam, lam ** 2, window=(99.0, 100.0))


def test_growth_ratio_synthetic():
    lam = np.geomspace(1.0, 100.0, 49)
    scan = spectral.AxisScan(lambdas=lam, norms=lam.copy())
    assert growth_ratio(scan) == pytest.approx(10.0, rel=1e-12)


def test_equal_speed_margin_stable_under_refinement():
    a_course = spectral_abscissa(system_for(beam(), interval(), DNN, 50))
    a_fine = spectral_abscissa(system_for(beam(), interval(), DNN, 100))
    assert a_course < 0 and a_fine < 0
    assert 0.5 <= a_course / a_fine <= 2.0


def test_general_regime_peak_grows_with_refinement():
    """Unequal wave speeds: refining the mesh uncovers taller resonance
    peaks, the discrete signature of unbounded resolvent growth."""
    coarse = scan_for(beam(kappa0=2.0), interval(), DNN, 24)
    fine = scan_for(beam(kappa0=2.0), interval(), DNN, 48)
    assert fine.peak_norm / coarse.peak_norm >= 2.0
