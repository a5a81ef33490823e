"""Decay-law fits and classification for energy time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import EnergyTimeSeries
from .model import DecayLaw


MIN_DROP_DECADES = 2.0  # decay a run needs before classify_decay compares laws
TIE_MARGIN = 0.01       # r^2 difference below which the two fits tie
TAIL_FRACTION = 1.0 / 3.0  # share of the simulated time span the default window covers


class FitWindowError(ValueError):
    """Fit window empty, too short, or otherwise unusable."""


@dataclass
class DecayFit:
    law: DecayLaw
    rate: float          # omega for exponential, exponent p for polynomial
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_used: int


def tail_window(series: EnergyTimeSeries) -> tuple[float, float]:
    """Last TAIL_FRACTION of the simulated time span."""
    t0, t1 = float(series.times[0]), float(series.times[-1])
    return (t1 - TAIL_FRACTION * (t1 - t0), t1)


def _window_data(series, window):
    if window is None:
        window = tail_window(series)
    t_lo, t_hi = window
    keep = (series.times >= t_lo) & (series.times <= t_hi)
    t = series.times[keep]
    E = series.energy[keep]
    if t.size < 8:
        raise FitWindowError(f"window [{t_lo:g}, {t_hi:g}] holds {t.size} samples, need 8")
    if np.any(E <= 0.0):
        raise FitWindowError("window contains nonpositive energies")
    return t, E, (float(t_lo), float(t_hi))


def _r_squared(y, y_hat):
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-300:
        return 1.0 if ss_res <= 1e-300 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_exponential(series: EnergyTimeSeries, window=None) -> DecayFit:
    """Fit E(t) ~ prefactor * exp(-omega t) on the window (default: tail third)."""
    t, E, win = _window_data(series, window)
    slope, intercept = np.polyfit(t, np.log(E), 1)
    r2 = _r_squared(np.log(E), slope * t + intercept)
    return DecayFit(law=DecayLaw.EXPONENTIAL, rate=float(-slope),
                    prefactor=float(np.exp(intercept)), r_squared=r2,
                    window=win, n_used=t.size)


def fit_polynomial(series: EnergyTimeSeries, window=None) -> DecayFit:
    """Fit E(t) ~ prefactor * t^(-p); the window must exclude t <= 1 so the
    log-log transform is monotone in the decade sense."""
    t, E, win = _window_data(series, window)
    if win[0] <= 1.0:
        raise FitWindowError("polynomial fit window must exclude t <= 1")
    x = np.log(t)
    slope, intercept = np.polyfit(x, np.log(E), 1)
    r2 = _r_squared(np.log(E), slope * x + intercept)
    p = -slope
    law = DecayLaw.POLYNOMIAL_ONE if abs(p - 1.0) <= abs(p - 0.5) else DecayLaw.POLYNOMIAL_HALF
    return DecayFit(law=law, rate=float(p), prefactor=float(np.exp(intercept)),
                    r_squared=r2, window=win, n_used=t.size)


@dataclass
class Classification:
    law: DecayLaw | None
    inconclusive: bool
    reason: str
    chosen: DecayFit | None
    exponential: DecayFit | None
    polynomial: DecayFit | None


def classify_decay(series: EnergyTimeSeries, window=None) -> Classification:
    """Pick the better of the exponential and power-law descriptions on the
    window (default: tail_window).

    The comparison is declined (Inconclusive) when the run has not decayed
    through MIN_DROP_DECADES yet, when the log-log window cannot exclude
    t <= 1, or when the two transformed r-squared values differ by less than
    TIE_MARGIN.
    """
    E0 = float(series.energy[0])
    E_end = float(series.energy[-1])
    if E0 <= 0:
        return Classification(None, True, "no initial energy", None, None, None)
    drop = np.log10(E0 / max(E_end, 1e-300))
    if drop < 0.1:
        return Classification(None, True, "no decay", None, None, None)
    if drop < MIN_DROP_DECADES:
        return Classification(None, True,
                              f"only {drop:.2f} decades of decay so far", None, None, None)

    if window is None:
        window = tail_window(series)
    t_lo, t_hi = window
    exp_fit = fit_exponential(series, (t_lo, t_hi))
    poly_lo = max(t_lo, np.nextafter(1.0, np.inf))
    if t_hi <= 1.0:
        return Classification(None, True, "run too short for a log-log window",
                              None, exp_fit, None)
    try:
        poly_fit = fit_polynomial(series, (poly_lo, t_hi))
    except FitWindowError as err:
        return Classification(None, True, f"power-law fit unavailable: {err}",
                              None, exp_fit, None)

    delta = exp_fit.r_squared - poly_fit.r_squared
    if abs(delta) < TIE_MARGIN:
        return Classification(None, True,
                              f"fits tie within {TIE_MARGIN} in r^2",
                              None, exp_fit, poly_fit)
    if delta > 0:
        return Classification(DecayLaw.EXPONENTIAL, False, "exponential fits better",
                              exp_fit, exp_fit, poly_fit)
    return Classification(poly_fit.law, False, "power law fits better",
                          poly_fit, exp_fit, poly_fit)


def bt_map(alpha: float) -> float:
    """Resolvent growth order alpha -> energy decay exponent 2/alpha.

    The map is an involution: applying it twice returns alpha.
    """
    if not alpha > 0:
        raise ValueError(f"growth order must be positive, got {alpha!r}")
    return 2.0 / alpha
