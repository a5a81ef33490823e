"""Decay-law extraction on synthetic series with known closed forms."""

import numpy as np
import pytest

from bresse.evolve import EnergyTimeSeries
from bresse.fitting import (
    FitWindowError,
    bt_map,
    classify_decay,
    fit_exponential,
    fit_polynomial,
    tail_window,
)
from bresse.model import DecayLaw


def series_of(times, energies):
    t = np.asarray(times, dtype=float)
    E = np.asarray(energies, dtype=float)
    return EnergyTimeSeries(times=t, energy=E, dissipation=np.zeros_like(t))


def test_exponential_fit_exact():
    t = np.linspace(0.0, 10.0, 201)
    fit = fit_exponential(series_of(t, 3.0 * np.exp(-2.0 * t)), window=(0.0, 10.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.law is DecayLaw.EXPONENTIAL
    assert fit.n_used == 201


def test_exponential_fit_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    fit = fit_exponential(series_of(t, np.full(50, 4.0)))
    assert fit.rate == pytest.approx(0.0, abs=1e-14)
    assert fit.prefactor == pytest.approx(4.0, rel=1e-12)


def test_polynomial_fit_exact():
    t = np.linspace(2.0, 50.0, 300)
    fit = fit_polynomial(series_of(t, 5.0 * t ** -1.0), window=(2.0, 50.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-12)
    assert fit.law is DecayLaw.POLYNOMIAL_ONE
    half = fit_polynomial(series_of(t, t ** -0.6), window=(2.0, 50.0))
    assert half.law is DecayLaw.POLYNOMIAL_HALF
    assert half.rate == pytest.approx(0.6, abs=1e-12)


def test_polynomial_window_must_exclude_small_times():
    t = np.linspace(0.5, 10.0, 100)
    with pytest.raises(FitWindowError, match="t <= 1"):
        fit_polynomial(series_of(t, t ** -1.0), window=(0.5, 10.0))


def test_window_needs_eight_positive_samples():
    t = np.linspace(0.0, 10.0, 100)
    E = np.exp(-t)
    with pytest.raises(FitWindowError, match="need 8"):
        fit_exponential(series_of(t, E), window=(9.8, 10.0))
    E[-10:] = 0.0
    with pytest.raises(FitWindowError, match="nonpositive"):
        fit_exponential(series_of(t, E), window=(8.0, 10.0))


def test_tail_window_final_third():
    t = np.linspace(2.0, 32.0, 31)
    lo, hi = tail_window(series_of(t, np.exp(-t)))
    assert hi == 32.0
    assert lo == pytest.approx(22.0, rel=1e-12)


def test_polynomial_exponent_window_shift_invariance():
    t = np.geomspace(1.5, 400.0, 600)
    ser = series_of(t, 2.0 * t ** -0.7)
    first = fit_polynomial(ser, window=(2.0, 100.0))
    shifted = fit_polynomial(ser, window=(4.0, 200.0))
    assert abs(first.rate - shifted.rate) <= 2.0 / first.n_used


def test_classify_exponential_data():
    # the window spans many decades so the two transforms separate
    t = np.linspace(0.0, 30.0, 400)
    verdict = classify_decay(series_of(t, np.exp(-t)), window=(1.5, 30.0))
    assert not verdict.inconclusive
    assert verdict.law is DecayLaw.EXPONENTIAL
    assert verdict.chosen.r_squared > verdict.polynomial.r_squared + 0.01


def test_classify_power_law_data():
    t = np.linspace(1.0, 40000.0, 3000)
    verdict = classify_decay(series_of(t, t ** -0.5), window=(2.0, 40000.0))
    assert not verdict.inconclusive
    assert verdict.law is DecayLaw.POLYNOMIAL_HALF
    assert verdict.chosen.rate == pytest.approx(0.5, abs=0.05)
    assert verdict.polynomial.r_squared > verdict.exponential.r_squared


def test_classify_constant_inconclusive():
    t = np.linspace(0.0, 10.0, 50)
    verdict = classify_decay(series_of(t, np.ones(50)))
    assert verdict.inconclusive
    assert "no decay" in verdict.reason


def test_classify_insufficient_drop():
    t = np.linspace(0.0, 10.0, 200)
    verdict = classify_decay(series_of(t, np.exp(-0.1 * t)))
    assert verdict.inconclusive
    assert "decades" in verdict.reason


def test_classify_tie_is_inconclusive():
    # a power law seen through a narrow window fits both transforms; from
    # t = 1 the run has dropped more than two decades
    t = np.linspace(1.0, 150.0, 300)
    verdict = classify_decay(series_of(t, t ** -1.0), window=(100.0, 150.0))
    assert verdict.inconclusive
    assert "tie" in verdict.reason
    assert verdict.exponential is not None and verdict.polynomial is not None


def test_growth_to_energy_exponent_map():
    assert bt_map(2.0) == 1.0
    assert bt_map(4.0) == 0.5
    assert bt_map(1.0) == 2.0
    assert bt_map(1.0) > bt_map(2.0) > bt_map(4.0)
    for q in (0.5, 1.0, 2.0, 4.0):
        assert bt_map(bt_map(q)) == q
    with pytest.raises(ValueError):
        bt_map(0.0)
    with pytest.raises(ValueError):
        bt_map(-2.0)
