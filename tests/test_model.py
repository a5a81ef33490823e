"""Parameter bookkeeping: wave speeds, regime classification, damping shapes."""

import math

import numpy as np
import pytest

from bresse.model import (
    DNN_RTOL,
    BeamParameters,
    DampingProfile,
    DampingShape,
    DecayLaw,
    Regime,
    check_dnn_admissible,
    classify_regime,
    damping_values,
    predicted_decay,
)
from bresse.fitting import bt_map

from conftest import beam


def test_wave_speeds_closed_form():
    p = beam(rho1=4.0, rho2=9.0, kappa=16.0, kappa0=25.0, b=36.0)
    assert p.shear_speed == 2.0
    assert p.bending_speed == 2.0
    assert p.longitudinal_speed == 2.5
    assert p.max_wave_speed == 2.5
    assert p.min_wave_speed == 2.0


def test_parameter_positivity_enforced():
    for name in ("rho1", "rho2", "kappa", "kappa0", "b", "l", "L"):
        with pytest.raises(ValueError):
            beam(**{name: 0.0})
        with pytest.raises(ValueError):
            beam(**{name: -1.0})


def test_regime_classification_four_corners():
    assert classify_regime(beam()) is Regime.EQUAL_SPEED
    assert classify_regime(beam(b=2.0)) is Regime.EQUAL_KAPPA_ONLY
    assert classify_regime(beam(kappa0=2.0)) is Regime.GENERAL
    assert classify_regime(beam(kappa0=2.0, b=2.0)) is Regime.GENERAL


def test_regime_tolerance_boundary():
    assert classify_regime(beam(rho2=1.0 + 1e-13)) is Regime.EQUAL_SPEED
    assert classify_regime(beam(rho2=1.0 + 1e-9)) is Regime.EQUAL_KAPPA_ONLY


def test_predicted_decay_and_growth_orders():
    laws = {
        Regime.EQUAL_SPEED: (DecayLaw.EXPONENTIAL, 0.0, None),
        Regime.EQUAL_KAPPA_ONLY: (DecayLaw.POLYNOMIAL_ONE, 2.0, 1.0),
        Regime.GENERAL: (DecayLaw.POLYNOMIAL_HALF, 4.0, 0.5),
    }
    for regime, (law, order, exponent) in laws.items():
        assert predicted_decay(regime) is law
        assert law.resolvent_growth_order == order
        if exponent is not None:
            # the growth order maps to the law's energy exponent
            assert bt_map(order) == exponent


def test_geometry_admissibility_detects_resonant_length():
    bad = check_dnn_admissible(beam(l=1.0, L=math.pi))
    assert not bad.ok
    assert bad.nearest_n == 1
    ok = check_dnn_admissible(beam(l=1.0, L=3.5))
    assert ok.ok
    assert ok.gap > ok.tol
    # the unit setup (l=0.5, multiples of 2*pi) is safely admissible
    assert check_dnn_admissible(beam()).ok
    # the tolerance is DNN_RTOL * L: refused just inside it, accepted just outside
    assert not check_dnn_admissible(beam(l=1.0, L=math.pi * (1 + 0.5 * DNN_RTOL))).ok
    assert check_dnn_admissible(beam(l=1.0, L=math.pi * (1 + 2 * DNN_RTOL))).ok


def test_piecewise_constant_profile_values():
    p = DampingProfile(alpha=0.25, beta=0.75, a0=2.0)
    x = np.array([0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(damping_values(p, x, 1.0),
                                  [0.0, 0.0, 2.0, 2.0, 0.0, 0.0])


def test_smoothed_plateau_ramps_linearly():
    p = DampingProfile(alpha=0.2, beta=0.8, a0=4.0,
                       shape=DampingShape.SMOOTHED_PLATEAU, ramp=0.1)
    x = np.array([0.2, 0.25, 0.3, 0.5, 0.75, 0.9])
    np.testing.assert_allclose(damping_values(p, x, 1.0),
                               [0.0, 2.0, 4.0, 4.0, 2.0, 0.0], rtol=1e-12, atol=0)


def test_profile_validation():
    with pytest.raises(ValueError):
        DampingProfile(alpha=0.5, beta=0.5, a0=1.0)
    with pytest.raises(ValueError):
        DampingProfile(alpha=-0.1, beta=0.5, a0=1.0)
    with pytest.raises(ValueError):
        DampingProfile(alpha=0.0, beta=0.5, a0=-1.0)
    with pytest.raises(ValueError):
        DampingProfile(alpha=0.0, beta=0.5, a0=1.0, ramp=0.1)
    with pytest.raises(ValueError):
        DampingProfile(alpha=0.0, beta=0.5, a0=1.0,
                       shape=DampingShape.SMOOTHED_PLATEAU, ramp=0.3)
    # support past the beam end is caught against the length
    p = DampingProfile(alpha=0.5, beta=1.5, a0=1.0)
    with pytest.raises(ValueError):
        p.validate_for_length(1.0)
    with pytest.raises(ValueError):
        damping_values(p, np.array([0.5]), 1.0)


def test_zero_level_profile_is_allowed():
    p = DampingProfile(alpha=0.25, beta=0.75, a0=0.0)
    assert damping_values(p, 0.5, 1.0) == 0.0


def test_damping_points_outside_beam_rejected():
    p = DampingProfile(alpha=0.25, beta=0.75, a0=1.0)
    with pytest.raises(ValueError):
        damping_values(p, np.array([-0.1]), 1.0)
    with pytest.raises(ValueError):
        damping_values(p, np.array([1.1]), 1.0)
