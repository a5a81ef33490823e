"""Continuous model data for the damped Bresse beam.

Holds the material parameters of the three coupled wave fields (vertical
displacement, shear angle, longitudinal displacement), the locally supported
damping coefficient acting on the shear-angle velocity, the boundary
condition variants, and the classification of the wave-speed regime that
decides which energy decay law to expect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# relative tolerance for deciding parameter coincidences; the decay law is
# discontinuous across these manifolds so the tolerance is deliberately tight
REGIME_RTOL = 1e-12
# a DNN length within DNN_RTOL * L of a multiple of pi/l is refused
DNN_RTOL = 1e-9


class BoundaryCondition(Enum):
    """End conditions for (vertical, shear, longitudinal) at x=0 and x=L.

    DNN clamps the vertical displacement and leaves the other two fields
    with zero-slope (free) ends; DDD clamps all three.
    """

    DNN = "DNN"
    DDD = "DDD"


class Regime(Enum):
    EQUAL_SPEED = "EqualSpeed"          # kappa == kappa0 and rho1/rho2 == kappa/b
    EQUAL_KAPPA_ONLY = "EqualKappaOnly"  # kappa == kappa0 only
    GENERAL = "General"                  # kappa != kappa0


class DecayLaw(Enum):
    EXPONENTIAL = "Exponential"
    POLYNOMIAL_ONE = "PolynomialOne"     # energy ~ 1/t
    POLYNOMIAL_HALF = "PolynomialHalf"   # energy ~ 1/sqrt(t)

    @property
    def resolvent_growth_order(self) -> float:
        """Predicted growth exponent of the resolvent norm along i*R."""
        return _GROWTH_ORDER[self]

    @property
    def energy_exponent(self) -> float | None:
        """Exponent p in E(t) <= C/t^p, or None for the exponential law."""
        if self is DecayLaw.EXPONENTIAL:
            return None
        return 2.0 / self.resolvent_growth_order


_GROWTH_ORDER = {
    DecayLaw.EXPONENTIAL: 0.0,
    DecayLaw.POLYNOMIAL_ONE: 2.0,
    DecayLaw.POLYNOMIAL_HALF: 4.0,
}


@dataclass(frozen=True)
class BeamParameters:
    """Material and geometric constants.

    rho1, rho2 : inertial densities of (vertical, longitudinal) and shear
    kappa      : shear stiffness
    kappa0     : longitudinal stiffness
    b          : bending stiffness
    l          : initial curvature (inverse radius)
    L          : beam length
    """

    rho1: float
    rho2: float
    kappa: float
    kappa0: float
    b: float
    l: float
    L: float

    def __post_init__(self):
        for name in ("rho1", "rho2", "kappa", "kappa0", "b", "l", "L"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"parameter {name} must be positive and finite, got {val!r}")

    @property
    def shear_speed(self) -> float:
        return math.sqrt(self.kappa / self.rho1)

    @property
    def bending_speed(self) -> float:
        return math.sqrt(self.b / self.rho2)

    @property
    def longitudinal_speed(self) -> float:
        return math.sqrt(self.kappa0 / self.rho1)

    @property
    def max_wave_speed(self) -> float:
        return max(self.shear_speed, self.bending_speed, self.longitudinal_speed)

    @property
    def min_wave_speed(self) -> float:
        return min(self.shear_speed, self.bending_speed, self.longitudinal_speed)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REGIME_RTOL * max(abs(x), abs(y))


def classify_regime(params: BeamParameters) -> Regime:
    """Decide the wave-speed regime.

    Equal speeds means kappa == kappa0 together with rho1/rho2 == kappa/b;
    the ratio condition is tested as rho1*b == rho2*kappa so the outcome is
    invariant under a common rescaling of the stiffnesses or the densities.
    """
    if not _close(params.kappa, params.kappa0):
        return Regime.GENERAL
    if _close(params.rho1 * params.b, params.rho2 * params.kappa):
        return Regime.EQUAL_SPEED
    return Regime.EQUAL_KAPPA_ONLY


def predicted_decay(regime: Regime) -> DecayLaw:
    """Decay law the stability theory predicts for each regime."""
    return {
        Regime.EQUAL_SPEED: DecayLaw.EXPONENTIAL,
        Regime.EQUAL_KAPPA_ONLY: DecayLaw.POLYNOMIAL_ONE,
        Regime.GENERAL: DecayLaw.POLYNOMIAL_HALF,
    }[regime]


@dataclass(frozen=True)
class DnnAdmissibility:
    ok: bool
    nearest_n: int
    gap: float
    tol: float


def check_dnn_admissible(params: BeamParameters) -> DnnAdmissibility:
    """Check L != n*pi/l for every integer n >= 1.

    At those lengths the DNN energy seminorm degenerates (a smooth stationary
    field with zero strain appears) and the problem is ill posed, so
    assembling is refused there.  The gap is measured in absolute length
    units, against the tolerance DNN_RTOL * L.
    """
    tol_abs = DNN_RTOL * params.L
    step = math.pi / params.l
    nearest = max(1, round(params.L / step))
    gap = min(abs(params.L - n * step) for n in (nearest - 1, nearest, nearest + 1) if n >= 1)
    return DnnAdmissibility(ok=gap > tol_abs, nearest_n=nearest, gap=gap, tol=tol_abs)


class DampingShape(Enum):
    PIECEWISE_CONSTANT = "PiecewiseConstant"
    SMOOTHED_PLATEAU = "SmoothedPlateau"


@dataclass(frozen=True)
class DampingProfile:
    """Damping coefficient a(x) supported on the open interval (alpha, beta).

    a0 is the plateau level; a0 = 0 gives the undamped (conservative) system.
    SmoothedPlateau ramps linearly from 0 to a0 over a width ``ramp`` at each
    end of the support, so a(x) >= a0 on [alpha+ramp, beta-ramp].
    """

    alpha: float
    beta: float
    a0: float
    shape: DampingShape = DampingShape.PIECEWISE_CONSTANT
    ramp: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"support start must be >= 0, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > self.alpha):
            raise ValueError("support must be a nonempty interval alpha < beta")
        if not (math.isfinite(self.a0) and self.a0 >= 0):
            raise ValueError(f"damping level a0 must be >= 0, got {self.a0!r}")
        if self.shape is DampingShape.PIECEWISE_CONSTANT:
            if self.ramp != 0.0:
                raise ValueError("ramp width only applies to the smoothed shape")
        else:
            if not (0.0 < self.ramp <= 0.5 * (self.beta - self.alpha)):
                raise ValueError("ramp width must lie in (0, (beta-alpha)/2]")

    def validate_for_length(self, L: float) -> None:
        if self.beta > L:
            raise ValueError(f"damping support end {self.beta} exceeds beam length {L}")


def damping_values(profile: DampingProfile, x, length: float) -> np.ndarray:
    """Evaluate a(x) at points x in [0, length]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > length):
        raise ValueError("evaluation points must lie in [0, L]")
    profile.validate_for_length(length)
    if profile.shape is DampingShape.PIECEWISE_CONSTANT:
        return np.where((x > profile.alpha) & (x < profile.beta), profile.a0, 0.0)
    up = (x - profile.alpha) / profile.ramp
    down = (profile.beta - x) / profile.ramp
    return profile.a0 * np.clip(np.minimum(up, down), 0.0, 1.0)


def damping_at(profile: DampingProfile, x: float, length: float) -> float:
    return float(damping_values(profile, np.asarray([x]), length)[0])
