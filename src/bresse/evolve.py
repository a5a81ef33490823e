"""Time evolution by the implicit midpoint (Cayley) rule.

One step is U+ = (I - dt/2 A)^{-1} (I + dt/2 A) U.  Because the scheme is the
Cayley transform of the generator, every quadratic invariant of the flow is
respected exactly: the discrete energy satisfies

    E(U+) - E(U) = -dt * D((U + U+)/2)

to rounding, where D is the damping quadrature, so undamped runs conserve
energy and damped runs dissipate it monotonically at machine precision.

``simulate`` converts its initial state once to node coordinates, ordered
node by node, and runs the whole loop there: each step is one banded solve,
an in-place update of x = [q; p] and one sparse product that yields the next
right-hand side together with the energy and dissipation of the new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import auto_dt
from .discretize import DiscreteSystem, bordered_band_solver, node_band


class NumericalBlowupError(RuntimeError):
    """State stopped being finite during time stepping."""


class EnergyMonotonicityError(RuntimeError):
    """Discrete energy increased beyond the roundoff allowance."""


class SingularStepError(RuntimeError):
    """The implicit step matrix is singular to working precision."""


SMOOTH_FRACTION = 0.1


@dataclass(frozen=True)
class Modal:
    """k-th undamped mode (1-based, ordered by frequency), energy-normalized."""
    index: int = 1


@dataclass(frozen=True)
class RandomSmooth:
    """Seeded random combination of the lowest SMOOTH_FRACTION of the
    undamped modes, energy-normalized; the low cutoff keeps the data resolved."""
    seed: int = 0


@dataclass
class Custom:
    """Caller-supplied state vector in the reduced coordinates, used as is."""
    vector: np.ndarray


InitialData = Modal | RandomSmooth | Custom


def default_dt(system: DiscreteSystem) -> float:
    """h / (2 c_max): about four steps per fastest cell-crossing time."""
    return auto_dt(system.params, system.grid.n)


def undamped_modes(system: DiscreteSystem):
    """Frequencies and shapes of the conservative part, by increasing frequency,
    from one symmetric solve K phi = w^2 R phi with K and R the stiffness and
    velocity blocks of M.  Mode k spans the states (phi_k, 0) and
    (0, w_k phi_k); the shapes are scaled so each of those carries energy 1/2.
    """
    w2, shapes = scipy.linalg.eigh(system.reduced_stiffness, np.diag(system.velocity_mass))
    freqs = np.sqrt(w2)
    return freqs, shapes / freqs


def make_initial(system: DiscreteSystem, spec: InitialData) -> np.ndarray:
    if isinstance(spec, Custom):
        U = np.asarray(spec.vector, dtype=float).copy()
        if U.shape != (system.dimension,):
            raise ValueError(f"custom state must have shape ({system.dimension},)")
        if system.energy(U) <= 0.0:
            raise ValueError("custom state carries no energy")
        return U

    freqs, shapes = undamped_modes(system)
    if isinstance(spec, Modal):
        if not 1 <= spec.index <= len(freqs):
            raise ValueError(f"mode index {spec.index} outside 1..{len(freqs)}")
        U = np.concatenate([shapes[:, spec.index - 1], np.zeros(len(freqs))])
    elif isinstance(spec, RandomSmooth):
        k = max(1, math.ceil(SMOOTH_FRACTION * len(freqs)))
        rng = np.random.default_rng(spec.seed)
        coeff = rng.standard_normal((k, 2))
        U = np.concatenate([shapes[:, :k] @ coeff[:, 0],
                            shapes[:, :k] @ (freqs[:k] * coeff[:, 1])])
    else:
        raise TypeError(f"unknown initial data {spec!r}")
    return U / math.sqrt(system.energy(U))


class MidpointStepper:
    """Banded-LU one-step map for a fixed step size.

    With nodal mass R, damping C, stiffness K, the DNN border rows G and
    P = R + dt/2 C + dt^2/4 K, the new velocity solves

        [P    G] [p+]   [(2R - P) p - dt K q]
        [G^T  0] [ * ] = [         0         ],    q+ = q + dt/2 (p + p+),

    the Cayley step of A in node coordinates.  In the node order of
    ``node_band`` P has half-bandwidth 5 at any n; ``bordered_band_solver``
    pivots (anti-damped, P is indefinite) and eliminates the border.
    ``rows`` maps x = [q; p] to the right-hand side and the energy and
    damping roots of x.  ``step`` maps reduced vectors or columns, also complex.
    """

    def __init__(self, system: DiscreteSystem, dt: float):
        if dt == 0.0 or not math.isfinite(dt):
            raise ValueError("dt must be nonzero and finite")
        parts = system.parts
        perm, K, band, self.bandwidth = node_band(parts)
        m = self._nodes = perm.size
        self.dt, self.system, self.order = dt, system, np.concatenate([perm, m + perm])
        self._unorder = np.argsort(self.order)
        mass, diagonal = parts.mass[perm], parts.mass[perm] + 0.5 * dt * parts.damping[perm]
        P = sp.diags(diagonal) + (0.25 * dt * dt) * K
        try:
            self._solve = bordered_band_solver((0.25 * dt * dt) * band, self.bandwidth,
                                               parts.border[perm], diagonal)
        except np.linalg.LinAlgError as err:
            raise SingularStepError(f"step matrix at dt={dt:g} is singular: {err}") from err
        self._energy_stop = m + parts.energy_root.shape[0]
        self.rows = sp.vstack([sp.hstack([-dt * K, sp.diags(2.0 * mass) - P]),
                               parts.energy_root[:, self.order],
                               parts.damping_root[:, self.order]], format="csr")

    def advance(self, x: np.ndarray, y: np.ndarray) -> None:
        """Step the node state x in place, given y = rows @ x."""
        m = self._nodes
        sol = self._solve(y[:m])
        x[:m] += (0.5 * self.dt) * (x[m:] + sol)
        x[m:] = sol

    def energy_and_damping_root(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """E of the state behind y = rows @ x, and g with D = |g|^2."""
        e = y[self._nodes:self._energy_stop]
        return 0.5 * float(e @ e), y[self._energy_stop:]

    def step(self, U: np.ndarray) -> np.ndarray:
        x = self.system.node_state(U)[self.order]
        self.advance(x, self.rows @ x)
        return self.system.reduced_state(x[self._unorder])


@dataclass
class EnergyTimeSeries:
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    max_balance_residual: float | None = field(default=None, compare=False)


def simulate(system: DiscreteSystem, initial: InitialData | np.ndarray,
             T: float, dt: float | None = None, sample_stride: int = 1,
             collect_balance: bool = False,
             balance_mode: str = "midpoint") -> EnergyTimeSeries:
    """Run to final time T, sampling energy and dissipation every
    ``sample_stride`` steps (the final state is always sampled).

    Energy is monitored at every step; a rise above 1e-12 * E(0) aborts, as
    does a non-finite state.  With ``collect_balance`` the largest per-step
    balance defect is reported relative to E(0): ``balance_mode`` "midpoint"
    checks E+ - E = -dt D(U_mid), which the scheme satisfies exactly, and
    "trapezoid_rate" checks (E+ - E)/dt = -(D(U) + D(U+))/2, whose defect is
    (dt^2/4) D(A U_mid) and therefore shrinks by 4 when dt halves.
    """
    if not T > 0:
        raise ValueError("final time must be positive")
    if sample_stride < 1:
        raise ValueError("sample stride must be >= 1")
    if dt is None:
        dt = default_dt(system)
    if not dt > 0:
        raise ValueError("dt must be positive")
    # defects of (E, E+, g, g+), where D = |g|^2 and g is linear in the state
    defects = {"midpoint": lambda E, F, g, h: abs(F - E + 0.25 * dt * float((g + h) @ (g + h))),
               "trapezoid_rate": lambda E, F, g, h: abs((F - E) / dt + 0.5 * float(g @ g + h @ h))}
    if balance_mode not in defects:
        raise ValueError(f"unknown balance mode {balance_mode!r}")
    U = initial if isinstance(initial, np.ndarray) else make_initial(system, initial)
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    stepper = MidpointStepper(system, dt)
    x = system.node_state(np.asarray(U, dtype=float))[stepper.order]
    y = stepper.rows @ x
    E_prev, g_prev = stepper.energy_and_damping_root(y)
    if not E_prev > 0:
        raise ValueError("initial state carries no energy")
    E0 = E_prev
    rise_allowance = 1e-12 * E0

    times = [0.0]
    energies = [E_prev]
    dissipations = [float(g_prev @ g_prev)]
    max_residual = 0.0

    for k in range(1, n_steps + 1):
        stepper.advance(x, y)
        y = stepper.rows @ x
        E_next, g_next = stepper.energy_and_damping_root(y)
        if not math.isfinite(E_next):
            raise NumericalBlowupError(f"non-finite energy at step {k} (dt={dt})")
        if E_next > E_prev + rise_allowance:
            raise EnergyMonotonicityError(
                f"energy rose by {E_next - E_prev:.3e} at step {k} (dt={dt})")
        if collect_balance:
            max_residual = max(max_residual, defects[balance_mode](E_prev, E_next, g_prev, g_next))
        if k % sample_stride == 0 or k == n_steps:
            times.append(k * dt)
            energies.append(E_next)
            dissipations.append(float(g_next @ g_next))
        E_prev, g_prev = E_next, g_next

    return EnergyTimeSeries(
        times=np.asarray(times),
        energy=np.asarray(energies),
        dissipation=np.asarray(dissipations),
        max_balance_residual=(max_residual / E0 if collect_balance else None),
    )


def energy_balance_residual(system: DiscreteSystem, U0: np.ndarray, dt: float,
                            n_steps: int, mode: str = "midpoint") -> float:
    """Largest per-step energy-balance defect over n_steps relative to E(0),
    for either balance mode of ``simulate``."""
    return simulate(system, U0, T=n_steps * dt, dt=dt, sample_stride=n_steps,
                    collect_balance=True, balance_mode=mode).max_balance_residual
