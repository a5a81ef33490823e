"""Time evolution by the implicit midpoint (Cayley) rule.

One step is U+ = (I - dt/2 A)^{-1} (I + dt/2 A) U.  Because the scheme is the
Cayley transform of the generator, every quadratic invariant of the flow is
respected exactly: the discrete energy satisfies

    E(U+) - E(U) = -dt * D((U + U+)/2)

to rounding, where D is the damping quadrature, so undamped runs conserve
energy and damped runs dissipate it monotonically at machine precision.

``simulate`` converts its initial state once to node coordinates and runs
the whole loop there: each step is one solve with the energy pencil at
sigma = 2/dt, an in-place update of x = [q; p] and one sparse product that
yields the next right-hand side and the energy and dissipation of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import auto_dt
from .discretize import DiscreteSystem, pencil_solver


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
    Q = K + sigma C + sigma^2 R at sigma = 2/dt, the new velocity solves

        [Q    G] [p+]   [(sigma^2 R - sigma C - K) p - 2 sigma K q]
        [G^T  0] [ * ] = [                   0                     ],

    q+ = q + (p + p+) / sigma: the Cayley step of A in node coordinates,
    factored by ``pencil_solver`` (pivoted: anti-damped, Q is indefinite).
    ``rows`` maps x = [q; p] to the right-hand side and the energy and
    damping roots of x.  ``step`` maps reduced vectors or columns, also complex.
    """

    def __init__(self, system: DiscreteSystem, dt: float):
        if dt == 0.0 or not math.isfinite(dt):
            raise ValueError("dt must be nonzero and finite")
        parts = system.parts
        self.dt, self.system, self.bandwidth = dt, system, parts.bandwidth
        self.sigma = sigma = 2.0 / dt
        try:
            self._solve = pencil_solver(parts, sigma)
        except np.linalg.LinAlgError as err:
            raise SingularStepError(f"step matrix at dt={dt:g} is singular: {err}") from err
        K, m = parts.stiffness, parts.mass.size
        self._nodes, self._energy_stop = m, m + parts.energy_root.shape[0]
        diagonal = sigma * (sigma * parts.mass - parts.damping)
        self.rows = sp.vstack([sp.hstack([(-2.0 * sigma) * K, sp.diags(diagonal) - K]),
                               parts.energy_root, parts.damping_root], format="csr")

    def advance(self, x: np.ndarray, y: np.ndarray) -> None:
        """Step the node state x in place, given y = rows @ x."""
        m = self._nodes
        sol = self._solve(y[:m])
        x[:m] += (x[m:] + sol) / self.sigma
        x[m:] = sol

    def energy_and_damping_root(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """E of the state behind y = rows @ x, and g with D = |g|^2."""
        e = y[self._nodes:self._energy_stop]
        return 0.5 * float(e @ e), y[self._energy_stop:]

    def step(self, U: np.ndarray) -> np.ndarray:
        x = self.system.node_state(U)
        self.advance(x, self.rows @ x)
        return self.system.reduced_state(x)


@dataclass
class EnergyTimeSeries:
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    max_balance_residual: float | None = field(default=None, compare=False)


def simulate(system: DiscreteSystem, initial: InitialData | np.ndarray,
             T: float, dt: float | None = None, sample_stride: int = 1,
             collect_balance: bool = False) -> EnergyTimeSeries:
    """Run to final time T, sampling energy and dissipation every
    ``sample_stride`` steps (the final state is always sampled).

    Energy is monitored at every step; a rise above 1e-12 * E(0) aborts, as
    does a non-finite state.  With ``collect_balance`` the largest per-step
    defect of E+ - E = -dt D(U_mid), which the scheme satisfies exactly, is
    reported relative to E(0).
    """
    if not T > 0:
        raise ValueError("final time must be positive")
    if sample_stride < 1:
        raise ValueError("sample stride must be >= 1")
    if dt is None:
        dt = default_dt(system)
    if not dt > 0:
        raise ValueError("dt must be positive")
    U = initial if isinstance(initial, np.ndarray) else make_initial(system, initial)
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    stepper = MidpointStepper(system, dt)
    x = system.node_state(np.asarray(U, dtype=float))
    y = stepper.rows @ x
    E_prev, g_prev = stepper.energy_and_damping_root(y)
    if not E_prev > 0:
        raise ValueError("initial state carries no energy")
    E0 = E_prev
    rise_allowance = 1e-12 * E0

    times, energies, dissipations = [0.0], [E_prev], [float(g_prev @ g_prev)]
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
        if collect_balance:  # g is linear in the state: g_prev + g_next = 2 g(U_mid)
            g_sum = g_prev + g_next
            max_residual = max(max_residual, abs(E_next - E_prev + 0.25 * dt * float(g_sum @ g_sum)))
        if k % sample_stride == 0 or k == n_steps:
            times.append(k * dt)
            energies.append(E_next)
            dissipations.append(float(g_next @ g_next))
        E_prev, g_prev = E_next, g_next

    return EnergyTimeSeries(np.asarray(times), np.asarray(energies), np.asarray(dissipations),
                            max_residual / E0 if collect_balance else None)


def energy_balance_residual(system: DiscreteSystem, U0: np.ndarray, dt: float,
                            n_steps: int) -> float:
    """Largest per-step midpoint balance defect over n_steps relative to E(0)."""
    return simulate(system, U0, T=n_steps * dt, dt=dt, sample_stride=n_steps,
                    collect_balance=True).max_balance_residual
