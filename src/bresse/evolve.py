"""Time evolution by the implicit midpoint (Cayley) rule.

One step is U+ = (I - dt/2 A)^{-1} (I + dt/2 A) U.  Because the scheme is the
Cayley transform of the generator, every quadratic invariant of the flow is
respected exactly: the discrete energy satisfies

    E(U+) - E(U) = -dt * D((U + U+)/2)

to rounding, where D is the damping quadrature, so undamped runs conserve
energy and damped runs dissipate it monotonically at machine precision.

Initial data are a seed: ``make_initial`` draws a smooth state from the
lowest undamped modes (``undamped_modes``).  ``simulate`` takes any real
reduced state, converts it once to node coordinates and runs the whole
loop there: each step is one sparse product for the right-hand
side, one banded Cholesky solve with the energy pencil at sigma = 2/dt and
the update of x = [q; p], written into the next row of a block of BLOCK
states.  Once per block, one product of the block with each of the energy
and damping roots gives the energy and dissipation of all its states, and
the guards check every step from those.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .discretize import (DiscreteSystem, check_dense_cap, half_dimension, lanczos_top,
                         pencil_solver, to_nodes, to_reduced)
from .model import BoundaryCondition


class NumericalBlowupError(RuntimeError):
    """State stopped being finite during time stepping."""


class EnergyMonotonicityError(RuntimeError):
    """Discrete energy increased beyond the roundoff allowance."""


class SingularStepError(RuntimeError):
    """The implicit step matrix is singular or indefinite to working precision."""


SMOOTH_FRACTION = 0.1
MODE_RTOL = 1e-13  # mode Lanczos residual over the largest Ritz value
BLOCK = 64  # states stepped between two energy checks


def smooth_mode_count(h: int) -> int:
    """Modes in make_initial's data on a half size h: the lowest SMOOTH_FRACTION."""
    return max(1, math.ceil(SMOOTH_FRACTION * h))


def _mode_steps(k: int, h: int) -> int:
    """Lanczos iteration bound for the k lowest of h modes.  A basis of that
    many steps above the dense cap's element budget is refused
    (DenseSolverCapError) before it is allocated."""
    steps = min(h, 4 * k + 20)
    check_dense_cap(steps, h)
    return steps


def check_smooth_size(bc: BoundaryCondition, n: int) -> None:
    """Refuse, from (bc, n) before assembly, a mesh on which make_initial's
    Lanczos basis would exceed the dense cap's element budget."""
    h = half_dimension(bc, n)
    _mode_steps(smooth_mode_count(h), h)


def undamped_modes(system: DiscreteSystem, k: int):
    """Frequencies and shapes of the k lowest modes of the conservative part,
    by increasing frequency: K phi = w^2 R phi on the border rows, with K and
    R the node stiffness and mass.

    Lanczos in reduced coordinates (which keep the border rows exactly) on
    phi -> (K + sR)^-1 R phi in the R product, s = (c_min / L)^2, the pencil
    factored once by pencil_solver without damping at sigma = sqrt(s); at
    most min(h, 4k + 20) steps (h = d / 2), every pair converged to a
    residual of MODE_RTOL, else LinAlgError; a basis too large for the dense
    cap is refused before anything is factored.  Each shape is signed so
    that its R product with the seeded start g =
    default_rng(0).standard_normal(h) is positive: the data depend on the
    mesh alone, not on the solver's signs.  Mode k spans the states
    (phi_k, 0) and (0, w_k phi_k); the shapes (columns) are scaled so each
    of those carries energy 1/2.
    """
    h = system.dimension // 2
    if not 1 <= k <= h:
        raise ValueError(f"mode index {k} outside 1..{h}")
    steps = _mode_steps(k, h)
    parts = system.parts
    s = (system.params.min_wave_speed / system.params.L) ** 2
    solve = pencil_solver(dataclasses.replace(parts, damping=0.0), math.sqrt(s))
    R, V = parts.mass, system.velocity_mass
    g = np.random.default_rng(0).standard_normal(h)
    theta, X = lanczos_top(lambda y: to_reduced(parts, solve(R * to_nodes(parts, y))),
                           lambda y: V * y, g, k, steps, MODE_RTOL)
    if X is None:
        raise np.linalg.LinAlgError("mode Lanczos overflowed")
    X = X[::-1]
    X *= np.sign(X @ (V * g))[:, None]
    freqs = np.sqrt(1.0 / theta[::-1] - s)
    return freqs, X.T / freqs


def make_initial(system: DiscreteSystem, seed: int) -> np.ndarray:
    """Seeded smooth initial state, energy-normalized: a standard normal
    combination, drawn by default_rng(seed), of the displacement and
    velocity parts of the lowest smooth_mode_count(d / 2) undamped modes;
    the low cutoff keeps the data resolved."""
    h = system.dimension // 2
    k = smooth_mode_count(h)
    freqs, shapes = undamped_modes(system, k)
    coeff = np.random.default_rng(seed).standard_normal((k, 2))
    U = np.concatenate([shapes @ coeff[:, 0], shapes @ (freqs * coeff[:, 1])])
    return U / math.sqrt(system.energy(U))


class MidpointStepper:
    """Banded one-step map for a fixed step size.

    With nodal mass R, damping C, stiffness K, the DNN border rows G and
    Q = K + sigma C + sigma^2 R at sigma = 2/dt, the new velocity solves

        [Q    G] [p+]   [(sigma^2 R - sigma C - K) p - 2 sigma K q]
        [G^T  0] [ * ] = [                   0                     ],

    q+ = q + (p + p+) / sigma: the Cayley step of A in node coordinates,
    factored by ``pencil_solver`` as a banded Cholesky.  For dt > 0 and a
    dissipative C, Q is positive definite; an indefinite Q raises
    SingularStepError.  ``rows`` maps x = [q; p] to the right-hand side.
    ``step`` maps reduced vectors or columns, also complex.
    """

    def __init__(self, system: DiscreteSystem, dt: float):
        if dt == 0.0 or not math.isfinite(dt):
            raise ValueError("dt must be nonzero and finite")
        parts = system.parts
        self.dt, self.system = dt, system
        self.sigma = sigma = 2.0 / dt
        try:
            self._solve = pencil_solver(parts, sigma)
        except np.linalg.LinAlgError as err:
            raise SingularStepError(
                f"step matrix at dt={dt:g} is singular or indefinite: {err}") from err
        K, self._nodes = parts.stiffness, parts.mass.size
        diagonal = sigma * (sigma * parts.mass - parts.damping)
        self.rows = sp.hstack([(-2.0 * sigma) * K, sp.diags(diagonal) - K], format="csr")

    def advance(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the node state one step after x = [q; p] into out."""
        m, rows = self._nodes, self.rows
        if x.ndim == 1 and x.dtype == np.float64 and x.flags.c_contiguous:
            # simulate's states: the CSR kernel behind rows @ x, without the
            # checks and dispatch that make up about 40 % of that product
            y = np.zeros(m)
            csr_matvec(m, x.size, rows.indptr, rows.indices, rows.data, x, y)
        else:
            y = rows @ x
        p = self._solve(y)
        q = np.add(x[m:], p, out=out[:m])
        q /= self.sigma
        q += x[:m]
        out[m:] = p

    def step(self, U: np.ndarray) -> np.ndarray:
        x = self.system.node_state(U)
        out = np.empty_like(x)
        self.advance(x, out)
        return self.system.reduced_state(out)


@dataclass
class EnergyTimeSeries:
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    max_balance_residual: float | None = field(default=None, compare=False)


def simulate(system: DiscreteSystem, U0: np.ndarray, T: float, dt: float,
             sample_stride: int = 1) -> EnergyTimeSeries:
    """Run from the reduced state U0 to final time T in steps of dt,
    sampling energy and dissipation every ``sample_stride`` steps (the final
    state is always sampled).  U0 must be real, of the state's shape, and
    carry energy; it is not normalized.

    The states are stepped into a block of BLOCK rows; once the block is
    full (or the run ends), one product of the block with each root gives
    the energy and dissipation of all its states.  Every step is checked:
    a rise above 1e-12 * E(0) aborts, as does a non-finite energy, naming
    the first step at fault.  The largest per-step defect of
    E+ - E = -dt D(U_mid), which the scheme satisfies exactly, is reported
    relative to E(0).
    """
    if not 0 < T < math.inf:
        raise ValueError("final time must be positive and finite")
    if sample_stride < 1:
        raise ValueError("sample stride must be >= 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not T / dt < math.inf:
        raise ValueError("step count T / dt is not finite")
    if U0.dtype.kind not in "iuf" or U0.shape != (system.dimension,):
        raise ValueError(f"initial state must be a real array of shape "
                         f"({system.dimension},), got {U0.dtype} {U0.shape}")
    if not system.energy(U0) > 0.0:
        raise ValueError("initial state carries no energy")
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    stepper = MidpointStepper(system, dt)
    parts = system.parts
    block = np.empty((BLOCK + 1, 2 * parts.mass.size))  # row 0: the state before the block
    block[0] = system.node_state(U0)
    states = list(block)
    E, D, g = _block_energies(parts, block[:1])
    E0 = E[0]
    rise_allowance = 1e-12 * E0

    times, energies, dissipations = [np.zeros(1)], [E], [D]
    max_residual = 0.0
    # a blow-up steps on to the end of its block, where the guards report it
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, n_steps, BLOCK):
            count = min(BLOCK, n_steps - done)
            for j in range(count):
                stepper.advance(states[j], states[j + 1])
            E, D, g = _block_energies(parts, block[:count + 1])
            rise = np.diff(E)
            bad = ~np.isfinite(E[1:]) | (rise > rise_allowance)
            if bad.any():
                j = int(np.argmax(bad))
                if not math.isfinite(E[j + 1]):
                    raise NumericalBlowupError(
                        f"non-finite energy at step {done + j + 1} (dt={dt})")
                raise EnergyMonotonicityError(
                    f"energy rose by {rise[j]:.3e} at step {done + j + 1} (dt={dt})")
            g_sum = g[:, 1:] + g[:, :-1]  # g is linear in the state: g + g+ = 2 g(U_mid)
            balance = rise + 0.25 * dt * np.einsum("ij,ij->j", g_sum, g_sum)
            max_residual = max(max_residual, float(np.abs(balance).max()))
            k = np.arange(done + 1, done + count + 1)
            sampled = (k % sample_stride == 0) | (k == n_steps)
            times.append(k[sampled] * dt)
            energies.append(E[1:][sampled])
            dissipations.append(D[1:][sampled])
            block[0] = block[count]

    return EnergyTimeSeries(np.concatenate(times), np.concatenate(energies),
                            np.concatenate(dissipations), max_residual / E0)


def _block_energies(parts, states: np.ndarray):
    """Energies E, dissipations D and damping roots g (columns, D = |g|^2)
    of node states given as rows.  The column sums of squares go through
    BLAS (gemv): as fast as a running sum down each column, with about half
    its rounding error."""
    x = np.ascontiguousarray(states.T)  # one copy for both products
    e, g = parts.energy_root @ x, parts.damping_root @ x
    e *= e
    return 0.5 * (np.ones(e.shape[0]) @ e), np.ones(g.shape[0]) @ (g * g), g

