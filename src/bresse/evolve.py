"""Time evolution by the implicit midpoint (Cayley) rule.

One step is x+ = (I - dt/2 A)^{-1} (I + dt/2 A) x.  Because the scheme is the
Cayley transform of the generator, every quadratic invariant of the flow is
respected exactly: the discrete energy satisfies

    E(x+) - E(x) = -dt * D((x + x+)/2)

to rounding, where D is the damping quadrature, so undamped runs conserve
energy and damped runs dissipate it monotonically at machine precision.

States are node states x = [q; p] (DiscreteSystem), on DNN on the border
rows.  Initial data are a seed: ``make_initial`` draws a smooth state from
the lowest undamped modes (``undamped_modes``).  ``simulate`` takes any
real state on the border rows and runs the whole loop on it: each step is
one sparse product for the right-hand side, one banded Cholesky solve with
the energy pencil at sigma = 2/dt and the update of x = [q; p], written
into the next row of a block of BLOCK states.  Once per block, one product
of the block with each of the energy and damping roots gives the energy and
dissipation of all its states, and the guards check every step from those.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .discretize import (DiscreteSystem, check_dense_cap, half_dimension, lanczos_top,
                         pencil_solver, to_nodes)
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
BORDER_RTOL = 1e-10  # |G^T x| of an initial state over sum(|G|) max|x|


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

    Lanczos on phi -> (K + sR)^-1 R phi in the R product, on the border
    rows, s = (c_min / L)^2, the pencil factored once by pencil_solver
    without damping at sigma = sqrt(s); at most min(h, 4k + 20) steps
    (h = d / 2), every pair converged to a residual of MODE_RTOL, else
    LinAlgError; a basis too large for the dense cap is refused before
    anything is factored.  The start, and each shape's sign, come from the
    seeded draw g = to_nodes(default_rng(0).standard_normal(h)): each shape
    has a positive R product with g, so the data depend on the mesh alone,
    not on the solver's signs.  Mode k spans the states (phi_k, 0) and
    (0, w_k phi_k); the shapes (node half-states as columns) are scaled so
    each of those carries energy 1/2.
    """
    h = system.dimension // 2
    if not 1 <= k <= h:
        raise ValueError(f"mode index {k} outside 1..{h}")
    steps = _mode_steps(k, h)
    parts = system.parts
    s = (system.params.min_wave_speed / system.params.L) ** 2
    solve = pencil_solver(dataclasses.replace(parts, damping=0.0), math.sqrt(s))
    R = parts.mass
    g = to_nodes(parts, np.random.default_rng(0).standard_normal(h))
    theta, X = lanczos_top(lambda y: solve(R * y), lambda y: R * y, g, parts.border, k, steps,
                           MODE_RTOL)
    if X is None:
        raise np.linalg.LinAlgError("mode Lanczos overflowed")
    X = X[::-1]
    X *= np.sign(X @ (R * g))[:, None]
    freqs = np.sqrt(1.0 / theta[::-1] - s)
    return freqs, X.T / freqs


def make_initial(system: DiscreteSystem, seed: int) -> np.ndarray:
    """Seeded smooth initial node state, energy-normalized: a standard
    normal combination, drawn by default_rng(seed), of the displacement and
    velocity parts of the lowest smooth_mode_count(d / 2) undamped modes;
    the low cutoff keeps the data resolved."""
    h = system.dimension // 2
    k = smooth_mode_count(h)
    freqs, shapes = undamped_modes(system, k)
    coeff = np.random.default_rng(seed).standard_normal((k, 2))
    x = np.concatenate([shapes @ coeff[:, 0], shapes @ (freqs * coeff[:, 1])])
    return x / math.sqrt(system.energy(x))


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
    ``step`` maps node states, vectors or columns, also complex.
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
        # row i: [-2 sigma K_i:, (diag(diagonal) - K)_i:], each half by column;
        # K is symmetric with sorted indices, so its CSC arrays are CSR arrays
        m, lengths = self._nodes, np.diff(K.indptr)
        row = np.repeat(np.arange(m), lengths)
        first = 2 * K.indptr[row] + np.arange(K.nnz) - K.indptr[row]
        second = first + lengths[row]
        values = -K.data
        on_diagonal = K.indices == row
        values[on_diagonal] = diagonal[row[on_diagonal]] - K.data[on_diagonal]
        data, indices = np.empty(2 * K.nnz), np.empty(2 * K.nnz, dtype=K.indices.dtype)
        data[first], indices[first] = (-2.0 * sigma) * K.data, K.indices
        data[second], indices[second] = values, K.indices + m
        self.rows = sp.csr_matrix((data, indices, 2 * K.indptr), shape=(m, 2 * m))
        self.rows.eliminate_zeros()  # as the sparse difference diag - K does

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

    def step(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        self.advance(x, out)
        return out


@dataclass
class EnergyTimeSeries:
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    max_balance_residual: float | None = field(default=None, compare=False)


def simulate(system: DiscreteSystem, x0: np.ndarray, T: float, dt: float,
             sample_stride: int = 1) -> EnergyTimeSeries:
    """Run from the node state x0 to final time T in steps of dt,
    sampling energy and dissipation every ``sample_stride`` steps (the final
    state is always sampled).  x0 must be real, of the node state's shape,
    on the border rows and carry energy; it is not normalized.  A half q or
    p of x0 is on the border rows when |G^T q| is at most BORDER_RTOL
    sum(|G|) max|x0| for each border column G.

    The states are stepped into a block of BLOCK rows; once the block is
    full (or the run ends), one product of the block with each root gives
    the energy and dissipation of all its states.  Every step is checked:
    a rise above 1e-12 * E(0) aborts, as does a non-finite energy, naming
    the first step at fault.  The largest per-step defect of
    E+ - E = -dt D(x_mid), which the scheme satisfies exactly, is reported
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
    parts = system.parts
    m, G = parts.mass.size, parts.border
    if x0.dtype.kind not in "iuf" or x0.shape != (2 * m,):
        raise ValueError(f"initial state must be a real array of shape "
                         f"({2 * m},), got {x0.dtype} {x0.shape}")
    scale = np.abs(G).sum(axis=0) * np.abs(x0).max()
    off = np.abs(x0.reshape(2, m) @ G)
    if (off > BORDER_RTOL * scale).any():
        raise ValueError(f"initial state is off the border rows: |G^T x| reads "
                         f"{(off / scale).max():.1e} of sum|G| max|x|, above {BORDER_RTOL:g}")
    if not system.energy(x0) > 0.0:
        raise ValueError("initial state carries no energy")
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    stepper = MidpointStepper(system, dt)
    block = np.empty((BLOCK + 1, 2 * m))  # row 0: the state before the block
    block[0] = x0
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
            g_sum = g[:, 1:] + g[:, :-1]  # g is linear in the state: g + g+ = 2 g(x_mid)
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

