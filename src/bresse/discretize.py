"""Energy-exact finite-difference discretization.

All six fields are collocated on the nodes of a uniform grid.  The energy
integral is evaluated by the composite trapezoid rule: on each cell the
integrand is averaged over the cell's two endpoints, with every derivative
replaced by the cell's difference quotient,

    int f(w_x, w) ~ sum_cells (h/2) * [ f(Dw, w_left) + f(Dw, w_right) ],

which reduces to trapezoid node weights for the velocity terms.  Writing the
resulting quadratic form as E = 1/2 U^T M U with a stiffness block S^T W S,
the generator uses the transpose of the very same strain map S, so

    M A + A^T M = -2 * diag(0, C, 0)   on the shear-velocity block

holds to rounding, with C the damping quadrature.  In the interior this
reproduces the standard centered second-order stencils of the coupled
equations (compact second differences, long-centered first differences,
pointwise zeroth-order couplings); at a zero-slope end it reproduces the
ghost-node reflection.  Keeping the zeroth-order couplings pointwise matters:
averaging them onto midpoints annihilates the alternating band-edge mode of
the longitudinal field and leaves it exactly undamped under DNN conditions.

Clamped fields keep interior nodes only.  Zero-slope (DNN) fields retain all
nodes but are restricted to the mean-zero subspace of the trapezoid inner
product, which removes the rigid constant mode that otherwise makes the
energy degenerate.

Two coordinate systems describe one state.  The node coordinates hold the
stored node values of each field; there the stiffness K = S^T W S, the
nodal mass and the damping quadrature are sparse, and the DNN mean-zero
constraints are two border rows.  The reduced coordinates, the public state
of the package, expand the DNN fields in an orthonormal basis of the
mean-zero subspace built from one Householder reflector.  The reflector
makes the change of coordinates a sparse map plus a rank-one term per
field, so states convert in O(n); the dense generator A and energy Gram M
of the reduced coordinates are built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .model import (
    BeamParameters,
    BoundaryCondition,
    DampingProfile,
    check_dnn_admissible,
    damping_values,
)

FIELD_NAMES = ("phi", "psi", "omega", "u", "v", "z")

# maps with at most this many entries are applied as one dense product,
# which on small meshes costs less than the sparse call overhead
DENSE_APPLY_MAX = 32768


class AdmissibilityError(ValueError):
    """Raised when the requested geometry makes the energy norm degenerate."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n cells on [0, length]."""

    n: int
    length: float
    h: float = field(init=False)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"need at least 4 cells, got {self.n}")
        if not self.length > 0:
            raise ValueError("length must be positive")
        object.__setattr__(self, "h", self.length / self.n)

    def nodes(self) -> np.ndarray:
        x = np.arange(self.n + 1) * self.h
        x[-1] = min(x[-1], self.length)  # n*h can round one ulp past the length
        return x

    def trapezoid_weights(self) -> np.ndarray:
        mu = np.full(self.n + 1, self.h)
        mu[0] = mu[-1] = 0.5 * self.h
        return mu


def difference_operator(grid: Grid) -> sp.csr_matrix:
    """Forward difference mapping node values to cell-midpoint derivatives."""
    n, h = grid.n, grid.h
    return sp.diags([np.full(n, -1.0 / h), np.full(n, 1.0 / h)], [0, 1],
                    shape=(n, n + 1), format="csr")


def endpoint_selectors(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Left and right endpoint values of each cell (node-to-cell selectors)."""
    n = grid.n
    eye = sp.eye(n + 1, format="csr")
    return eye[:n, :], eye[1:, :]


def dirichlet_embedding(n: int) -> sp.csr_matrix:
    """Embed interior node values into the full node vector (zero ends)."""
    return sp.eye(n + 1, n - 1, k=-1, format="csr")


@dataclass(frozen=True)
class SparsePlusLowRank:
    """Linear map x -> S x + L (W^T x): a sparse matrix plus a thin dense term.

    Applies to vectors and, column by column, to matrices, real or complex.
    """

    S: sp.csr_matrix
    L: np.ndarray
    W: np.ndarray

    @cached_property
    def _small(self) -> np.ndarray | None:
        return self.dense() if self.S.shape[0] * self.S.shape[1] <= DENSE_APPLY_MAX else None

    def __call__(self, x):
        if self._small is not None:
            return self._small @ x
        y = self.S @ x
        if self.L.shape[1]:
            y = y + self.L @ (self.W.T @ x)
        return y

    def then(self, B) -> "SparsePlusLowRank":
        """The map x -> B (S x + L W^T x), for a sparse B."""
        return SparsePlusLowRank(sp.csr_matrix(B @ self.S), np.asarray(B @ self.L), self.W)

    def dense(self) -> np.ndarray:
        return self.S.toarray() + self.L @ self.W.T


def _identity_map(m: int) -> SparsePlusLowRank:
    return SparsePlusLowRank(sp.eye(m, format="csr"), np.zeros((m, 0)), np.zeros((m, 0)))


def diagonal_blocks(*maps: SparsePlusLowRank) -> SparsePlusLowRank:
    """Block-diagonal map acting on stacked inputs, one block per map."""
    return SparsePlusLowRank(sp.block_diag([m.S for m in maps], format="csr"),
                             scipy.linalg.block_diag(*(m.L for m in maps)),
                             scipy.linalg.block_diag(*(m.W for m in maps)))


def _mean_zero_maps(grid: Grid) -> tuple[SparsePlusLowRank, SparsePlusLowRank]:
    """Coefficient-to-node map of the mean-zero basis, and its inverse on
    mean-zero node vectors.

    The basis is columns 1..n of the Householder reflector H = I - 2 u u^T
    that sends sqrt(mu)/|sqrt(mu)| to the first coordinate axis, divided
    row-wise by sqrt(mu).  Each direction is a scaled shift plus one
    rank-one term, so both maps cost O(n).
    """
    mu = grid.trapezoid_weights()
    root = np.sqrt(mu)
    u = root / np.linalg.norm(root)
    u[0] -= 1.0
    u /= np.linalg.norm(u)
    shift = sp.eye(grid.n + 1, grid.n, k=-1, format="csr")     # y -> (0, y)
    to_nodes = SparsePlusLowRank(sp.diags(1.0 / root) @ shift,
                                 (-2.0 * u / root)[:, None], u[1:, None])
    to_coeffs = SparsePlusLowRank(sp.csr_matrix(shift.T @ sp.diags(root)),
                                  -2.0 * u[1:, None], (u * root)[:, None])
    return to_nodes, to_coeffs


def mean_zero_basis(grid: Grid) -> np.ndarray:
    """Orthonormal basis of the mean-zero subspace in the trapezoid product.

    Columns B satisfy B^T diag(mu) B = I and mu^T B = 0, built from the
    Householder reflector that sends sqrt(mu)/|sqrt(mu)| to the first
    coordinate axis.  Used for the zero-slope fields, whose constant mode
    carries no strain energy and is invisible to the damping term.
    """
    return _mean_zero_maps(grid)[0].dense()


@dataclass(frozen=True)
class NodeParts:
    """Sparse node-level pieces of the energy pencil, assembled once.

    A half-state in node coordinates stacks phi at interior nodes and psi,
    omega at interior nodes (DDD) or at all n+1 nodes (DNN); displacements
    q and velocities p share that layout, and the energy is
    (q^T K q + p^T diag(mass) p) / 2 on the states that satisfy
    border^T q = border^T p = 0.
    """

    embeddings: dict            # field -> stored nodes into all n+1 nodes
    strain: sp.csr_matrix       # S: node values -> per-cell strain samples
    cell_weights: np.ndarray    # W: quadrature weight of each strain sample
    stiffness: sp.csc_matrix    # K = S^T W S
    mass: np.ndarray            # rho * mu at the stored nodes
    damping: np.ndarray         # mu * a at the psi nodes, zero elsewhere
    border: np.ndarray          # DNN: columns mu on psi and on omega; DDD: none
    to_nodes: SparsePlusLowRank     # reduced half-state -> node half-state
    to_reduced: SparsePlusLowRank   # its inverse on the constrained states

    @property
    def node_slices(self) -> dict[str, slice]:
        stops = np.cumsum([self.embeddings[f].shape[1] for f in FIELD_NAMES[:3]])
        return {f: slice(int(stop - self.embeddings[f].shape[1]), int(stop))
                for f, stop in zip(FIELD_NAMES[:3], stops)}


def _node_parts(params: BeamParameters, bc: BoundaryCondition, grid: Grid,
                a_nodes: np.ndarray) -> NodeParts:
    """Strain map, stiffness, mass, damping and coordinate maps on the nodes;
    the energy and the generator both derive from these, so the two stay
    exactly compatible."""
    n, h, l = grid.n, grid.h, params.l
    mu = grid.trapezoid_weights()
    interior = dirichlet_embedding(n)
    if bc is BoundaryCondition.DDD:
        emb = {"phi": interior, "psi": interior, "omega": interior}
    else:
        full = sp.eye(n + 1, format="csr")
        emb = {"phi": interior, "psi": full, "omega": full}
    Ephi, Epsi, Eomega = emb["phi"], emb["psi"], emb["omega"]
    D = difference_operator(grid)
    NL, NR = endpoint_selectors(grid)

    # per-cell trapezoid rows: each strain integrand sampled at the two cell
    # endpoints, derivatives as the cell difference quotient
    Dphi, Dpsi, Domega = D @ Ephi, D @ Epsi, D @ Eomega
    blocks, cell_w = [], []
    for N in (NL, NR):
        blocks.append([Dphi, N @ Epsi, l * (N @ Eomega)])        # shear
        blocks.append([-l * (N @ Ephi), None, Domega])            # stretch
        cell_w += [np.full(n, 0.5 * params.kappa * h), np.full(n, 0.5 * params.kappa0 * h)]
    blocks.append([None, Dpsi, None])                             # bending
    cell_w.append(np.full(n, params.b * h))
    S = sp.bmat(blocks, format="csr")
    cell_w = np.concatenate(cell_w)
    K = S.T @ sp.diags(cell_w) @ S
    K = (0.5 * (K + K.T)).tocsc()

    mu_at = {f: emb[f].T @ mu for f in emb}
    mass = np.concatenate([params.rho1 * mu_at["phi"], params.rho2 * mu_at["psi"],
                           params.rho1 * mu_at["omega"]])
    zeros = {f: np.zeros(emb[f].shape[1]) for f in emb}
    damping = np.concatenate([zeros["phi"], Epsi.T @ (mu * a_nodes), zeros["omega"]])

    if bc is BoundaryCondition.DDD:
        border = np.zeros((mass.size, 0))
        to_nodes = to_reduced = _identity_map(mass.size)
    else:
        border = np.column_stack([
            np.concatenate([zeros["phi"], mu, zeros["omega"]]),
            np.concatenate([zeros["phi"], zeros["psi"], mu])])
        mz_nodes, mz_coeffs = _mean_zero_maps(grid)
        to_nodes = diagonal_blocks(_identity_map(n - 1), mz_nodes, mz_nodes)
        to_reduced = diagonal_blocks(_identity_map(n - 1), mz_coeffs, mz_coeffs)
    return NodeParts(emb, S, cell_w, K, mass, damping, border, to_nodes, to_reduced)


class DiscreteSystem:
    """Assembled first-order system U' = A U with energy E = U^T M U / 2.

    State ordering is (phi, psi, omega, u, v, z) with u, v, z the velocities,
    in reduced coordinates.  The sparse node-level parts carry the physics;
    energy and dissipation are evaluated from them in O(n), and the dense A,
    M and damping Gram are built from them on first use.  M is symmetric
    positive definite; the damping enters A only on the shear-velocity block.
    """

    def __init__(self, params, profile, bc, grid, parts: NodeParts, slices,
                 velocity_weights, damping_nodes):
        self.params = params
        self.profile = profile
        self.bc = bc
        self.grid = grid
        self.parts = parts
        self.slices = slices
        self.velocity_weights = velocity_weights
        self.damping_nodes = damping_nodes
        self._cache: dict = {}
        self._half = slices["omega"].stop
        self.velocity_mass = np.concatenate([
            params.rho1 * velocity_weights["u"],
            params.rho2 * velocity_weights["v"],
            params.rho1 * velocity_weights["z"],
        ])
        # one sparse product gives e(U) and g(U) with E = |e|^2 / 2 and D = |g|^2
        strain = parts.to_nodes.then(sp.diags(np.sqrt(parts.cell_weights)) @ parts.strain)
        velocity = _identity_map(self._half)
        energy = diagonal_blocks(strain, velocity.then(sp.diags(np.sqrt(self.velocity_mass))))
        support = np.flatnonzero(parts.damping)
        shear = parts.to_nodes.then(sp.diags(np.sqrt(parts.damping), format="csr")[support])
        damping = diagonal_blocks(velocity.then(sp.csr_matrix((0, self._half))), shear)
        self._energy_rows = energy.S.shape[0]
        self._roots = SparsePlusLowRank(sp.vstack([energy.S, damping.S], format="csr"),
                                        scipy.linalg.block_diag(energy.L, damping.L),
                                        np.hstack([energy.W, damping.W]))

    @property
    def dimension(self) -> int:
        return 2 * self._half

    def energy_and_damping_root(self, U: np.ndarray) -> tuple[float, np.ndarray]:
        """E(U), and the vector g, linear in U, with D(U) = |g|^2."""
        y = self._roots(U)
        e = y[:self._energy_rows]
        return 0.5 * float(e @ e), y[self._energy_rows:]

    def energy(self, U: np.ndarray) -> float:
        return self.energy_and_damping_root(U)[0]

    def dissipation_rate(self, U: np.ndarray) -> float:
        """-dE/dt along the flow: quadrature of a(x) times shear velocity squared."""
        g = self.energy_and_damping_root(U)[1]
        return float(g @ g)

    def field_values(self, U: np.ndarray, name: str) -> np.ndarray:
        """Node values of one field, boundary values included."""
        if name not in FIELD_NAMES:
            raise KeyError(f"unknown field {name!r}")
        k = FIELD_NAMES.index(name)
        half = U[:self._half] if k < 3 else U[self._half:]
        base = FIELD_NAMES[k % 3]
        stored = self.parts.to_nodes(half)[self.parts.node_slices[base]]
        return self.parts.embeddings[base] @ stored

    @cached_property
    def reduced_stiffness(self) -> np.ndarray:
        """Dense stiffness block of M in the reduced coordinates."""
        ST = self.parts.strain @ self.parts.to_nodes.dense()
        K = ST.T @ (self.parts.cell_weights[:, None] * ST)
        return 0.5 * (K + K.T)

    @cached_property
    def damping_gram(self) -> np.ndarray:
        """Dense damping quadrature on the reduced shear-velocity block."""
        T = self.parts.to_nodes.dense()[self.parts.node_slices["psi"], self.slices["psi"]]
        C = T.T @ (self.parts.damping[self.parts.node_slices["psi"], None] * T)
        return 0.5 * (C + C.T)

    @cached_property
    def M(self) -> np.ndarray:
        """Dense energy Gram of the reduced coordinates, built on first use."""
        h = self._half
        M = np.zeros((2 * h, 2 * h))
        M[:h, :h] = self.reduced_stiffness
        M[np.arange(h, 2 * h), np.arange(h, 2 * h)] = self.velocity_mass
        return M

    @cached_property
    def A(self) -> np.ndarray:
        """Dense generator of the reduced coordinates, built on first use."""
        h = self._half
        A = np.zeros((2 * h, 2 * h))
        A[:h, h:] = np.eye(h)
        A[h:, :h] = -self.reduced_stiffness / self.velocity_mass[:, None]
        sl_v = self.slices["v"]
        A[sl_v, sl_v] -= self.damping_gram / self.velocity_mass[self.slices["psi"], None]
        return A


def _build(params, profile, bc, grid) -> DiscreteSystem:
    a_nodes = (np.zeros(grid.n + 1) if profile is None
               else damping_values(profile, grid.nodes(), params.L))
    parts = _node_parts(params, bc, grid, a_nodes)
    m = grid.n if bc is BoundaryCondition.DNN else grid.n - 1
    sizes = [grid.n - 1, m, m] * 2
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    slices = {f: slice(int(offsets[i]), int(offsets[i + 1]))
              for i, f in enumerate(FIELD_NAMES)}
    mu = grid.trapezoid_weights()
    if bc is BoundaryCondition.DDD:
        w_node = mu[1:-1]
        weights = {"u": w_node, "v": w_node, "z": w_node}
    else:
        # the mean-zero basis is orthonormal in the mu product, so the reduced
        # velocity Gram is the identity by construction
        weights = {"u": mu[1:-1], "v": np.ones(grid.n), "z": np.ones(grid.n)}
    return DiscreteSystem(params, profile, bc, grid, parts, slices, weights, a_nodes)


def assemble(params: BeamParameters, profile: DampingProfile,
             bc: BoundaryCondition, n: int) -> DiscreteSystem:
    """Build the discrete damped system on n cells.

    Refuses DNN geometries with L within tolerance of a multiple of pi/l,
    where the continuous problem itself loses coercivity.
    """
    profile.validate_for_length(params.L)
    if bc is BoundaryCondition.DNN:
        adm = check_dnn_admissible(params)
        if not adm.ok:
            raise AdmissibilityError(
                f"length L={params.L} is within {adm.tol:g} of {adm.nearest_n}*pi/l; "
                "the zero-slope problem is degenerate there, perturb L or l")
    return _build(params, profile, bc, Grid(n=n, length=params.L))


def assemble_energy_gram(params: BeamParameters, bc: BoundaryCondition,
                         grid: Grid) -> np.ndarray:
    """Energy Gram matrix alone (no damping dependence)."""
    return _build(params, None, bc, grid).M
