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

Two coordinate systems describe one state.  In node coordinates (NodeParts)
the stored values sit node by node: K = S^T W S, also in band storage, the
mass R, the damping C and the energy and dissipation roots are sparse and
banded, and the DNN mean-zero constraints are two border rows.  Stepping,
resolvent scans and the initial modes factor the pencil
K + sigma C + sigma^2 R there, with pencil_solver: by banded Cholesky at
the stepper's real sigma = 2/dt and the modes' undamped shift, by banded
LU at the scan's sigma = i lam; the scan and the modes share one Lanczos
loop, lanczos_top.  The reduced coordinates, the public state, expand the
DNN fields in an orthonormal mean-zero basis built from one Householder
reflector, so to_nodes and to_reduced convert states in O(n); the dense A
and M are built only on request, for operator dumps and test oracles.

The coefficients are uniform and both ends alike, so when the damping is
symmetric about L/2 the reflection x -> L - x commutes with the system and
splits it into two invariant sectors; mirror_basis spans each in node
coordinates, and energy_blocks hands the spectrum a builder of one dense
block per sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

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

DENSE_CAP = 3600  # largest dimension of a dense square matrix build
# a ramped damping profile evaluates its two mirror sides a few eps apart
MIRROR_RTOL = 1e-14
# phi is even, psi and omega odd under x -> L - x: the strains keep their squares
MIRROR_PARITY = (1.0, -1.0, -1.0)


class AdmissibilityError(ValueError):
    """Raised when the requested geometry makes the energy norm degenerate."""


class DenseSolverCapError(RuntimeError):
    """System too large for a dense d x d build or solve."""


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


def _householder(g: np.ndarray) -> np.ndarray:
    """Unit vector u of the reflector H = I - 2 u u^T that sends g/|g| to the
    first coordinate axis; columns 1.. of H span the complement of g."""
    u = g / np.linalg.norm(g)
    u[0] -= 1.0
    u /= np.linalg.norm(u)
    return u


def _reflector(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Unit vector u of the Householder reflector H = I - 2 u u^T that sends
    sqrt(mu)/|sqrt(mu)| to the first coordinate axis, and sqrt(mu) itself.

    The mean-zero basis of a DNN field is columns 1..n of H divided row-wise
    by sqrt(mu): orthonormal in the trapezoid product, and each direction a
    scaled shift plus one rank-one term, so both coordinate maps cost O(n).
    """
    root = np.sqrt(grid.trapezoid_weights())
    return _householder(root), root


@dataclass(frozen=True)
class NodeParts:
    """Sparse node-level pieces of the energy pencil, assembled once.

    A half-state in node coordinates holds phi at interior nodes and psi,
    omega at interior nodes (DDD) or at all n+1 nodes (DNN), node by node
    (key node*3 + field), so K has half-bandwidth 5 at any n.  q and p share
    that layout, and the energy is (q^T K q + p^T diag(mass) p) / 2 on the
    states with border^T q = border^T p = 0.  The roots act on x = [q; p].
    """

    embeddings: dict            # field -> stored nodes into all n+1 nodes
    layout: np.ndarray          # node-order position of each stored value listed field by field
    strain: sp.csr_matrix       # S: node values -> per-cell strain samples
    cell_weights: np.ndarray    # W: quadrature weight of each strain sample
    stiffness: sp.csc_matrix    # K = S^T W S
    band: np.ndarray            # K in LAPACK band storage, 2 * bandwidth + 1 rows
    mass: np.ndarray            # rho * mu at the stored nodes
    damping: np.ndarray         # mu * a at the psi nodes, zero elsewhere
    border: np.ndarray          # DNN: columns mu on psi and on omega; DDD: none
    reflector: tuple | None     # DNN: _reflector(grid) of the mean-zero basis; DDD: none
    energy_root: sp.csr_matrix  # e = [sqrt(W) S q; sqrt(mass) p], E = |e|^2 / 2
    damping_root: sp.csr_matrix  # g = sqrt(damping) p on its support, D = |g|^2

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    @property
    def node_slices(self) -> dict[str, np.ndarray]:
        """field -> half-state positions of its stored nodes, in node order."""
        stops = np.cumsum([self.embeddings[f].shape[1] for f in FIELD_NAMES[:3]])
        return {f: self.layout[stop - self.embeddings[f].shape[1]:stop]
                for f, stop in zip(FIELD_NAMES[:3], stops)}


def _node_parts(params: BeamParameters, bc: BoundaryCondition, grid: Grid,
                a_nodes: np.ndarray) -> NodeParts:
    """Strain map, stiffness, mass, damping and energy roots on the nodes;
    the energy and the generator both derive from these, so the two stay
    exactly compatible.  Built field by field, then put in node order once."""
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
        border, reflector = np.zeros((mass.size, 0)), None
    else:
        border = np.column_stack([
            np.concatenate([zeros["phi"], mu, zeros["omega"]]),
            np.concatenate([zeros["phi"], zeros["psi"], mu])])
        reflector = _reflector(grid)

    nodes = np.arange(n + 1)
    perm = np.argsort(np.concatenate([3 * (emb[f].T @ nodes) + k
                                      for k, f in enumerate(FIELD_NAMES[:3])]))
    S, K = S[:, perm], K[perm][:, perm]
    mass, damping, border = mass[perm], damping[perm], border[perm]
    coo = K.tocoo()
    kl = int(np.abs(coo.row - coo.col).max(initial=0))
    band = np.zeros((2 * kl + 1, perm.size))
    band[kl + coo.row - coo.col, coo.col] = coo.data

    energy_root = sp.bmat([[sp.diags(np.sqrt(cell_w)) @ S, None],
                           [None, sp.diags(np.sqrt(mass))]], format="csr")
    shear = sp.diags(np.sqrt(damping), format="csr")[np.flatnonzero(damping)]
    damping_root = sp.hstack([sp.csr_matrix(shear.shape), shear], format="csr")
    return NodeParts(emb, np.argsort(perm), S, cell_w, K, band, mass, damping, border,
                     reflector, energy_root, damping_root)


def to_nodes(parts: NodeParts, y: np.ndarray) -> np.ndarray:
    """Node half-states of reduced half-states y (a vector or columns), in O(n).

    phi and all DDD fields keep their values; a DNN psi or omega block with
    mean-zero coefficients c has node values H[:, 1:] c / sqrt(mu).
    """
    Y = B = y.reshape(y.shape[0], -1)  # B: field by field
    X = np.empty((parts.layout.size, Y.shape[1]), dtype=Y.dtype)
    if parts.reflector is not None:
        u, root = parts.reflector
        n = root.size - 1
        B = np.zeros_like(X)
        B[:n - 1] = Y[:n - 1]
        for c, x in ((Y[n - 1:2 * n - 1], B[n - 1:2 * n]), (Y[2 * n - 1:], B[2 * n:])):
            x[1:] = (1.0 / root[1:])[:, None] * c
            x += (-2.0 * u / root)[:, None] * (u[1:] @ c)
    X[parts.layout] = B
    return X.reshape(X.shape[:1] + y.shape[1:])


def to_reduced(parts: NodeParts, x: np.ndarray) -> np.ndarray:
    """Inverse of to_nodes on node half-states that satisfy the border rows:
    c = H[1:, :] (sqrt(mu) x) per DNN psi or omega block, in O(n)."""
    X = x.reshape(x.shape[0], -1)[parts.layout]  # field by field
    if parts.reflector is not None:
        u, root = parts.reflector
        n = root.size - 1
        Y = np.empty((3 * n - 1, X.shape[1]), dtype=X.dtype)
        Y[:n - 1] = X[:n - 1]
        for w, c in ((X[n - 1:2 * n], Y[n - 1:2 * n - 1]), (X[2 * n:], Y[2 * n - 1:])):
            c[:] = root[1:, None] * w[1:] + (-2.0 * u[1:])[:, None] * ((u * root) @ w)
        X = Y
    return X.reshape(X.shape[:1] + x.shape[1:])


def mirror_image(parts: NodeParts) -> tuple[np.ndarray, np.ndarray]:
    """(image, sign) of the reflection x -> L - x on node half-states,
    (J x)[k] = sign[k] x[image[k]], sign the field's MIRROR_PARITY."""
    image = np.empty(parts.layout.size, dtype=int)
    sign = np.empty(parts.layout.size)
    for s, pos in zip(MIRROR_PARITY, parts.node_slices.values()):
        image[pos], sign[pos] = pos[::-1], s  # stored nodes sit symmetrically
    return image, sign


def mirror_symmetric(parts: NodeParts) -> bool:
    """Whether J keeps the mass and commutes with the energy-weighted
    stiffness R^-1/2 K R^-1/2 and damping R^-1 C, each to MIRROR_RTOL of its
    largest entry.  Uniform coefficients make the stiffness and mass exactly
    symmetric; the damping profile decides."""
    image, sign = mirror_image(parts)
    mass = parts.mass
    r = sp.diags(1.0 / np.sqrt(mass))
    K = r @ parts.stiffness @ r
    J = sp.csr_matrix((sign, (np.arange(image.size), image)), shape=(image.size,) * 2)
    c = parts.damping / mass
    return (np.abs(mass[image] - mass).max() <= MIRROR_RTOL * mass.max()
            and abs(J @ K @ J.T - K).max() <= MIRROR_RTOL * abs(K).max()
            and np.abs(c[image] - c).max() <= MIRROR_RTOL * np.abs(c).max())


def mirror_basis(parts: NodeParts, sign: float) -> tuple[np.ndarray, dict[str, slice]]:
    """Node half-states X spanning {x : J x = sign x, border^T x = 0}, with
    X^T R X = I, and the column slice of each field (columns field by field).

    In y = R^1/2 x a column is a mirror pair (e_i + t e_j)/sqrt(2), t the
    sign times the field's parity, or for t = +1 the mid node that J maps to
    itself.  A border column (mu on a DNN psi or omega) is symmetric, so it
    lies in its field's t = +1 sector; there columns 1.. of one Householder
    reflector of its coefficients drop its direction.
    """
    scale = 1.0 / np.sqrt(parts.mass)
    blocks = []
    for parity, pos in zip(MIRROR_PARITY, parts.node_slices.values()):
        t, k = sign * parity, pos.size  # the mirror of row i is row k - 1 - i
        j, mid = np.arange(k // 2), t > 0 and k % 2 == 1
        Y = np.zeros((k, j.size + mid))
        Y[j, j], Y[k - 1 - j, j] = np.sqrt(0.5), t * np.sqrt(0.5)
        if mid:
            Y[k // 2, -1] = 1.0
        Y *= scale[pos, None]
        G = parts.border[pos]
        G = G[:, np.any(G, axis=0)]
        if t > 0 and G.shape[1]:
            u = _householder(G[:, 0] @ Y)
            Y = Y[:, 1:] - np.outer(2.0 * (Y @ u), u[1:])
        blocks.append((pos, Y))
    X = np.zeros((parts.layout.size, sum(Y.shape[1] for _, Y in blocks)))
    cols, c0 = {}, 0
    for f, (pos, Y) in zip(FIELD_NAMES, blocks):
        cols[f] = slice(c0, c0 + Y.shape[1])
        X[pos, cols[f]] = Y
        c0 = cols[f].stop
    return X, cols


def pencil_solver(parts: NodeParts, sigma: complex):
    """solve(b, adjoint=False) for [Q G; G^T 0] [x; *] = [b; 0] with the energy
    pencil Q = K + sigma C + sigma^2 R (R the mass, C the damping) in node
    order and G the border.

    A real sigma is factored by banded Cholesky (pbtrf) on the upper half of
    the band storage, and a complex right-hand side goes through one pbtrs
    as two real columns; for sigma > 0 and C >= 0 (DampingProfile refuses
    a0 < 0) Q is positive definite.  A complex sigma is factored by
    banded LU with partial pivoting (gbtrf).  The border goes by block
    elimination with Z = Q^-1 G, reused as conj(Z) for Q^H = conj(Q).  A
    real Q that is not positive definite, a zero pivot or a singular G^T Z
    raises LinAlgError."""
    kl = parts.bandwidth
    diagonal = sigma * (sigma * parts.mass + parts.damping)
    real = np.isrealobj(sigma)
    if real:
        ab = parts.band[:kl + 1].copy()  # the upper band, diagonal in row kl
        ab[kl] += diagonal
        pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        chol, info = pbtrf(ab, overwrite_ab=True)
        if info:
            raise np.linalg.LinAlgError(f"pencil not positive definite (leading minor {info})")

        def banded(b, adjoint):  # Q is real symmetric: Q^H = Q
            return pbtrs(chol, b)[0]
    else:
        ab = np.zeros((3 * kl + 1, parts.band.shape[1]), dtype=np.result_type(parts.band, sigma))
        ab[kl:] = parts.band  # the top kl rows are room for the pivots
        ab[2 * kl] += diagonal
        gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, piv, info = gbtrf(ab, kl, kl, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"zero pivot {info}")

        def banded(b, adjoint):
            return gbtrs(lu, kl, kl, b, piv, trans=2 if adjoint else 0)[0]
    border, corrections = parts.border, None
    if border.shape[1]:
        Z = banded(border, False)
        try:
            W = np.linalg.solve(border.T @ Z, border.T)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError("border G^T Q^-1 G is singular") from err
        corrections = (Z, W), (Z.conj(), W.conj())

    def solve(b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        if real and b.dtype.kind == "c":  # solve the parts as columns of one call
            B = b.reshape(b.shape[0], -1)
            X = banded(np.hstack([B.real, B.imag]), adjoint)
            x = (X[:, :B.shape[1]] + 1j * X[:, B.shape[1]:]).reshape(b.shape)
        else:
            x = banded(b, adjoint)
        if corrections is not None:
            Z, W = corrections[adjoint]
            x -= np.dot(Z, np.dot(W, x))  # np.dot: less dispatch than @ on these small products
        return x
    return solve


def lanczos_top(apply, gram, start: np.ndarray, k: int, maxiter: int, rtol: float):
    """The k largest eigenvalues, increasing, of an operator self-adjoint and
    positive in the product x^H gram(y), and their gram-normalized Ritz
    vectors as rows, by Lanczos from start with full reorthogonalization.

    The basis holds up to maxiter vectors of start's size and dtype.
    Convergence is tested with LAPACK stemr on the top k pairs of the
    tridiagonal matrix, first once the basis holds 2k - 1 vectors (or
    maxiter), then each time it has grown by an eighth, and whenever the new
    off-diagonal beta alone meets the test: each pair's residual
    |apply(x) - theta x| must be at most rtol times the largest value.
    Iterates that overflow return infinite values and no vectors; no
    convergence in maxiter steps raises LinAlgError."""
    V, GVc = np.empty((2, maxiter, start.size), dtype=start.dtype)  # GVc: conj(gram(V))
    alpha, beta = np.empty(maxiter), np.empty(maxiter + 1)
    stemr, = scipy.linalg.get_lapack_funcs(("stemr",), (alpha,))
    w, Gw = start, gram(start)
    beta[0] = np.sqrt(np.vdot(w, Gw).real)
    check = min(2 * k - 1, maxiter)
    for j in range(maxiter):
        V[j], GVc[j] = w / beta[j], Gw.conj() / beta[j]
        w = apply(V[j])
        h = GVc[:j + 1] @ w
        w -= h @ V[:j + 1]
        w -= (GVc[:j + 1] @ w) @ V[:j + 1]  # twice is enough
        Gw = gram(w)
        alpha[j] = h[j].real
        beta[j + 1] = np.sqrt(max(np.vdot(w, Gw).real, 0.0))
        if not np.isfinite(beta[j + 1]):  # an overflow in w reaches beta
            return np.full(k, np.inf), None
        size = j + 1
        # such a beta passes every pair (|S| <= 1, and the top Ritz value is at
        # least every alpha); checked now, as the Krylov space may be
        # exhausted, and stepping on would make ghost copies of the top pairs
        if size < check and beta[size] > rtol * alpha[:size].max():
            continue
        if size < k:
            raise np.linalg.LinAlgError(f"Krylov space exhausted at {size} < {k} vectors")
        check = size + size // 8
        # range 2: by index; stemr overwrites its off-diagonal, whose last
        # entry is workspace
        _, vals, S, info = stemr(alpha[:size], beta[1:size + 1].copy(), 2, 0.0, 0.0,
                                 size - k + 1, size)
        if info:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info={info})")
        vals, S = vals[:k], S[:, :k]
        if np.all(beta[size] * np.abs(S[-1]) <= rtol * vals[-1]):
            return vals, S.T @ V[:size]
    raise np.linalg.LinAlgError(f"Lanczos did not converge in {maxiter} steps")


def half_dimension(bc: BoundaryCondition, n: int) -> int:
    """Size of a reduced half-state on n cells, known before assembly."""
    return 3 * n - (3 if bc is BoundaryCondition.DDD else 1)


def check_dense_cap(rows: int, cols: int | None = None) -> None:
    """Refuse a dense rows x cols array (square by default) above the
    DENSE_CAP x DENSE_CAP elements of the largest square build, before it
    allocates."""
    cols = rows if cols is None else cols
    if rows * cols > DENSE_CAP ** 2:
        what = (f"dimension {rows}" if rows == cols
                else f"{rows} x {cols} basis, over {DENSE_CAP}^2 elements,")
        raise DenseSolverCapError(
            f"{what} exceeds the dense solver cap {DENSE_CAP}; use a smaller n")


def _gram(T: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T^T diag(w) T, symmetrized."""
    G = T.T @ (w[:, None] * T)
    return 0.5 * (G + G.T)


def energy_block(parts: NodeParts, X: np.ndarray, psi: slice) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness K = X^T S^T W S X of a basis X of node half-states
    (columns) and the damping Gram C on its psi columns."""
    nodes = parts.node_slices["psi"]
    return (_gram(parts.strain @ X, parts.cell_weights),
            _gram(X[nodes, psi], parts.damping[nodes]))


class DiscreteSystem:
    """Assembled first-order system U' = A U with energy E = U^T M U / 2.

    State ordering is (phi, psi, omega, u, v, z) with u, v, z the velocities,
    in reduced coordinates.  The sparse node-level parts carry the physics;
    energy and dissipation are evaluated from them in O(n).  The dense
    half-size stiffness and damping Grams (reduced_block) are built from
    them on first use (for the spectrum of a system without mirror
    symmetry), and the dense A and M, which read that block, only on
    request (operator dumps and test oracles), all below the dense cap.  M
    is symmetric positive definite; the damping enters A only on the
    shear-velocity block.
    """

    def __init__(self, params, profile, bc, grid, parts: NodeParts, slices,
                 velocity_mass):
        self.params, self.profile, self.bc, self.grid = params, profile, bc, grid
        self.parts, self.slices, self.velocity_mass = parts, slices, velocity_mass
        self.spectrum = None  # spectral's eigenvalues, computed on first use
        self.spectrum_blocks = None  # and the half size of each Schur block they came from
        self._half = slices["omega"].stop

    @property
    def dimension(self) -> int:
        return 2 * self._half

    def node_state(self, U: np.ndarray) -> np.ndarray:
        """x = [q; p] in node coordinates of reduced states U (vector or columns)."""
        h = self._half
        return np.concatenate([to_nodes(self.parts, U[:h]), to_nodes(self.parts, U[h:])])

    def reduced_state(self, x: np.ndarray) -> np.ndarray:
        """Inverse of node_state on states that satisfy the border rows."""
        m = self.parts.mass.size
        return np.concatenate([to_reduced(self.parts, x[:m]), to_reduced(self.parts, x[m:])])

    def energy(self, U: np.ndarray) -> float:
        e = self.parts.energy_root @ self.node_state(U)
        return 0.5 * float(e @ e)

    def dissipation_rate(self, U: np.ndarray) -> float:
        """-dE/dt along the flow: quadrature of a(x) times shear velocity squared."""
        g = self.parts.damping_root @ self.node_state(U)
        return float(g @ g)

    def field_values(self, U: np.ndarray, name: str) -> np.ndarray:
        """Node values of one field, boundary values included."""
        if name not in FIELD_NAMES:
            raise KeyError(f"unknown field {name!r}")
        k = FIELD_NAMES.index(name)
        half = U[:self._half] if k < 3 else U[self._half:]
        base = FIELD_NAMES[k % 3]
        stored = to_nodes(self.parts, half)[self.parts.node_slices[base]]
        return self.parts.embeddings[base] @ stored

    @cached_property
    def reduced_block(self) -> tuple[np.ndarray, np.ndarray]:
        """energy_block of the reduced coordinates: the dense stiffness block
        of M and the damping Gram on the shear-velocity block."""
        check_dense_cap(self._half)
        X = to_nodes(self.parts, np.eye(self._half))
        return energy_block(self.parts, X, self.slices["psi"])

    def energy_blocks(self) -> list:
        """One builder per invariant subspace of the generator: called, it
        returns (K, V, C, psi), the dense stiffness K and diagonal velocity
        mass V of the subspace's coordinates and the damping Gram C on its
        psi coordinates psi.  A mirror-symmetric system splits into its
        sectors J = +1 and J = -1 in mirror_basis coordinates (V = 1); any
        other is one block, the reduced coordinates."""
        if not mirror_symmetric(self.parts):
            return [self._reduced_energy_block]
        return [partial(self._sector_energy_block, sign) for sign in (1.0, -1.0)]

    def _reduced_energy_block(self):
        K, C = self.reduced_block
        return K, self.velocity_mass, C, self.slices["psi"]

    def _sector_energy_block(self, sign: float):
        X, cols = mirror_basis(self.parts, sign)
        K, C = energy_block(self.parts, X, cols["psi"])
        return K, np.ones(K.shape[0]), C, cols["psi"]

    @cached_property
    def M(self) -> np.ndarray:
        """Dense energy Gram of the reduced coordinates, built on first use."""
        check_dense_cap(self.dimension)
        h = self._half
        M = np.zeros((2 * h, 2 * h))
        M[:h, :h] = self.reduced_block[0]
        M[np.arange(h, 2 * h), np.arange(h, 2 * h)] = self.velocity_mass
        return M

    @cached_property
    def A(self) -> np.ndarray:
        """Dense generator of the reduced coordinates, built on first use."""
        check_dense_cap(self.dimension)
        h = self._half
        A = np.zeros((2 * h, 2 * h))
        A[:h, h:] = np.eye(h)
        K, C = self.reduced_block
        A[h:, :h] = -K / self.velocity_mass[:, None]
        sl_v = self.slices["v"]
        A[sl_v, sl_v] -= C / self.velocity_mass[self.slices["psi"], None]
        return A


def _build(params, profile, bc, grid) -> DiscreteSystem:
    a_nodes = damping_values(profile, grid.nodes(), params.L)
    parts = _node_parts(params, bc, grid, a_nodes)
    m = grid.n if bc is BoundaryCondition.DNN else grid.n - 1
    sizes = [grid.n - 1, m, m] * 2
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    slices = {f: slice(int(offsets[i]), int(offsets[i + 1]))
              for i, f in enumerate(FIELD_NAMES)}
    w_node = grid.trapezoid_weights()[1:-1]
    # the mean-zero basis is orthonormal in the mu product, so the reduced
    # velocity Gram of a DNN field is the identity by construction
    w_free = w_node if bc is BoundaryCondition.DDD else np.ones(grid.n)
    velocity_mass = np.concatenate([params.rho1 * w_node, params.rho2 * w_free,
                                    params.rho1 * w_free])
    return DiscreteSystem(params, profile, bc, grid, parts, slices, velocity_mass)


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
