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

One state space describes the system: x = [q; p] in node coordinates
(NodeParts), the displacements q and velocities p stored node by node.  K =
S^T W S, also in band storage, the mass R, the damping C and the energy and
dissipation roots are sparse and banded, and the DNN mean-zero constraints
are two border rows that both halves satisfy.  Stepping, resolvent scans
and the initial modes factor the pencil K + sigma C + sigma^2 R there, with
pencil_solver: by banded Cholesky at the stepper's real sigma = 2/dt and
the modes' undamped shift, by banded LU at the scan's sigma = i lam; the
scan and the modes share one Lanczos loop, lanczos_top, which keeps its
basis on the border rows.  The generator A and energy Gram M are built
only on request, sparse for operator dumps and dense for test oracles, in
the mass-orthonormal basis of mirror_basis.

The coefficients are uniform and both ends alike, so when the damping is
symmetric about L/2 the reflection x -> L - x commutes with the system and
splits it into two invariant sectors.  mirror_basis spans one sector, or
the whole constrained space, in node coordinates, and energy_block turns
such a basis into the dense block the spectrum factors.
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


@dataclass(frozen=True)
class NodeParts:
    """Sparse node-level pieces of the energy pencil, assembled once.

    A half-state in node coordinates holds phi at interior nodes and psi,
    omega at interior nodes (DDD) or at all n+1 nodes (DNN), node by node
    (key node*3 + field), so K has half-bandwidth 5 at any n.  q and p share
    that layout, and the energy is (q^T K q + p^T diag(mass) p) / 2 on the
    states with border^T q = border^T p = 0.  The roots act on x = [q; p].
    """

    nodes: dict                 # field -> its stored nodes, indices into the n+1 grid nodes
    layout: np.ndarray          # node-order position of each stored value listed field by field
    strain: sp.csr_matrix       # S: node values -> per-cell strain samples
    cell_weights: np.ndarray    # W: quadrature weight of each strain sample
    stiffness: sp.csc_matrix    # K = S^T W S
    band: np.ndarray            # K in LAPACK band storage, 2 * bandwidth + 1 rows
    mass: np.ndarray            # rho * mu at the stored nodes
    damping: np.ndarray         # mu * a at the psi nodes, zero elsewhere
    border: np.ndarray          # DNN: columns mu on psi and on omega; DDD: none
    energy_root: sp.csr_matrix  # e = [sqrt(W) S q; sqrt(mass) p], E = |e|^2 / 2
    damping_root: sp.csr_matrix  # g = sqrt(damping) p on its support, D = |g|^2
    frequency_bound: float      # sqrt(max_i sum_j |K_ij| / mass_i), Gershgorin's bound

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    @property
    def node_slices(self) -> dict[str, np.ndarray]:
        """field -> half-state positions of its stored nodes, in node order."""
        stops = np.cumsum([self.nodes[f].size for f in FIELD_NAMES[:3]])
        return {f: self.layout[stop - self.nodes[f].size:stop]
                for f, stop in zip(FIELD_NAMES[:3], stops)}


def _strain_stencil(h: float, l: float) -> tuple:
    """The strain samples of one cell, row block by row block, as (field,
    end, value) terms, end 0 the cell's left node and 1 its right node: shear
    and stretch at the left node, the same at the right node, and bending,
    weighted kappa h/2, kappa0 h/2, kappa h/2, kappa0 h/2 and b h."""
    dl, dr = -1.0 / h, 1.0 / h
    return (((0, 0, dl), (0, 1, dr), (1, 0, 1.0), (2, 0, l)),
            ((0, 0, -l), (2, 0, dl), (2, 1, dr)),
            ((0, 0, dl), (0, 1, dr), (1, 1, 1.0), (2, 1, l)),
            ((0, 1, -l), (2, 0, dl), (2, 1, dr)),
            ((1, 0, dl), (1, 1, dr)))


def _indptr(rows: np.ndarray, size: int) -> np.ndarray:
    """indptr of entries already sorted by row."""
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return indptr


def _node_parts(params: BeamParameters, bc: BoundaryCondition, grid: Grid,
                a_nodes: np.ndarray) -> NodeParts:
    """Strain map, stiffness, mass, damping and energy roots on the nodes;
    the energy and the generator both derive from these, so the two stay
    exactly compatible.

    S and the roots are built once from (row, column, value) arrays; K is
    S^T W S by scipy's sparse product, made exactly symmetric as
    (K + K^T) / 2 without its exact zeros."""
    n, h, l = grid.n, grid.h, params.l
    mu = grid.trapezoid_weights()
    # clamped fields keep the interior nodes, zero-slope (DNN) ones all nodes
    interior, full = np.arange(1, n), np.arange(n + 1)
    stored = [interior] + [interior if bc is BoundaryCondition.DDD else full] * 2
    # the field-by-field column of each field's node (-1: not stored)
    offsets = np.cumsum([0] + [s.size for s in stored])
    column = np.full((3, n + 1), -1)
    for k, s in enumerate(stored):
        column[k, s] = offsets[k] + np.arange(s.size)
    size = int(offsets[-1])
    perm = np.argsort(np.concatenate([3 * s + k for k, s in enumerate(stored)]))
    layout = np.argsort(perm)  # node-order position of each field-by-field column

    # S: one row per strain sample, its terms in field-by-field column order
    cells = np.arange(n)
    rows, cols, vals = [], [], []
    for b, terms in enumerate(_strain_stencil(h, l)):
        for f, end, value in terms:
            c = column[f, cells + end]
            keep = c >= 0
            rows.append(b * n + cells[keep])
            cols.append(c[keep])
            vals.append(np.full(keep.sum(), value))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], layout[cols[order]], vals[order]
    samples = 5 * n
    cell_w = np.concatenate([np.full(n, 0.5 * params.kappa * h),
                             np.full(n, 0.5 * params.kappa0 * h)] * 2 + [np.full(n, params.b * h)])
    S = sp.csr_matrix((vals, cols.astype(np.int32), _indptr(rows, samples)),
                      shape=(samples, size))

    K = S.T @ sp.diags(cell_w) @ S
    K = (0.5 * (K + K.T)).tocsc()
    K.eliminate_zeros()
    K.sort_indices()  # symmetric, so these canonical CSC arrays are also its CSR arrays
    ki, kj = K.indices, np.repeat(np.arange(size), np.diff(K.indptr))
    kl = int(np.abs(ki - kj).max(initial=0))
    band = np.zeros((2 * kl + 1, size))
    band[kl + ki - kj, kj] = K.data

    mass = np.concatenate([params.rho1 * mu[stored[0]], params.rho2 * mu[stored[1]],
                           params.rho1 * mu[stored[2]]])[perm]
    damping = np.zeros(size)
    damping[layout[offsets[1]:offsets[2]]] = (mu * a_nodes)[stored[1]]
    border = np.zeros((size, 0 if bc is BoundaryCondition.DDD else 2))
    for k in range(1, border.shape[1] + 1):
        border[layout[offsets[k]:offsets[k + 1]], k - 1] = mu
    bound = np.sqrt(np.max(np.asarray(abs(K).sum(axis=1)).ravel() / mass))

    # e = [sqrt(W) S q; sqrt(mass) p] and g = sqrt(damping) p, entries by column
    order = np.lexsort((cols, rows))
    root_rows = np.concatenate([rows, samples + np.arange(size)])
    energy_root = sp.csr_matrix(
        (np.concatenate([np.sqrt(cell_w)[rows[order]] * vals[order], np.sqrt(mass)]),
         np.concatenate([cols[order], size + np.arange(size)]).astype(np.int32),
         _indptr(root_rows, samples + size)), shape=(samples + size, 2 * size))
    support = np.flatnonzero(damping)
    damping_root = sp.csr_matrix(
        (np.sqrt(damping[support]), (size + support).astype(np.int32),
         np.arange(support.size + 1, dtype=np.int32)), shape=(support.size, 2 * size))
    return NodeParts(dict(zip(FIELD_NAMES[:3], stored)), layout, S, cell_w, K, band, mass,
                     damping, border, energy_root, damping_root, bound)


def to_nodes(parts: NodeParts, y: np.ndarray) -> np.ndarray:
    """Node half-state of a half-state y drawn in the constrained dimension
    (the seeded mode-sign and scan starts), in O(n).

    phi and all DDD fields keep their values; a DNN psi or omega block with
    coefficients c has node values H[:, 1:] c / sqrt(mu), H = I - 2 u u^T
    the Householder reflector that sends sqrt(mu) to the first axis.
    """
    b = y  # field by field
    if parts.border.shape[1]:
        root = np.sqrt(parts.border[parts.node_slices["psi"], 0])  # sqrt(mu)
        u, n = _householder(root), root.size - 1
        b = np.zeros(parts.layout.size, dtype=y.dtype)
        b[:n - 1] = y[:n - 1]
        for c, x in ((y[n - 1:2 * n - 1], b[n - 1:2 * n]), (y[2 * n - 1:], b[2 * n:])):
            x[1:] = (1.0 / root[1:]) * c
            x += (-2.0 * u / root) * (u[1:] @ c)
    x = np.empty_like(b)
    x[parts.layout] = b
    return x


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
    symmetric; the damping profile decides.  The stiffness is compared in
    band storage: J K J^T has entry sign_a sign_b K[image a, image b] at
    (a, b), zero where that lies outside the band."""
    image, sign = mirror_image(parts)
    mass, kl = parts.mass, parts.bandwidth
    r = 1.0 / np.sqrt(mass)
    cols = np.arange(mass.size)
    rows = cols + np.arange(-kl, kl + 1)[:, None]  # band[kl + a - b, b] = K[a, b]
    valid = (rows >= 0) & (rows < mass.size)
    rows = np.where(valid, rows, cols)
    K = r[cols] * (r[rows] * parts.band)
    diagonal = kl + image[rows] - image[cols]
    inside = valid & (diagonal >= 0) & (diagonal <= 2 * kl)
    mirrored = np.where(inside, sign[rows] * sign[cols] * K[np.clip(diagonal, 0, 2 * kl),
                                                             image[cols]], 0.0)
    c = parts.damping / mass
    return (np.abs(mass[image] - mass).max() <= MIRROR_RTOL * mass.max()
            and np.abs(mirrored - K).max() <= MIRROR_RTOL * np.abs(K).max()
            and np.abs(c[image] - c).max() <= MIRROR_RTOL * np.abs(c).max())


def mirror_basis(parts: NodeParts, sign: float | None) -> tuple[np.ndarray, dict[str, slice]]:
    """Node half-states X spanning {x : J x = sign x, border^T x = 0}, or
    the whole constrained space {x : border^T x = 0} for sign None, with
    X^T R X = I, and the column slice of each field (columns field by field).

    In y = R^1/2 x a column is a mirror pair (e_i + t e_j)/sqrt(2), t the
    sign times the field's parity, or for t = +1 the mid node that J maps to
    itself; for sign None it is a node's unit vector.  A border column (mu
    on a DNN psi or omega) is symmetric, so it lies in its field's t = +1
    sector; there, and in the whole space, columns 1.. of one Householder
    reflector of its coefficients drop its direction.
    """
    scale = 1.0 / np.sqrt(parts.mass)
    blocks = []
    for parity, pos in zip(MIRROR_PARITY, parts.node_slices.values()):
        k, t = pos.size, 1.0 if sign is None else sign * parity
        if sign is None:
            Y = np.eye(k)
        else:  # the mirror of row i is row k - 1 - i
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
        pbtrs = scipy.linalg.lapack.dpbtrs
        chol, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=True)
        if info:
            raise np.linalg.LinAlgError(f"pencil not positive definite (leading minor {info})")

        def banded(b, adjoint):  # Q is real symmetric: Q^H = Q
            return pbtrs(chol, b)[0]
    else:
        ab = np.zeros((3 * kl + 1, parts.band.shape[1]), dtype=complex)
        ab[kl:] = parts.band  # the top kl rows are room for the pivots
        ab[2 * kl] += diagonal
        gbtrs = scipy.linalg.lapack.zgbtrs
        lu, piv, info = scipy.linalg.lapack.zgbtrf(ab, kl, kl, overwrite_ab=True)
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


def lanczos_top(apply, gram, start: np.ndarray, border: np.ndarray, k: int, maxiter: int,
                rtol: float):
    """The k largest eigenvalues, increasing, of an operator self-adjoint and
    positive in the product x^H gram(y), and their gram-normalized Ritz
    vectors as rows, by Lanczos from start with full reorthogonalization.

    Each half of a vector (one for a half-state, two for x = [q; p]) keeps
    to the border rows G^T x = 0: after the second reorthogonalization pass,
    P = I - G (G^T G)^-1 G^T takes off the rounding apply left on them,
    which the reorthogonalization would amplify far from the spectrum.
    The basis holds vectors of start's size and dtype: 16 at first, twice
    as many each time it is full, never more than maxiter.
    Convergence is tested with LAPACK stemr on the top k pairs of the
    tridiagonal matrix, first once the basis holds 2k - 1 vectors (or
    maxiter), then each time it has grown by an eighth, and whenever the new
    off-diagonal beta alone meets the test: each pair's residual
    |apply(x) - theta x| must be at most rtol times the largest value.
    Iterates that overflow return infinite values and no vectors; no
    convergence in maxiter steps raises LinAlgError."""
    V, GVc = np.empty((2, min(16, maxiter), start.size), dtype=start.dtype)  # GVc: conj(gram(V))
    alpha, beta = np.empty(maxiter), np.empty(maxiter + 1)
    project = border.shape[1] > 0
    if project:  # G^T and ((G^T G)^-1 G^T)^T in start's dtype: no cast at each step
        Gt = border.T.astype(start.dtype)
        pinv = np.linalg.solve(border.T @ border, border.T).T.astype(start.dtype)
    w, Gw = start, gram(start)
    beta[0] = np.sqrt(np.vdot(w, Gw).real)
    check = min(2 * k - 1, maxiter)
    for j in range(maxiter):
        if j == len(V):
            grown = np.empty((2, min(2 * j, maxiter), start.size), dtype=start.dtype)
            grown[0, :j], grown[1, :j] = V, GVc
            V, GVc = grown
        Vj, Gj = V[:j + 1], GVc[:j + 1]
        np.divide(w, beta[j], out=Vj[j])
        np.divide(np.conjugate(Gw, out=Gj[j]), beta[j], out=Gj[j])
        w = apply(Vj[j])
        h = Gj @ w
        w -= h @ Vj
        w -= (Gj @ w) @ Vj  # twice is enough
        if project:
            rows = w.reshape(-1, border.shape[0])  # a view: each half as a row
            rows -= np.dot(np.dot(rows, pinv), Gt)
        Gw = gram(w)
        alpha[j] = h[j].real
        beta[j + 1] = np.sqrt(max(np.vdot(w, Gw).real, 0.0))
        if not beta[j + 1] < np.inf:  # an overflow in w reaches beta as inf or nan
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
        _, vals, S, info = scipy.linalg.lapack.dstemr(alpha[:size], beta[1:size + 1].copy(),
                                                      2, 0.0, 0.0, size - k + 1, size)
        if info:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info={info})")
        vals, S = vals[:k], S[:, :k]
        if (beta[size] * np.abs(S[-1]) <= rtol * vals[-1]).all():
            return vals, S.T @ V[:size]
    raise np.linalg.LinAlgError(f"Lanczos did not converge in {maxiter} steps")


def half_dimension(bc: BoundaryCondition, n: int) -> int:
    """Dimension of the constrained half-space on n cells (DiscreteSystem.dimension
    / 2), known before assembly."""
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
    (columns) and the damping Gram C on its columns psi (the psi field's,
    or slice(None) for all: zero off the psi field's)."""
    nodes = parts.node_slices["psi"]
    return (_gram(parts.strain @ X, parts.cell_weights),
            _gram(X[nodes, psi], parts.damping[nodes]))


class DiscreteSystem:
    """Assembled first-order system x' = A x with energy E(x).

    The state is x = [q; p] in node coordinates (NodeParts), q the
    displacements phi, psi, omega and p their velocities u, v, z; on DNN
    both halves satisfy the border rows, and dimension counts that
    constrained space.  Energy and dissipation come from the sparse parts
    in O(n).  A and M are built on request, below the dense cap, in the
    basis X = mirror_basis(parts, None): x = [X y_q; X y_p] has E = y^T M y
    / 2.  operators() builds them sparse (operator dumps), and the A and M
    attributes are their dense arrays (test oracles).
    """

    def __init__(self, params, profile, bc, grid, parts: NodeParts):
        self.params, self.profile, self.bc, self.grid = params, profile, bc, grid
        self.parts = parts
        self.spectrum = None  # spectral's eigenvalues, computed on first use
        self.spectrum_blocks = None  # and the half size of each Schur block they came from

    @property
    def dimension(self) -> int:
        return 2 * (self.parts.mass.size - self.parts.border.shape[1])

    def energy(self, x: np.ndarray) -> float:
        e = self.parts.energy_root @ x
        return 0.5 * float(e @ e)

    def dissipation_rate(self, x: np.ndarray) -> float:
        """-dE/dt along the flow: quadrature of a(x) times shear velocity squared."""
        g = self.parts.damping_root @ x
        return float(g @ g)

    def field_values(self, x: np.ndarray, name: str) -> np.ndarray:
        """Node values of one field of a state (vector or columns), boundary
        values included."""
        if name not in FIELD_NAMES:
            raise KeyError(f"unknown field {name!r}")
        k, m = FIELD_NAMES.index(name), self.parts.mass.size
        base = FIELD_NAMES[k % 3]
        stored = x[m * (k // 3) + self.parts.node_slices[base]]
        values = np.zeros((self.grid.n + 1,) + stored.shape[1:], dtype=stored.dtype)
        values[self.parts.nodes[base]] = stored
        return values

    def operators(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The generator A = [[0, I], [-K_X, -C_X]] and the energy Gram M =
        diag(K_X, I) as CSR, from energy_block on X = mirror_basis(parts,
        None), refused above the dense cap: K_X is dense."""
        check_dense_cap(self.dimension)
        K, C = energy_block(self.parts, mirror_basis(self.parts, None)[0], slice(None))
        K, C = sp.csr_matrix(K), sp.csr_matrix(C)
        eye = sp.eye(K.shape[0], format="csr")
        return (sp.bmat([[None, eye], [-K, -C]], format="csr"),
                sp.block_diag([K, eye], format="csr"))

    @cached_property
    def A(self) -> np.ndarray:
        """Dense generator, operators()'s first as an array; caches M too."""
        A, self.M = (op.toarray() for op in self.operators())
        return A

    @cached_property
    def M(self) -> np.ndarray:
        """Dense energy Gram, operators()'s second, cached by A."""
        self.A
        return vars(self)["M"]


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
    grid = Grid(n=n, length=params.L)
    parts = _node_parts(params, bc, grid, damping_values(profile, grid.nodes(), params.L))
    return DiscreteSystem(params, profile, bc, grid, parts)
