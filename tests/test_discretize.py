"""Assembly checks: grids, reduction bases, energy quadrature, dissipativity.

The energy oracle below re-evaluates the quadrature with plain Python loops
over cells and nodes, sharing no code with the matrix assembly; agreement to
near machine precision pins the Gram matrix to the intended integral.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from bresse.discretize import (
    AdmissibilityError,
    Grid,
    assemble,
    difference_operator,
    dirichlet_embedding,
    endpoint_selectors,
    half_dimension,
    lanczos_top,
    mirror_basis,
    mirror_symmetric,
    pencil_solver,
)
from bresse.evolve import undamped_modes
from bresse.model import damping_values
from bresse import spectral

from conftest import DDD, DNN, beam, border_free, interval, node_vectors, system_for


def mean_zero_basis(grid):
    """The program's orthonormal mean-zero basis on a grid: node values of the
    psi columns of mirror_basis(parts, None) of a DNN assembly with
    rho2 = 1.  Columns B satisfy B^T diag(mu) B = I and mu^T B = 0 when the
    construction is right."""
    system = assemble(beam(L=grid.length), interval(), DNN, grid.n)
    X, cols = mirror_basis(system.parts, None)
    return X[system.parts.node_slices["psi"], cols["psi"]]


def assemble_energy_gram(params, bc, grid):
    """Energy Gram matrix alone: M of the undamped assembly on the grid."""
    return assemble(params, interval(a0=0.0), bc, grid.n).M


def mean_zero_projector(grid):
    """mu-orthogonal projector onto the mean-zero subspace."""
    B = mean_zero_basis(grid)
    return B @ (B.T * grid.trapezoid_weights()[None, :])


def quadrature_energy(system, x):
    """Loop-based evaluation of the energy integral from nodal field values.

    Strain terms use the cell difference quotient with the zeroth-order
    couplings sampled at both cell endpoints (weight h/2 each); velocity
    terms use plain trapezoid node weights.
    """
    p = system.params
    g = system.grid
    h = g.h
    f = {name: system.field_values(x, name) for name in
         ("phi", "psi", "omega", "u", "v", "z")}
    total = 0.0
    for i in range(g.n):
        dphi = (f["phi"][i + 1] - f["phi"][i]) / h
        dpsi = (f["psi"][i + 1] - f["psi"][i]) / h
        domega = (f["omega"][i + 1] - f["omega"][i]) / h
        for j in (i, i + 1):
            shear = dphi + f["psi"][j] + p.l * f["omega"][j]
            stretch = domega - p.l * f["phi"][j]
            total += 0.5 * h * (p.kappa * shear ** 2 + p.kappa0 * stretch ** 2)
        total += h * p.b * dpsi ** 2
    mu = g.trapezoid_weights()
    for j in range(g.n + 1):
        total += mu[j] * (p.rho1 * f["u"][j] ** 2
                          + p.rho2 * f["v"][j] ** 2
                          + p.rho1 * f["z"][j] ** 2)
    return 0.5 * total


def test_grid_geometry():
    g = Grid(n=7, length=2.5)
    assert g.h * g.n == g.length
    assert g.nodes()[0] == 0.0
    assert g.nodes()[-1] == pytest.approx(2.5, abs=0)
    assert g.trapezoid_weights().sum() == pytest.approx(2.5, rel=1e-15)
    with pytest.raises(ValueError):
        Grid(n=3, length=1.0)
    with pytest.raises(ValueError):
        Grid(n=8, length=0.0)


def test_last_node_never_passes_length():
    """13 * (1.7 / 13) rounds to 1.7000000000000002; the damping evaluation
    would refuse that node, so the grid clamps it and assembly goes through.
    Nodes that round short of the length keep their arange values."""
    g = Grid(n=13, length=1.7)
    assert g.nodes()[-1] == 1.7
    np.testing.assert_array_equal(g.nodes()[:-1], np.arange(13) * g.h)
    for bc in (DNN, DDD):
        system = assemble(beam(L=1.7), interval(), bc, 13)
        assert system.grid.nodes()[-1] == system.params.L
    short = Grid(n=49, length=1.0)
    np.testing.assert_array_equal(short.nodes(), np.arange(50) * short.h)


def test_difference_operator_exact_on_linear():
    g = Grid(n=9, length=1.8)
    D = difference_operator(g)
    np.testing.assert_allclose(D @ g.nodes(), np.ones(9), rtol=1e-13)
    np.testing.assert_allclose(D @ np.ones(10), np.zeros(9), atol=1e-13)


def test_endpoint_selectors_pick_cell_ends():
    g = Grid(n=5, length=1.0)
    NL, NR = endpoint_selectors(g)
    w = np.arange(6.0)
    np.testing.assert_array_equal(NL @ w, w[:5])
    np.testing.assert_array_equal(NR @ w, w[1:])


def test_dirichlet_embedding_zero_ends():
    E = dirichlet_embedding(6)
    v = E @ np.arange(1.0, 6.0)
    assert v[0] == 0.0 and v[-1] == 0.0
    np.testing.assert_array_equal(v[1:-1], np.arange(1.0, 6.0))


def test_mean_zero_basis_orthonormal_and_meanless():
    g = Grid(n=11, length=1.4)
    mu = g.trapezoid_weights()
    B = mean_zero_basis(g)
    assert B.shape == (12, 11)
    np.testing.assert_allclose(B.T @ (mu[:, None] * B), np.eye(11), atol=1e-13)
    np.testing.assert_allclose(mu @ B, np.zeros(11), atol=1e-13)


def test_mean_zero_projector_idempotent():
    g = Grid(n=9, length=1.0)
    P = mean_zero_projector(g)
    # constants are annihilated
    np.testing.assert_allclose(P @ np.ones(10), np.zeros(10), atol=1e-13)
    # already mean-zero vectors pass through unchanged
    rng = np.random.default_rng(0)
    v = rng.standard_normal(10)
    v -= (g.trapezoid_weights() @ v) / g.length
    np.testing.assert_allclose(P @ v, v, atol=1e-13)


@pytest.mark.parametrize("bc", [DNN, DDD])
@pytest.mark.parametrize("n", [7, 8])
def test_mirror_sectors_split_the_constrained_space(bc, n):
    """The two mirror sectors, and the whole-space basis (sign None), are
    mass-orthonormal, meet the border rows and span the half-space; in node
    values each field of a sector column is reflected about L/2 with its
    sign: phi even, psi and omega odd in the + sector, the opposite in the -
    sector.  The spectrum of an asymmetric system, one whole-space block,
    builds no dense A or M."""
    system = system_for(beam(), interval(), bc, n)
    parts = system.parts
    assert mirror_symmetric(parts)
    for signs in ((1.0, -1.0), (None,)):
        X = {sign: mirror_basis(parts, sign) for sign in signs}
        Y = np.hstack([basis for basis, _ in X.values()])
        assert Y.shape == (parts.mass.size, system.dimension // 2)
        np.testing.assert_allclose(Y.T @ (parts.mass[:, None] * Y), np.eye(Y.shape[1]),
                                   atol=1e-13)
        np.testing.assert_allclose(parts.border.T @ Y, 0.0, atol=1e-13)
        for sign, (basis, cols) in X.items():
            for f, rows in parts.node_slices.items():  # each field's columns live on its nodes
                assert not np.delete(basis[:, cols[f]], rows, axis=0).any()
            if sign is None:
                continue
            for f, parity in (("phi", 1.0), ("psi", -1.0), ("omega", -1.0)):
                v = system.field_values(np.concatenate([basis, 0 * basis]), f)
                np.testing.assert_allclose(v[::-1], sign * parity * v, atol=1e-12)
    asymmetric = assemble(beam(), interval(0.1, 0.6), bc, n)
    assert not mirror_symmetric(asymmetric.parts)
    spectral.eigenvalues(asymmetric)
    assert asymmetric.spectrum_blocks == [asymmetric.dimension // 2]
    assert not {"A", "M"} & vars(asymmetric).keys()


def test_clamped_dimension_count():
    assert system_for(beam(), interval(), DDD, 4).dimension == 18
    assert system_for(beam(), interval(), DDD, 10).dimension == 6 * 9
    # zero-slope fields keep all nodes minus the constant mode
    assert system_for(beam(), interval(), DNN, 10).dimension == 6 * 10 - 2


def test_energy_matches_loop_quadrature():
    rng = np.random.default_rng(42)
    for bc in (DNN, DDD):
        system = system_for(beam(rho2=1.3, kappa0=0.7, b=2.1, l=0.8),
                            interval(a0=2.0), bc, 12)
        for _ in range(100):
            x = border_free(system, rng) * 3.0
            direct = quadrature_energy(system, x)
            assert system.energy(x) == pytest.approx(direct, rel=1e-13)


def test_velocity_energy_of_constant_field():
    p = beam(rho1=2.0)
    for n in (8, 64):
        system = system_for(p, interval(), DDD, n)
        m = system.parts.mass.size
        x = np.zeros(2 * m)
        x[m + system.parts.node_slices["phi"]] = 1.0  # u, the velocity of phi
        # interior trapezoid weights integrate the constant over (h, L-h)
        assert system.energy(x) == pytest.approx(
            0.5 * 2.0 * (p.L - system.grid.h), rel=1e-14)
    assert abs(system.energy(x) - 0.5 * 2.0 * p.L) < 0.05


def test_dissipation_identity_against_quadrature():
    rng = np.random.default_rng(7)
    for bc in (DNN, DDD):
        system = system_for(beam(b=1.7), interval(a0=3.0), bc, 14)
        a = damping_values(system.profile, system.grid.nodes(), system.params.L)
        mu = system.grid.trapezoid_weights()
        for _ in range(20):
            y = rng.standard_normal(system.dimension)
            lhs = float(y @ (system.M @ (system.A @ y)))
            x = node_vectors(system, y)
            v = system.field_values(x, "v")
            rhs = -float(np.sum(mu * a * v ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert system.dissipation_rate(x) == pytest.approx(-rhs, rel=1e-12)


def test_generator_skew_without_damping():
    for bc in (DNN, DDD):
        system = system_for(beam(kappa=1.9, l=1.1), interval(a0=0.0), bc, 13)
        MA = system.M @ system.A
        assert np.abs(MA + MA.T).max() <= 1e-12 * np.abs(MA).max()


def test_symmetrization_is_exactly_minus_damping_block():
    for bc in (DNN, DDD):
        system = system_for(beam(rho1=0.6), interval(a0=5.0), bc, 11)
        MA = system.M @ system.A
        S = MA + MA.T
        X, cols = mirror_basis(system.parts, None)
        shear = X[:, cols["psi"]]  # the shear-velocity columns, in the velocity half
        h = system.dimension // 2
        v = slice(h + cols["psi"].start, h + cols["psi"].stop)
        expected = np.zeros_like(S)
        expected[v, v] = -2.0 * shear.T @ (system.parts.damping[:, None] * shear)
        assert np.abs(S - expected).max() <= 1e-12 * np.abs(MA).max()


def test_dissipativity_top_eigenvalue():
    system = system_for(beam(rho2=2.2, kappa0=1.4), interval(a0=4.0), DNN, 12)
    MA = system.M @ system.A
    S = 0.5 * (MA + MA.T)
    eigs = np.linalg.eigvalsh(S)
    assert eigs[-1] <= 1e-10 * np.abs(eigs).max()


def test_gram_positive_definite():
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(), bc, 10)
        assert np.linalg.eigvalsh(system.M)[0] > 0.0


def test_energy_gram_matches_assembled_system():
    for bc in (DNN, DDD):
        system = system_for(beam(b=1.6), interval(), bc, 9)
        M = assemble_energy_gram(system.params, bc, system.grid)
        np.testing.assert_array_equal(M, system.M)


def test_undamped_frequencies_match_generator_spectrum():
    """The Lanczos solve behind the initial data, asked for every mode, finds
    the same frequencies as the full nonsymmetric spectrum of the undamped
    generator."""
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(a0=2.5), bc, 10)
        bare = system_for(beam(), interval(a0=0.0), bc, 10)
        freqs, _ = undamped_modes(system, system.dimension // 2)
        eig = scipy.linalg.eigvals(bare.A)
        positive = np.sort(eig.imag[eig.imag > 0])
        assert positive.size == freqs.size == system.dimension // 2
        np.testing.assert_allclose(freqs, positive, rtol=1e-10)


def test_weak_coupling_limit_recovers_wave_spectrum():
    """At vanishing curvature the longitudinal field detaches from the other
    two and its block must reproduce the closed-form discrete wave spectrum
    2/h*sin(k*pi*h/2) (unit speeds, unit length)."""
    n = 16
    system = assemble(beam(l=1e-7), interval(a0=0.0), DDD, n)
    eig = spectral.eigenvalues(system)
    h = system.grid.h
    for k in range(1, n):
        f_k = (2.0 / h) * np.sin(k * np.pi * h / 2.0)
        assert np.min(np.abs(eig.imag - f_k)) <= 1e-9 * f_k


def test_fundamental_frequency_second_order_convergence():
    nu = []
    for n in (16, 32, 64):
        system = system_for(beam(), interval(a0=0.0), DDD, n)
        ims = np.abs(spectral.eigenvalues(system).imag)
        nu.append(ims[ims > 1e-8].min())
    ratio = (nu[0] - nu[1]) / (nu[1] - nu[2])
    assert 3.5 <= ratio <= 4.5


def test_degenerate_geometry_refused():
    with pytest.raises(AdmissibilityError, match="pi/l"):
        assemble(beam(l=1.0, L=np.pi), interval(), DNN, 8)
    # the clamped family has no such degeneracy
    assemble(beam(l=1.0, L=np.pi), interval(), DDD, 8)


def test_small_grids_refused():
    with pytest.raises(ValueError):
        assemble(beam(), interval(), DDD, 3)


def test_support_validated_against_length():
    with pytest.raises(ValueError):
        assemble(beam(), interval(beta=1.5), DDD, 8)


def test_field_values_roundtrip_and_unknown_name():
    system = system_for(beam(), interval(), DDD, 8)
    x = np.arange(2.0 * system.parts.mass.size)
    phi = system.field_values(x, "phi")
    assert phi[0] == 0.0 and phi[-1] == 0.0
    np.testing.assert_array_equal(phi[1:-1], x[system.parts.node_slices["phi"]])
    with pytest.raises(KeyError):
        system.field_values(x, "theta")


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_node_parts_equal_their_sparse_definition(bc):
    """The parts built from index arrays equal, bit for bit, their
    definition by sparse products: the strain map S (shear and stretch at
    each cell's left and right node, then bending) in field-by-field
    columns, K = (S^T W S + its transpose) / 2 and the energy root, with
    the columns put in node order."""
    import scipy.sparse as sp

    params = beam(kappa0=2.0, b=1.7, l=0.6)
    system = assemble(params, interval(0.1, 0.6), bc, 9)
    parts, grid, l = system.parts, system.grid, params.l
    E = dirichlet_embedding(grid.n)
    F = E if bc is DDD else sp.eye(grid.n + 1, format="csr")
    D = difference_operator(grid)
    blocks = []
    for N in endpoint_selectors(grid):
        blocks += [[D @ E, N @ F, l * (N @ F)], [-l * (N @ E), None, D @ F]]
    blocks.append([None, D @ F, None])
    S = sp.bmat(blocks, format="csr")
    h, n = grid.h, grid.n
    w = np.concatenate([np.full(n, 0.5 * params.kappa * h), np.full(n, 0.5 * params.kappa0 * h)] * 2
                       + [np.full(n, params.b * h)])
    K = S.T @ sp.diags(w) @ S
    K = 0.5 * (K + K.T)
    perm = np.argsort(parts.layout)
    S, K = S[:, perm], K[perm][:, perm]
    np.testing.assert_array_equal(parts.cell_weights, w)
    for got, want in ((parts.strain, S),
                      (parts.energy_root, sp.bmat([[sp.diags(np.sqrt(w)) @ S, None],
                                                   [None, sp.diags(np.sqrt(parts.mass))]],
                                                  format="csr"))):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
    assert parts.stiffness.has_canonical_format and parts.stiffness.nnz == K.nnz
    assert parts.stiffness.toarray().tobytes() == K.toarray().tobytes()
    kl = parts.bandwidth
    rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(K.shape[0]),
                                                     np.arange(K.shape[0]))) <= kl)
    np.testing.assert_array_equal(parts.band[kl + rows - cols, cols], K.toarray()[rows, cols])


@pytest.mark.parametrize("k", [1, 5])
def test_lanczos_top_grows_its_basis(k):
    """On a diagonal operator of dimension 60, self-adjoint in a diagonal
    product, whose evenly spaced spectrum takes more than the 16 steps of
    the first basis to converge, lanczos_top returns the k largest
    eigenvalues and their product-normalized vectors to 1e-12 of
    numpy.linalg.eigh."""
    rng = np.random.default_rng(3)
    d, g = 1.0 + np.arange(60) / 60.0, rng.uniform(0.5, 2.0, 60)
    calls = []

    def apply(x):
        calls.append(1)
        return d * x

    vals, X = lanczos_top(apply, lambda x: g * x, rng.standard_normal(60), np.zeros((60, 0)), k,
                          60, 1e-14)
    assert len(calls) > 16
    expected, vectors = np.linalg.eigh(np.diag(d))
    np.testing.assert_allclose(vals, expected[-k:], rtol=1e-12)
    want = vectors[:, -k:].T / np.sqrt(g)  # normalized in the g product
    X = X * np.sign(np.sum(X * want, axis=1))[:, None]
    np.testing.assert_allclose(X, want, atol=1e-12)


@pytest.mark.parametrize("sigma, a0", [pytest.param(0.5 + 40j, 1.0, id="(0.5+40j)"),
                                       pytest.param(7.0, 1.0, id="7.0"),
                                       pytest.param(20.0, -30.0, id="20.0-anti-damped")])
@pytest.mark.parametrize("bc", [DNN, DDD])
def test_pencil_solver_matches_dense_bordered_solve(bc, sigma, a0):
    """Off the imaginary axis too, at a shifted complex sigma (the form
    delta + i nu of a shift-invert step) and at real ones, the bordered
    banded factor of Q = K + sigma C + sigma^2 R solves [[Q, G], [G^T, 0]]
    and its adjoint like a dense solve of the same bordered system, for real
    and complex vectors and columns.  The real sigma = 7 pencil is positive
    definite (the Cholesky route); with the damping sign flipped at a0 = 30,
    sigma = 20 makes it indefinite, and the factor refuses it."""
    rng = np.random.default_rng(4)
    for n in (8, 12):
        system = system_for(beam(), interval(a0=abs(a0)), bc, n)
        parts = system.parts
        if a0 < 0:
            parts = dataclasses.replace(parts, damping=-parts.damping)
        assert system.dimension == 2 * half_dimension(bc, n)
        m, k = parts.mass.size, parts.border.shape[1]
        Q = parts.stiffness.toarray() + np.diag(sigma * parts.damping + sigma ** 2 * parts.mass)
        if np.isrealobj(sigma):
            assert (np.linalg.eigvalsh(Q)[0] > 0) == (a0 > 0)
        if a0 < 0:
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                pencil_solver(parts, sigma)
            continue
        bordered = np.block([[Q, parts.border], [parts.border.T, np.zeros((k, k))]])
        solve = pencil_solver(parts, sigma)
        for shape in ((m,), (m, 3)):
            real = rng.standard_normal(shape)
            for b in (real, real + 1j * rng.standard_normal(shape)):
                for adjoint, matrix in ((False, bordered), (True, bordered.conj().T)):
                    rhs = np.concatenate([b, np.zeros((k,) + shape[1:])])
                    expected = np.linalg.solve(matrix, rhs)[:m]
                    got = solve(b, adjoint)
                    assert got.shape == b.shape
                    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
