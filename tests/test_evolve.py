"""Time integration: Cayley oracle, conservation, monotonicity, balance."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from bresse import evolve
from bresse.evolve import (
    BLOCK,
    EnergyMonotonicityError,
    MidpointStepper,
    NumericalBlowupError,
    SingularStepError,
    make_initial,
    simulate,
    smooth_mode_count,
    undamped_modes,
)
from bresse import discretize
from bresse.config import auto_dt
from bresse.discretize import assemble, mirror_basis, to_nodes

from conftest import (DDD, DNN, beam, border_free, endpoint_balance_defect, interval,
                      mode_state, node_vectors, system_for, zeroed_step_parts)


def _anti_damped(a0):
    """A fresh assembly whose damping term has its sign flipped, so that the
    flow pumps energy in; used to drive the safety guards, which a
    dissipative assembly can never trigger."""
    system = assemble(beam(), interval(a0=a0), DDD, 8)
    system.parts = dataclasses.replace(system.parts, damping=-system.parts.damping)
    return system


def _dense_cayley(system, dt, y):
    """Reference step from the dense generator: LU of I - dt/2 A, on states
    y in the basis of A."""
    eye = np.eye(system.dimension)
    lu = scipy.linalg.lu_factor(eye - 0.5 * dt * system.A)
    rhs = (eye + 0.5 * dt * system.A) @ y
    if np.iscomplexobj(rhs):
        return scipy.linalg.lu_solve(lu, rhs.real) + 1j * scipy.linalg.lu_solve(lu, rhs.imag)
    return scipy.linalg.lu_solve(lu, rhs)


def _stepwise(system, U, dt, n_steps, stepper):
    """Per-step reference of simulate: the energy and dissipation of every
    state from stepper.step, system.energy and system.dissipation_rate, the
    largest balance defect |E+ - E + dt D(U_mid)| / E(0), and the first step
    whose energy is non-finite or rose above 1e-12 E(0) (None if none)."""
    E, D, defect, fault = [system.energy(U)], [system.dissipation_rate(U)], 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            V = stepper.step(U)
            E.append(system.energy(V))
            D.append(system.dissipation_rate(V))
            defect = max(defect, abs(E[k] - E[k - 1] + dt * system.dissipation_rate(0.5 * (U + V))))
            if fault is None and not (math.isfinite(E[k]) and E[k] <= E[k - 1] + 1e-12 * E[0]):
                fault = k
            U = V
    return np.array(E), np.array(D), defect / E[0], fault


class _Overflowing(MidpointStepper):
    """A stepper that scales the state by 1e300 in its step number AT, inside
    the second block, so that the energy overflows there; the steps of
    simulate and of step count alike."""
    AT = BLOCK + 30

    def __init__(self, system, dt):
        super().__init__(system, dt)
        self.steps = 0

    def advance(self, x, out):
        super().advance(x, out)
        self.steps += 1
        if self.steps == self.AT:
            out *= 1e300


def test_step_is_cayley_transform_on_each_mode():
    """One step must act on every eigenvector as multiplication by the
    scalar rational function (1 + dt*lam/2) / (1 - dt*lam/2)."""
    dt = 0.01
    for bc, a0 in ((DDD, 0.0), (DNN, 1.0)):
        system = system_for(beam(), interval(a0=a0), bc, 8)
        vals, vecs = scipy.linalg.eig(system.A)
        stepper = MidpointStepper(system, dt)
        for k in range(vals.size):
            v = node_vectors(system, vecs[:, k])
            expected = (1.0 + 0.5 * dt * vals[k]) / (1.0 - 0.5 * dt * vals[k]) * v
            assert np.abs(stepper.step(v) - expected).max() <= 1e-12


def test_step_zero_state_and_linearity():
    system = system_for(beam(), interval(), DDD, 8)
    stepper = MidpointStepper(system, 0.05)
    assert np.all(stepper.step(np.zeros(2 * system.parts.mass.size)) == 0.0)
    rng = np.random.default_rng(1)
    U, V = border_free(system, rng, 2).T
    lhs = stepper.step(2.0 * U + V)
    rhs = 2.0 * stepper.step(U) + stepper.step(V)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("dense_cap", [0, 1 << 15])
@pytest.mark.parametrize("bc", [DNN, DDD])
def test_step_matches_dense_cayley_oracle(bc, dense_cap, monkeypatch):
    """The sparse node-coordinate step equals the dense Cayley map on real and
    complex states, given as single vectors and as matrices of columns, and
    the energy and dissipation equal the dense quadratic forms; with the
    dense cap at 0, so that building A or M would raise, and above every
    dimension here.  The states are drawn in the basis of A and mapped to
    node states; the oracle is built under the real cap.  In that basis the
    dissipation is -p^T A_pp p, A_pp = -C_X the velocity block of A."""
    dt = 0.013
    rng = np.random.default_rng(11)
    for n, a0 in ((6, 0.0), (12, 2.0)):
        with monkeypatch.context() as patch:
            patch.setattr(discretize, "DENSE_CAP", dense_cap)
            system = assemble(beam(rho1=0.8, kappa0=1.3, l=0.7), interval(a0=a0), bc, n)
            stepper = MidpointStepper(system, dt)
            d = system.dimension
            states = []
            for shape in ((d,), (d, 4)):
                real = rng.standard_normal(shape)
                states += [real, real + 1j * rng.standard_normal(shape)]
            stepped = [stepper.step(node_vectors(system, y)) for y in states]
            y = rng.standard_normal(d)
            x = node_vectors(system, y)
            energy, dissipation = system.energy(x), system.dissipation_rate(x)
        for got, z in zip(stepped, states):
            assert got.shape == (2 * system.parts.mass.size,) + z.shape[1:]
            assert got.dtype == z.dtype
            assert np.abs(got - node_vectors(system, _dense_cayley(system, dt, z))).max() <= 1e-12
        h = d // 2
        assert energy == pytest.approx(0.5 * y @ system.M @ y, rel=1e-12)
        assert dissipation == pytest.approx(
            -y[h:] @ system.A[h:, h:] @ y[h:], rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_simulate_matches_dense_cayley_trajectory(bc):
    """The energy and dissipation series of the node-coordinate loop equal
    those of a trajectory stepped with the dense Cayley map and evaluated as
    y^T M y / 2 and -p^T A_pp p in the basis of A, y = [X^T R q; X^T R p]
    the coordinates of the initial node state in X = mirror_basis(parts,
    None)."""
    system = assemble(beam(rho1=0.8, kappa0=1.3, l=0.7), interval(a0=2.0), bc, 12)
    dt, steps = 0.02, 200
    x = make_initial(system, 6)
    series = simulate(system, x, T=steps * dt, dt=dt)
    X, m = mirror_basis(system.parts, None)[0], system.parts.mass.size
    y = np.concatenate([X.T @ (system.parts.mass * x[:m]), X.T @ (system.parts.mass * x[m:])])
    h = y.size // 2
    energy, dissipation = [], []
    for _ in range(steps + 1):
        energy.append(0.5 * y @ system.M @ y)
        dissipation.append(-y[h:] @ system.A[h:, h:] @ y[h:])
        y = _dense_cayley(system, dt, y)
    E0 = series.energy[0]
    assert series.times.size == steps + 1
    assert np.abs(series.energy - energy).max() <= 1e-12 * E0
    assert np.abs(series.dissipation - dissipation).max() <= 1e-12 * E0


def test_step_refuses_indefinite_step_matrix():
    """With the damping sign flipped at a0 = 30 and dt = 0.1, the psi diagonal
    of P = R + dt/2 C + dt^2/4 K is negative, so P is indefinite: the banded
    Cholesky factor fails, and the stepper refuses the system."""
    system, dt = _anti_damped(30.0), 0.1
    with pytest.raises(SingularStepError, match="not positive definite"):
        MidpointStepper(system, dt)


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_step_band_is_mesh_independent(bc):
    """Storing the three fields of each node side by side bounds the coupling
    of neighbouring nodes to 5 positions, whatever n; a field-blocked order
    would give a band of about n."""
    for n in (8, 100, 400):
        assert assemble(beam(), interval(), bc, n).parts.bandwidth == 5


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_singular_step_matrix_raises(bc):
    """A zero step matrix has a zero pivot, and a zero DNN border G leaves
    the 2 x 2 matrix G^T P^-1 G zero: both raise SingularStepError."""
    system = assemble(beam(), interval(), bc, 8)
    with pytest.raises(SingularStepError, match="singular"):
        MidpointStepper(zeroed_step_parts(system), 0.01)
    if bc is DNN:
        system.parts = dataclasses.replace(system.parts, border=0.0 * system.parts.border)
        with pytest.raises(SingularStepError, match="border"):
            MidpointStepper(system, 0.01)


def test_undamped_energy_conserved():
    system = system_for(beam(), interval(a0=0.0), DNN, 20)
    series = simulate(system, make_initial(system, 2), T=5.0, dt=0.01)
    drift = np.abs(series.energy - series.energy[0]).max()
    assert drift <= 1e-11 * series.energy[0]


def test_undamped_long_run_has_no_energy_rise():
    """2,000 undamped DNN steps at n = 100: a well-conditioned step keeps
    every per-step rise at roundoff level, which an ill-conditioned basis
    for the mean-zero constraint does not."""
    system = system_for(beam(), interval(a0=0.0), DNN, 100)
    dt = system.grid.h / 2.0
    series = simulate(system, make_initial(system, 42), T=2000 * dt, dt=dt)
    E0 = series.energy[0]
    assert series.times.size == 2001
    assert np.diff(series.energy).max() <= 1e-12 * E0
    assert np.abs(series.energy - E0).max() <= 1e-11 * E0


def test_time_reversal_returns_initial_state():
    for a0 in (0.0, 1.0):
        system = system_for(beam(), interval(a0=a0), DNN, 16)
        U = make_initial(system, 5)
        back = MidpointStepper(system, -0.02).step(MidpointStepper(system, 0.02).step(U))
        assert np.linalg.norm(back - U) <= 1e-11 * np.linalg.norm(U)


def test_damped_energy_monotone():
    system = system_for(beam(), interval(), DDD, 16)
    series = simulate(system, make_initial(system, 3), T=4.0, dt=0.02)
    rises = np.diff(series.energy)
    assert rises.max() <= 1e-12 * series.energy[0]
    assert series.energy[-1] < series.energy[0]


def test_energy_rise_guard_triggers():
    system = _anti_damped(1.0)
    with pytest.raises(EnergyMonotonicityError, match="rose"):
        simulate(system, mode_state(system, 1), T=1.0, dt=0.1)


def test_blowup_guard_triggers():
    system = _anti_damped(30.0)  # the step pencil stays definite at dt = 0.01
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalBlowupError, match="non-finite"):
            simulate(system, np.full(2 * system.parts.mass.size, 1e200), T=1.0, dt=0.01)


@pytest.mark.parametrize("sample_stride", [1, 7])
@pytest.mark.parametrize("n_steps", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("bc", [DNN, DDD])
def test_simulate_block_edges_match_per_step_reference(bc, n_steps, sample_stride):
    """Runs that end one state short of a block, on a block edge, one past
    it and one past two blocks sample the same times, bit for bit, as a
    per-step reference, and the same energies, dissipations and balance
    defect, to 1e-12 E(0)."""
    system = system_for(beam(kappa0=1.3), interval(a0=2.0), bc, 8)
    dt = 0.02
    U = make_initial(system, 8)
    series = simulate(system, U, T=n_steps * dt, dt=dt, sample_stride=sample_stride)
    E, D, defect, fault = _stepwise(system, U, dt, n_steps, MidpointStepper(system, dt))
    assert fault is None
    k = [k for k in range(n_steps + 1) if k % sample_stride == 0 or k == n_steps]
    np.testing.assert_array_equal(series.times, np.array([j * dt for j in k]))
    assert np.abs(series.energy - E[k]).max() <= 1e-12 * E[0]
    assert np.abs(series.dissipation - D[k]).max() <= 1e-12 * E[0]
    assert abs(series.max_balance_residual - defect) <= 1e-12


def test_rise_guard_names_first_step_inside_a_block():
    """A faint anti-damping (a0 = 1e-8) lets the energy of the first mode
    rise by more than 1e-12 E(0) only once its velocity has grown, inside
    the second block: simulate names the same step as the per-step check."""
    system = assemble(beam(), interval(a0=1e-8), DNN, 8)
    system.parts = dataclasses.replace(system.parts, damping=-system.parts.damping)
    dt, U = 0.005, mode_state(system, 1)
    fault = _stepwise(system, U, dt, 3 * BLOCK, MidpointStepper(system, dt))[3]
    assert fault > BLOCK and fault % BLOCK > 1
    with pytest.raises(EnergyMonotonicityError, match=f"rose by .* at step {fault} "):
        simulate(system, U, T=3 * BLOCK * dt, dt=dt)


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_blowup_guard_names_first_step_inside_a_block(bc, monkeypatch):
    """A state whose energy overflows inside the second block: simulate names
    that step as the per-step check does, and the steps it runs on to the
    end of the block, through infinities and NaNs, print no floating-point
    warning."""
    system = system_for(beam(), interval(), bc, 8)
    dt, U = 0.02, make_initial(system, 2)
    fault = _stepwise(system, U, dt, 3 * BLOCK, _Overflowing(system, dt))[3]
    assert fault == _Overflowing.AT
    monkeypatch.setattr(evolve, "MidpointStepper", _Overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowupError, match=f"non-finite energy at step {fault} "):
            simulate(system, U, T=3 * BLOCK * dt, dt=dt)


def test_simulate_argument_validation():
    system = system_for(beam(), interval(), DDD, 8)
    U = mode_state(system, 1)
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="final time must be positive and finite"):
            simulate(system, U, T=T, dt=0.1)
    with pytest.raises(ValueError):
        simulate(system, U, T=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="T / dt is not finite"):
        simulate(system, U, T=1.0, dt=1e-320)
    with pytest.raises(ValueError):
        simulate(system, U, T=1.0, dt=0.1, sample_stride=0)
    # a DNN state whose psi velocity leaves the mean-zero border row by 1e-8
    # of its scale is refused; one at 1e-12, rounding, runs
    dnn = system_for(beam(), interval(), DNN, 8)
    x, m, v = make_initial(dnn, 1), dnn.parts.mass.size, dnn.parts.node_slices["psi"]
    for offset, refused in ((1e-8, True), (1e-12, False)):
        off = x.copy()
        off[m + v] += offset * np.abs(x).max()
        if refused:
            with pytest.raises(ValueError, match="off the border rows"):
                simulate(dnn, off, T=0.1, dt=0.01)
        else:
            simulate(dnn, off, T=0.1, dt=0.01)


def test_sampling_stride_and_final_sample():
    system = system_for(beam(), interval(), DDD, 8)
    series = simulate(system, mode_state(system, 1), T=1.0, dt=0.01, sample_stride=7)
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(series.times) > 0)
    assert len(series.times) == len(series.energy) == len(series.dissipation)


def test_default_dt_rule():
    system = system_for(beam(kappa0=4.0), interval(), DDD, 10)
    c = system.params.max_wave_speed
    assert c == 2.0
    assert auto_dt(system.params, system.grid.n) == system.grid.h / (2.0 * c)


def dense_modes(system, k):
    """The k lowest undamped modes from the dense oracle eigh(K_X), K_X the
    stiffness block of M in its mass-orthonormal basis X, as node shapes
    X v, signed by undamped_modes' rule (a positive mass product with
    to_nodes(default_rng(0).standard_normal(h))) and scaled as its shapes
    are."""
    h = system.dimension // 2
    w2, vecs = scipy.linalg.eigh(system.M[:h, :h])
    freqs, shapes = np.sqrt(w2[:k]), mirror_basis(system.parts, None)[0] @ vecs[:, :k]
    g = to_nodes(system.parts, np.random.default_rng(0).standard_normal(h))
    shapes *= np.sign((system.parts.mass * g) @ shapes)
    return freqs, shapes / freqs


@pytest.mark.parametrize("params", [beam(), beam(kappa0=2.0)], ids=["equal", "general"])
@pytest.mark.parametrize("n", [6, 10, 16, 32])
@pytest.mark.parametrize("bc", [DNN, DDD])
def test_undamped_modes_match_dense_oracle(bc, n, params):
    """The Lanczos modes behind make_initial (the lowest tenth) agree with the
    dense generalized eigensolve: frequencies to 1e-12 relative, the signed
    shapes to 1e-10 of their largest entry.  The closest relative gap among
    these modes is 3.5e-4 (DDD, n = 32, equal speeds)."""
    system = system_for(params, interval(), bc, n)
    k = smooth_mode_count(system.dimension // 2)
    freqs, shapes = undamped_modes(system, k)
    want_freqs, want_shapes = dense_modes(system, k)
    np.testing.assert_allclose(freqs, want_freqs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(shapes, want_shapes, rtol=0,
                               atol=1e-10 * np.abs(want_shapes).max())


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_random_smooth_matches_dense_modes(bc):
    """make_initial's seeded state is the one the dense modes give with
    the same sign rule and the same seeded coefficients."""
    system = system_for(beam(kappa0=2.0), interval(), bc, 24)
    h = system.dimension // 2
    k = smooth_mode_count(h)
    freqs, shapes = dense_modes(system, k)
    coeff = np.random.default_rng(4).standard_normal((k, 2))
    x = np.concatenate([shapes @ coeff[:, 0], shapes @ (freqs * coeff[:, 1])])
    x /= np.sqrt(system.energy(x))
    np.testing.assert_allclose(make_initial(system, 4), x,
                               rtol=0, atol=1e-10 * np.abs(x).max())


def test_modal_initial_data(monkeypatch):
    system = system_for(beam(), interval(a0=0.0), DNN, 12)
    U = mode_state(system, 1)
    assert system.energy(U) == pytest.approx(1.0, rel=1e-12)
    # a single undamped mode keeps its energy exactly
    series = simulate(system, U, T=2.0, dt=0.01)
    assert np.abs(series.energy - 1.0).max() <= 1e-11
    h = system.dimension // 2
    freqs, _ = undamped_modes(system, h)
    assert np.all(np.diff(freqs) >= 0)
    # the last mode is reachable; an index outside 1..h is refused before
    # anything is factored
    last = mode_state(system, h)
    assert system.energy(last) == pytest.approx(1.0, rel=1e-12)

    def no_factor(*args, **kwargs):
        raise AssertionError("a refused mode index was factored")

    monkeypatch.setattr(evolve, "pencil_solver", no_factor)
    for index in (0, h + 1, 10 ** 6):
        with pytest.raises(ValueError, match=f"mode index {index} outside 1..{h}"):
            undamped_modes(system, index)


def test_random_smooth_determinism_and_normalization():
    system = system_for(beam(), interval(), DNN, 12)
    U1 = make_initial(system, 9)
    U2 = make_initial(system, 9)
    U3 = make_initial(system, 10)
    np.testing.assert_array_equal(U1, U2)
    assert not np.array_equal(U1, U3)
    assert system.energy(U1) == pytest.approx(1.0, rel=1e-12)


def test_random_smooth_respects_mean_zero_constraint():
    system = system_for(beam(), interval(), DNN, 16)
    U = make_initial(system, 5)
    mu = system.grid.trapezoid_weights()
    for name in ("psi", "omega", "v", "z"):
        assert abs(mu @ system.field_values(U, name)) <= 1e-13


def test_custom_initial_data_used_as_is():
    """simulate starts from the state it is given, not normalized; an
    integer array runs as its float copy."""
    system = system_for(beam(), interval(), DDD, 8)
    vec = np.arange(1, 2 * system.parts.mass.size + 1)
    series = simulate(system, vec, T=0.1, dt=0.01)
    assert series.energy[0] == pytest.approx(system.energy(vec.astype(float)), rel=1e-14)
    same = simulate(system, vec.astype(float), T=0.1, dt=0.01)
    np.testing.assert_array_equal(series.energy, same.energy)


@pytest.mark.parametrize("bc", [DNN, DDD])
def test_initial_array_must_be_real_of_the_state_shape(bc):
    """simulate refuses an initial state, naming the real shape it needs,
    when it is complex (its imaginary part would be dropped) or of another
    length, and one that carries no energy."""
    system = system_for(beam(), interval(), bc, 8)
    d = 2 * system.parts.mass.size
    U = make_initial(system, 1)
    shape = re.escape(f"real array of shape ({d},)")
    for bad in (U + 1j * U, U[:-1], np.append(U, 0.0), U[:, None]):
        with pytest.raises(ValueError, match=shape):
            simulate(system, bad, T=0.1, dt=0.01)
    with pytest.raises(ValueError, match="no energy"):
        simulate(system, np.zeros(d), T=0.1, dt=0.01)


def test_midpoint_balance_identity_is_exact():
    system = system_for(beam(), interval(), DNN, 12)
    U0 = make_initial(system, 3)
    res = simulate(system, U0, T=200 * 1e-3, dt=1e-3, sample_stride=200).max_balance_residual
    assert res <= 1e-12


def test_rate_balance_residual_second_order():
    system = system_for(beam(), interval(), DNN, 12)
    U0 = make_initial(system, 3)
    coarse = endpoint_balance_defect(system, U0, 2e-3, 100)
    fine = endpoint_balance_defect(system, U0, 1e-3, 200)
    assert 3.5 <= coarse / fine <= 4.5


def test_simulate_collects_balance_residual():
    system = system_for(beam(), interval(), DNN, 12)
    series = simulate(system, make_initial(system, 4), T=0.5, dt=1e-3)
    assert series.max_balance_residual is not None
    assert series.max_balance_residual <= 1e-12
