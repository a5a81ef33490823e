"""End-to-end acceptance checks.

Each test covers one numbered criterion and registers a verdict line on the
shared scoreboard (printed after the run summary).  Every expected value is
either a closed-form quantity, an independent re-computation, or a stated
tolerance; no expected value is read back from the code under test.

Criterion 4 contains a clause that the measurements genuinely refute: with
all three fields clamped at both ends, the equal-wave-speed decay margin is
not mesh-uniform over n = 50..200 (the weakest resolved mode climbs with the
frequency band, and coarse meshes over-damp near their band top; the ratio
per refinement falls from x3.1 at n = 100 -> 200 to x1.35 at 400 -> 800, so
these meshes are pre-asymptotic).  The clause is asserted as stated and left
failing; the scoreboard line carries the numbers.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from bresse import cli, spectral
from bresse.config import auto_dt, load_sweep
from bresse.discretize import assemble
from bresse.evolve import MidpointStepper, make_initial, simulate
from bresse.fitting import bt_map, fit_exponential, fit_polynomial
from bresse.model import (
    BeamParameters,
    DampingProfile,
    DampingShape,
    check_dnn_admissible,
)
from bresse.runner import sweep_run

from conftest import (
    DDD,
    DNN,
    beam,
    endpoint_balance_defect,
    interval,
    least_damped_mode,
    record,
    scan_for,
    system_for,
)


def random_setup(rng):
    """A random valid configuration; admissible for both boundary families."""
    while True:
        vals = {k: float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
                for k in ("rho1", "rho2", "kappa", "kappa0", "b")}
        params = BeamParameters(l=float(rng.uniform(0.3, 1.5)),
                                L=float(rng.uniform(0.8, 3.0)), **vals)
        if check_dnn_admissible(params).ok:
            break
    width = float(rng.uniform(0.2, 0.8)) * params.L
    alpha = float(rng.uniform(0.0, params.L - width))
    a0 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    if rng.random() < 0.3:
        profile = DampingProfile(alpha=alpha, beta=alpha + width, a0=a0,
                                 shape=DampingShape.SMOOTHED_PLATEAU,
                                 ramp=0.25 * width)
    else:
        profile = DampingProfile(alpha=alpha, beta=alpha + width, a0=a0)
    return params, profile, int(rng.integers(8, 21))


def test_criterion_1_generator_dissipativity():
    """(MA + A^T M)/2 has no positive eigenvalue beyond rounding, and the
    symmetrization vanishes entirely once the damping level is zero."""
    rng = np.random.default_rng(20260815)
    worst_top, worst_zero = -np.inf, 0.0
    for i in range(20):
        params, profile, n = random_setup(rng)
        bc = DNN if i % 2 == 0 else DDD
        system = assemble(params, profile, bc, n)
        MA = system.M @ system.A
        scale = np.abs(MA).max()
        top = np.linalg.eigvalsh(0.5 * (MA + MA.T))[-1]
        worst_top = max(worst_top, top / scale)
        assert top <= 1e-10 * scale

        silent = assemble(params, DampingProfile(alpha=profile.alpha,
                                                 beta=profile.beta, a0=0.0),
                          bc, n)
        MA0 = silent.M @ silent.A
        sym = np.abs(MA0 + MA0.T).max() / np.abs(MA0).max()
        worst_zero = max(worst_zero, sym)
        assert sym <= 1e-12

    record(1, "generator dissipativity", True,
           f"20 random configs, both end families: worst positive part "
           f"{worst_top:.1e} (cap 1e-10), worst undamped symmetrization "
           f"{worst_zero:.1e} (cap 1e-12)")


def test_criterion_2_energy_balance_residual():
    """Per-step balance: exact in the midpoint-state form, second order in
    the endpoint-average form (residual ratio 4 when dt halves)."""
    system = system_for(beam(), interval(), DNN, 30)
    U0 = make_initial(system, 3)
    residual = simulate(system, U0, T=200 * 1e-3, dt=1e-3,
                        sample_stride=200).max_balance_residual
    coarse = endpoint_balance_defect(system, U0, 2e-3, 100)
    fine = endpoint_balance_defect(system, U0, 1e-3, 200)
    ratio = coarse / fine
    ok = residual <= 1e-8 and 3.5 <= ratio <= 4.5
    record(2, "per-step energy balance", ok,
           f"midpoint-state residual {residual:.1e} (cap 1e-8), "
           f"halving ratio {ratio:.3f} (target 4 +- 0.5)")
    assert residual <= 1e-8
    assert 3.5 <= ratio <= 4.5


def test_criterion_3_undamped_conservation():
    system = system_for(beam(), interval(a0=0.0), DNN, 50)
    dt = system.grid.h / 2.0  # the default rule at unit speeds
    series = simulate(system, make_initial(system, 1), T=10_000 * dt, dt=dt,
                      sample_stride=1000)
    drift = abs(series.energy[-1] - series.energy[0]) / series.energy[0]
    record(3, "undamped conservation", drift <= 1e-10,
           f"relative drift {drift:.1e} over 10^4 steps (cap 1e-10)")
    assert drift <= 1e-10


def _decay_trajectory(system, T, dt, stride):
    """Evolve the slowest-decaying resolved mode and fit its tail."""
    lam, vec = least_damped_mode(system)
    series = simulate(system, vec.real, T=T, dt=dt, sample_stride=stride)
    fit = fit_exponential(series)
    return lam, fit


def test_criterion_4_exponential_regime():
    """Equal wave speeds, both end families, three meshes: negative decay
    margin, mesh-stable within a factor 2, and trajectory rates matching
    twice the margin within 25 percent."""
    supports = {"interior": interval(0.25, 0.75),
                "boundary": interval(0.0, 0.75)}
    meshes = (50, 100, 200)
    abscissas = {}
    for bc in (DNN, DDD):
        for name, prof in supports.items():
            abscissas[bc, name] = [
                spectral.spectral_abscissa(system_for(beam(), prof, bc, n))
                for n in meshes]

    negative = all(a < 0 for trio in abscissas.values() for a in trio)
    spreads = {key: max(abs(a) for a in trio) / min(abs(a) for a in trio)
               for key, trio in abscissas.items()}
    stable = {key: spread <= 2.0 for key, spread in spreads.items()}

    fits = {}
    for name, prof in supports.items():
        system = system_for(beam(), prof, DNN, 50)
        lam, fit = _decay_trajectory(system, T=300.0, dt=0.05, stride=5)
        fits[DNN, name] = (abscissas[DNN, name][0], lam, fit)
        system = system_for(beam(), prof, DDD, 100)
        nu = least_damped_mode(system)[0].imag
        lam, fit = _decay_trajectory(system, T=600.0, dt=0.7 / nu, stride=80)
        fits[DDD, name] = (abscissas[DDD, name][1], lam, fit)

    fit_ok, fit_bits = {}, []
    for (bc, name), (abscissa, lam, fit) in fits.items():
        target = -2.0 * abscissa
        err = abs(fit.rate - target) / target
        fit_ok[bc, name] = fit.r_squared >= 0.98 and err <= 0.25
        fit_bits.append(f"{bc.value}/{name} rate off {100 * err:.1f}% "
                        f"r2={fit.r_squared:.5f}")

    spread_bits = ", ".join(
        f"{bc.value}/{name} x{spreads[bc, name]:.2f}"
        for bc in (DNN, DDD) for name in supports)
    ok = negative and all(stable.values()) and all(fit_ok.values())
    record(4, "equal-speed exponential decay", ok,
           f"margins all negative; mesh spread {spread_bits} (cap x2); "
           + "; ".join(fit_bits) + " (caps 25%, r2 0.98)")

    assert negative, abscissas
    assert all(fit_ok.values()), fits
    assert all(stable.values()), (
        "decay margins are not mesh-uniform with every field clamped: "
        f"spread per family/support {spreads}; the all-clamped margin shrinks "
        "under refinement because its weakest resolved pair climbs with the "
        "frequency band instead of settling, so the equal-speed exponential "
        "bound fails to hold uniformly for that end family")


def test_criterion_5_nonuniform_stability_unequal_kappa():
    """Unequal shear/stretch moduli, zero-slope family: the resolvent peak
    must grow under mesh doubling and by a decade along one scan."""
    gen = beam(kappa0=2.0)
    coarse = scan_for(gen, interval(), DNN, 100)
    fine = scan_for(gen, interval(), DNN, 200)
    growth = fine.peak_norm / coarse.peak_norm
    ratio = spectral.growth_ratio(fine)
    ok = growth >= 2.0 and ratio >= 10.0
    record(5, "non-uniform stability growth", ok,
           f"peak norm x{growth:.1f} on mesh doubling (floor 2), "
           f"top/bottom decade ratio {ratio:.2e} (floor 10)")
    assert growth >= 2.0
    assert ratio >= 10.0


def test_criterion_6_resolvent_growth_brackets():
    """Fitted axis-growth exponents sit in the regime brackets; the growth
    order to energy exponent map is exact on the two reference orders; the
    time-domain polynomial exponent is reported, not asserted (a fixed mesh
    is ultimately exponential, and the true rates are only upper bounds)."""
    scans = {
        "equal speeds": scan_for(beam(), interval(), DNN, 100),
        "equal kappa": scan_for(beam(b=2.0), interval(), DNN, 100),
        "general": scan_for(beam(kappa0=2.0), interval(), DNN, 200),
    }
    alphas = {name: spectral.fit_growth_exponent(s.lambdas, s.norms).alpha
              for name, s in scans.items()}
    brackets = {
        "equal speeds": -0.5 <= alphas["equal speeds"] <= 0.5,
        "equal kappa": alphas["equal kappa"] > 0.5,
        "general": 0.5 < alphas["general"] <= 4.5,
    }
    exact = bt_map(2.0) == 1.0 and bt_map(4.0) == 0.5

    system = system_for(beam(b=2.0), interval(), DNN, 32)
    series = simulate(system, make_initial(system, 0), T=400.0,
                      dt=auto_dt(system.params, system.grid.n), sample_stride=20)
    poly = fit_polynomial(series)

    ok = all(brackets.values()) and exact
    record(6, "resolvent growth brackets", ok,
           f"alpha equal-speeds {alphas['equal speeds']:.3f} in [-0.5, 0.5], "
           f"equal-kappa {alphas['equal kappa']:.3f} > 0.5, "
           f"general {alphas['general']:.3f} in (0.5, 4.5]; exact map 2->1, "
           f"4->1/2; time-domain exponent p={poly.rate:.2f} "
           f"(r2={poly.r_squared:.3f}) reported only")
    assert brackets, alphas
    assert all(brackets.values()), alphas
    assert exact
    assert poly.rate > 0  # reported; only its sign is sanity-checked


def test_criterion_7_oracle_equivalence():
    """One integrator step equals the scalar rational map on every undamped
    mode; the weighted resolvent norm equals a from-scratch dense SVD."""
    dt = 0.01
    worst_step = 0.0
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(a0=0.0), bc, 30)
        vals, vecs = scipy.linalg.eig(system.A)
        stepper = MidpointStepper(system, dt)
        stepped = stepper.step(vecs)
        factors = (1.0 + 0.5 * dt * vals) / (1.0 - 0.5 * dt * vals)
        worst_step = max(worst_step,
                         float(np.abs(stepped - vecs * factors).max()))
    step_ok = worst_step <= 1e-12

    worst_res = 0.0
    for bc in (DNN, DDD):
        system = system_for(beam(), interval(), bc, 10)
        eye = np.eye(system.dimension)
        F = np.linalg.cholesky(system.M).T
        for lam in (0.7, 3.3, 9.0, 15.0):
            W = F @ (1j * lam * eye - system.A) @ np.linalg.inv(F)
            oracle = 1.0 / np.linalg.svd(W, compute_uv=False).min()
            got = spectral.scan_axis(system, [lam]).norms[0]
            worst_res = max(worst_res, abs(got - oracle) / oracle)
    res_ok = worst_res <= 1e-12

    record(7, "integrator and resolvent oracles", step_ok and res_ok,
           f"worst modal step deviation {worst_step:.1e} (cap 1e-12), "
           f"worst resolvent deviation {worst_res:.1e} (cap 1e-12)")
    assert step_ok
    assert res_ok


def test_criterion_8_sweep_determinism(tmp_path):
    import json

    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": {
            "params": dict(rho1=1.0, rho2=1.0, kappa=1.0, kappa0=1.0,
                           b=1.0, l=0.5, L=1.0),
            "profile": {"alpha": 0.25, "beta": 0.75, "a0": 1.0},
            "bc": "DNN", "n": 12, "dt": "auto", "T": 3.0, "seed": 7,
            "lambda_grid": {"min": 1.0, "count": 24},
        },
        "grid": {"params.kappa0": [1.0, 2.0], "params.b": [1.0, 2.0]},
        "outputs": str(tmp_path / "sweep"),
    }))
    spec = load_sweep(str(spec_path))

    def run_and_snapshot(run):
        run()
        out = {}
        import os
        for root, _, files in os.walk(spec.outputs):
            for f in files:
                full = os.path.join(root, f)
                out[os.path.relpath(full, spec.outputs)] = Path(full).read_bytes()
        return out

    def cli_sweep():  # --workers is accepted and ignored; it must change no byte
        assert cli.main(["sweep", str(spec_path), "--workers", "4"]) == 0

    first = run_and_snapshot(lambda: sweep_run(spec))
    repeat = run_and_snapshot(lambda: sweep_run(spec))
    flagged = run_and_snapshot(cli_sweep)
    assert "atlas.csv" in first
    assert len(first) > 4
    same_repeat = repeat == first
    same_flag = flagged == first
    record(8, "sweep determinism", same_repeat and same_flag,
           f"{len(first)} files over 4 grid points: repeat identical "
           f"{same_repeat}, CLI --workers 4 identical {same_flag}")
    assert same_repeat
    assert same_flag
