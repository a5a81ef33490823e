"""End-to-end pipelines behind the command line: simulate, spectrum, sweep.

All outputs are plain files (CSV with shortest round-trip decimals, sorted
two-space-indented JSON) so that identical configs rerun to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import parallel, spectral
from .config import RunConfig, SweepSpec, config_id, expand_sweep, to_dict
from .discretize import assemble, check_dense_cap, half_dimension
from .evolve import check_smooth_size, make_initial, simulate
from .fitting import (FitWindowError, bt_map, classify_decay, fit_exponential,
                      fit_polynomial)
from .model import classify_regime, predicted_decay

ENERGY_HEADER = "t,energy,dissipation"
MAX_ENERGY_ROWS = 2000
UNDAMPED_FLAG = "conservative: no decay expected"


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, *columns) -> None:
    """One row per index of the columns, each value as _fmt writes it."""
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def write_energy_csv(series, path: str) -> None:
    _write_csv(path, ENERGY_HEADER, series.times, series.energy, series.dissipation)


def write_eigenvalues_csv(eigs: np.ndarray, path: str) -> None:
    _write_csv(path, "re,im", eigs.real, eigs.imag)


def write_resolvent_csv(scan, path: str) -> None:
    _write_csv(path, "lambda,resolvent_norm", scan.lambdas, scan.norms)


def write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_dict(fit):
    if fit is None:
        return None
    return {
        "law": fit.law.value,
        "rate": float(fit.rate),
        "prefactor": float(fit.prefactor),
        "r_squared": float(fit.r_squared),
        "window": [float(fit.window[0]), float(fit.window[1])],
        "n_used": fit.n_used,
    }


def _dump_operators(system, out_dir: str) -> None:
    import scipy.io  # here, so that runs without the dump do not load it

    A, M = system.operators()
    scipy.io.mmwrite(os.path.join(out_dir, "A.mtx"), A.tocoo())
    scipy.io.mmwrite(os.path.join(out_dir, "M.mtx"), M.tocoo())


def simulate_run(cfg: RunConfig, system=None, dump_operators: bool = False) -> dict:
    """Time-domain pipeline: evolve seeded smooth data, fit the tail, report."""
    # refused before assembly: a dump's files hold about (d/2)^2 entries, the modes' basis is tall
    if dump_operators:
        check_dense_cap(2 * half_dimension(cfg.bc, cfg.n))
    check_smooth_size(cfg.bc, cfg.n)
    if system is None:
        system = assemble(cfg.params, cfg.profile, cfg.bc, cfg.n)
    cid = config_id(cfg)
    out = cfg.outputs
    os.makedirs(out, exist_ok=True)
    if dump_operators:
        _dump_operators(system, out)

    x0 = make_initial(system, cfg.seed)
    stride = max(1, math.ceil((cfg.T / cfg.dt) / MAX_ENERGY_ROWS))
    series = simulate(system, x0, T=cfg.T, dt=cfg.dt, sample_stride=stride)

    regime = classify_regime(cfg.params)
    law = predicted_decay(regime)
    verdict = classify_decay(series)
    try:
        exp_fit = fit_exponential(series)
    except FitWindowError:
        exp_fit = None
    try:
        poly_fit = fit_polynomial(series)
    except FitWindowError:
        poly_fit = None

    report = {
        "config_id": cid,
        "config": to_dict(cfg),
        "regime": regime.value,
        "predicted_decay": law.value,
        "predicted_resolvent_growth_order": law.resolvent_growth_order,
        "undamped": cfg.profile.a0 == 0.0,
        "energy_initial": float(series.energy[0]),
        "energy_final": float(series.energy[-1]),
        "max_balance_residual": float(series.max_balance_residual),
        "classification": {
            "law": None if verdict.law is None else verdict.law.value,
            "inconclusive": verdict.inconclusive,
            "reason": verdict.reason,
            "matches_prediction": verdict.law is law,
        },
        "fit_exponential": _fit_dict(exp_fit),
        "fit_polynomial": _fit_dict(poly_fit),
    }
    write_energy_csv(series, os.path.join(out, "energy.csv"))
    write_json(report, os.path.join(out, "report.json"))
    return report


def spectrum_run(cfg: RunConfig, system=None, dump_operators: bool = False) -> dict:
    """Frequency-domain pipeline: spectrum, axis scan, growth exponent."""
    check_dense_cap(2 * half_dimension(cfg.bc, cfg.n))  # the dense spectrum, before assembly
    undamped = cfg.profile.a0 == 0.0
    if not undamped:  # an empty window is refused before assembly
        lg = cfg.lambda_grid
        grid = spectral.default_axis_grid(spectral.frequency_cap(cfg.params, cfg.n),
                                          lam_min=lg.min, lam_max=lg.max, count=lg.count)
    if system is None:
        system = assemble(cfg.params, cfg.profile, cfg.bc, cfg.n)
    cid = config_id(cfg)
    out = cfg.outputs
    os.makedirs(out, exist_ok=True)
    if dump_operators:
        _dump_operators(system, out)

    eigs = spectral.eigenvalues(system)
    abscissa = spectral.spectral_abscissa(system)
    regime = classify_regime(cfg.params)
    law = predicted_decay(regime)

    summary = {
        "config_id": cid,
        "regime": regime.value,
        "predicted_decay": law.value,
        "predicted_resolvent_growth_order": law.resolvent_growth_order,
        "spectral_abscissa": abscissa,
        "spectrum_blocks": system.spectrum_blocks,
        "max_real_part_unrestricted": spectral.spectral_abscissa(system, guard=False),
        "lambda_cap": float(spectral.scan_cap(system)),
        "undamped": undamped,
        "flag": UNDAMPED_FLAG if undamped else None,
        "scan": None,
        "alpha_fit": None,
        "alpha_ci": None,
        "bt_energy_exponent": None,
        "growth_ratio": None,
        "notes": [],
    }

    scan = None
    if undamped:
        # the axis meets the spectrum; a scan would only hit resonances
        summary["notes"].append("axis scan skipped for the conservative system")
    else:
        grid = spectral.insert_peaks(system, grid, eigs)
        skipped = spectral.on_axis(system, eigs) & (eigs.imag >= grid[0]) & (eigs.imag <= grid[-1])
        if skipped.any():
            summary["notes"].append(f"peak insertion skipped {skipped.sum()} eigenvalue(s) "
                                    "on the axis to the resonance floor")
        if spectral.on_axis(system, eigs[eigs.real == abscissa]).any():
            summary["notes"].append("spectral abscissa is on the axis to the resonance floor: "
                                    "rounding, not a measured decay margin")
        scan = spectral.scan_axis(system, grid)
        summary["scan"] = {
            "lambda_min": float(grid[0]),
            "lambda_max": float(grid[-1]),
            "count": int(grid.size),
            "peak_lambda": scan.peak_lambda,
            "peak_norm": scan.peak_norm,
        }
        summary["growth_ratio"] = spectral.growth_ratio(scan)
        try:
            growth = spectral.fit_growth_exponent(scan.lambdas, scan.norms)
            summary["alpha_fit"] = growth.alpha
            summary["alpha_ci"] = [growth.ci[0], growth.ci[1]]
            if growth.alpha > 0:
                summary["bt_energy_exponent"] = bt_map(growth.alpha)
            else:
                summary["notes"].append(
                    "growth order is not positive; no finite energy exponent")
        except ValueError as err:
            summary["notes"].append(f"growth fit unavailable: {err}")

    write_json({"config_id": cid, "spectral_abscissa": abscissa,
                "eigenvalues": [[float(v.real), float(v.imag)] for v in eigs]},
               os.path.join(out, "eigenvalues.json"))
    write_eigenvalues_csv(eigs, os.path.join(out, "eigenvalues.csv"))
    if scan is not None:
        write_resolvent_csv(scan, os.path.join(out, "resolvent.csv"))
    write_json(summary, os.path.join(out, "summary.json"))
    return summary


ATLAS_COLUMNS = ("config_id", "bc", "n", "regime", "predicted_decay",
                 "spectral_abscissa", "alpha_fit", "bt_energy_exponent",
                 "classified_decay", "status", "error")


def _atlas_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    text = str(value)
    return text.replace(",", ";").replace("\n", " ")


def _sweep_point(cfg: RunConfig) -> dict:
    row = {name: None for name in ATLAS_COLUMNS}
    row.update(config_id=config_id(cfg), bc=cfg.bc.value, n=cfg.n, status="ok", error="")
    stage = "assemble"
    try:
        check_dense_cap(2 * half_dimension(cfg.bc, cfg.n))  # the spectrum's, before assembly
        system = assemble(cfg.params, cfg.profile, cfg.bc, cfg.n)
        stage = "simulate"
        report = simulate_run(cfg, system=system)
        stage = "spectrum"
        summary = spectrum_run(cfg, system=system)
        row.update(
            regime=report["regime"],
            predicted_decay=report["predicted_decay"],
            spectral_abscissa=summary["spectral_abscissa"],
            alpha_fit=summary["alpha_fit"],
            bt_energy_exponent=summary["bt_energy_exponent"],
            classified_decay=report["classification"]["law"],
        )
    except Exception as err:  # a bad point must not sink the sweep
        row.update(status="error", error=f"{stage}: {type(err).__name__}: {err}")
    return row


@dataclass(frozen=True)
class SweepResult:
    atlas: str
    points: int
    processes: int


def sweep_run(spec: SweepSpec) -> SweepResult:
    """Run every sweep point, then write one atlas row each.

    Points run through fork_map, largest mesh first, in one forked child per
    CPU this process may use (at most one per point), each taking the next
    point when it is done with one; this process only waits, so its memory
    does not grow with the points (taking points here too raised the
    benchmark sweep's peak RSS from 63.2-63.4 to 72.6-73.1 MB).  A point
    imports nothing that importing the package has not, so no child loads
    a module of its own, and its spectrum runs in its process.  With one
    CPU the points run in this process.  Rows are sorted by config id, so
    the atlas does not depend on which process ran a point; failed points
    keep their row with the error message instead of aborting the sweep.  A
    child that dies raises WorkerDiedError, and no atlas is written.
    """
    configs = sorted(expand_sweep(spec), key=lambda cfg: -cfg.n)
    os.makedirs(spec.outputs, exist_ok=True)
    processes = parallel.processes(len(configs))
    rows = parallel.fork_map(_sweep_point, configs, in_parent=False)
    rows.sort(key=lambda row: row["config_id"])
    lines = [",".join(ATLAS_COLUMNS)]
    lines += [",".join(_atlas_cell(row[c]) for c in ATLAS_COLUMNS) for row in rows]
    atlas = os.path.join(spec.outputs, "atlas.csv")
    with open(atlas, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return SweepResult(atlas, len(configs), processes)
