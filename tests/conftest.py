"""Shared helpers: cached assembled systems and the acceptance scoreboard.

Dense eigen solves (the Schur spectrum and the eig oracles) dominate the
suite's runtime, so every assembled system is cached for the whole session
and shared read-only across test modules (assembly is deterministic and
DiscreteSystem instances carry their spectrum and dense A and M with them).
Axis scans, banded and dense-free, are cached the same way.

Acceptance tests register one verdict line per criterion; the lines are
printed in a terminal section after the run so they survive output capture.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from bresse.discretize import assemble
from bresse.evolve import simulate, undamped_modes
from bresse.model import BeamParameters, BoundaryCondition, DampingProfile
from bresse import spectral

UNIT = dict(rho1=1.0, rho2=1.0, kappa=1.0, kappa0=1.0, b=1.0, l=0.5, L=1.0)

DNN = BoundaryCondition.DNN
DDD = BoundaryCondition.DDD


def beam(**overrides) -> BeamParameters:
    return BeamParameters(**{**UNIT, **overrides})


def interval(alpha=0.25, beta=0.75, a0=1.0, **kw) -> DampingProfile:
    return DampingProfile(alpha=alpha, beta=beta, a0=a0, **kw)


def zeroed_step_parts(system):
    """A shallow copy of system whose mass, damping and stiffness parts (the
    band storage too, which the factor reads) are zero, so that its step
    pencil K + sigma C + sigma^2 R is zero."""
    parts = system.parts
    singular = copy.copy(system)
    singular.parts = dataclasses.replace(parts, mass=0.0 * parts.mass,
                                         damping=0.0 * parts.damping,
                                         stiffness=0.0 * parts.stiffness,
                                         band=0.0 * parts.band)
    return singular


def mode_state(system, index):
    """The displacement state of undamped mode index (1-based, by
    frequency), energy-normalized."""
    shapes = undamped_modes(system, index)[1]
    U = np.concatenate([shapes[:, -1], np.zeros(shapes.shape[0])])
    return U / np.sqrt(system.energy(U))


def endpoint_balance_defect(system, U0, dt, n_steps):
    """Largest per-step defect of (E+ - E)/dt = -(D + D+)/2 over n_steps,
    relative to E(0), from a stride-1 series; it is (dt^2/4) D(A U_mid),
    so it shrinks by 4 when dt halves."""
    series = simulate(system, U0, T=n_steps * dt, dt=dt)
    E, D = series.energy, series.dissipation
    return float(np.abs(np.diff(E) / dt + 0.5 * (D[:-1] + D[1:])).max()) / E[0]


_SYSTEMS: dict = {}
_SCANS: dict = {}


def system_for(params, profile, bc, n):
    key = (params, profile, bc, n)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = assemble(params, profile, bc, n)
    return _SYSTEMS[key]


def scan_for(params, profile, bc, n):
    """Default-grid axis scan (peak-augmented), cached with its system."""
    key = (params, profile, bc, n)
    if key not in _SCANS:
        system = system_for(params, profile, bc, n)
        grid = spectral.insert_peaks(system, spectral.default_axis_grid(system),
                                     spectral.eigenvalues(system))
        _SCANS[key] = spectral.scan_axis(system, grid)
    return _SCANS[key]


def least_damped_mode(system):
    """(eigenvalue, eigenvector) of the slowest-decaying resolved pair.

    Restricted to the trusted band and to the positive-frequency branch;
    the eigenvector is normalized so its real part carries unit energy.
    """
    import scipy.linalg

    vals, vecs = scipy.linalg.eig(system.A)
    band = (vals.imag > 0) & (vals.imag <= spectral.scan_cap(system))
    idx = np.flatnonzero(band)[np.argmax(vals.real[band])]
    lam, vec = vals[idx], vecs[:, idx]
    scale = np.sqrt(system.energy(vec.real))
    return lam, vec / scale


_SCOREBOARD: list[str] = []


def record(criterion: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    _SCOREBOARD.append(f"CRITERION {criterion} ({label}): {verdict} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance scoreboard")
    for line in sorted(_SCOREBOARD):
        terminalreporter.write_line(line)
