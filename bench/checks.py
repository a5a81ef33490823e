"""Output checks that do not rely on the program under test.

Every expected value is recomputed here with numpy from the run's own
inputs or from the operators the program dumps; nothing is compared with
stored copies of earlier output.  Each check returns a list of failure
messages, each starting with the check's id (``energy.monotone``, ...), so
the self-test can confirm that a given corruption trips the right check.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os

import numpy as np
import scipy.io

RESOLVENT_RTOL = 1e-8
BACKWARD_ULPS = 16
BALANCE_RTOL = 0.01
EIG_MATCH_RTOL = 1e-8
REAL_PART_RTOL = 1e-10
ALPHA_BRACKET = (0.5, 4.5)  # general-regime bracket (0.5, 4.5]
REGIME_RTOL = 1e-12


def tree_digest(dirs) -> str:
    """SHA-256 over every file's relative path and bytes under ``dirs``."""
    h = hashlib.sha256()
    for top in dirs:
        for root, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def read_table(path: str) -> dict:
    """CSV with a header row -> {column: array of floats}."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return {name: data[:, i] for i, name in enumerate(header)}


def check_energy(path: str) -> list[str]:
    """Unit initial energy, no rise, non-negative dissipation, and the
    energy drop equal to the trapezoid integral of the sampled dissipation."""
    if not os.path.isfile(path):
        return [f"energy.missing: {path}"]
    tab = read_table(path)
    t, E, D = tab["t"], tab["energy"], tab["dissipation"]
    fails = []
    if not abs(E[0] - 1.0) <= 1e-12:
        fails.append(f"energy.initial: E(0) = {E[0]!r} in {path}")
    rise = np.diff(E)
    if np.any(rise > 1e-12 * E[0]):
        k = int(np.argmax(rise))
        fails.append(f"energy.monotone: E rises by {rise[k]:.3e} at t = {t[k + 1]:g} in {path}")
    if np.any(D < -1e-14 * E[0]):
        fails.append(f"energy.dissipation: min {D.min():.3e} < 0 in {path}")
    drop = E[0] - E[-1]
    integral = float(np.sum(0.5 * (D[1:] + D[:-1]) * np.diff(t)))
    if not (drop > 0 and abs(drop - integral) <= BALANCE_RTOL * drop):
        fails.append(f"energy.balance: E(0) - E(T) = {drop:.6e} but the trapezoid "
                     f"integral of D is {integral:.6e} in {path}")
    return fails


def _read_mtx(path: str) -> np.ndarray:
    return np.asarray(scipy.io.mmread(path).toarray(), dtype=float)


def check_growth(run: dict) -> list[str]:
    """Resolvent norms at the peak and both ends against 1/sigma_min of
    F(i lam - A)F^-1 (M = F^T F), the eigenvalues against numpy's, the
    real parts against zero, and alpha_fit against the general bracket."""
    out = run["dir"]
    fails = []
    try:
        A = _read_mtx(os.path.join(run["operators"], "A.mtx"))
        M = _read_mtx(os.path.join(run["operators"], "M.mtx"))
        res = read_table(os.path.join(out, "resolvent.csv"))
        eig = read_table(os.path.join(out, "eigenvalues.csv"))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, KeyError, ValueError) as err:
        return [f"growth.missing: {out}: {err}"]

    F = np.linalg.cholesky(M).T                       # M = F^T F
    Aw = np.linalg.solve(F.T, (F @ A).T).T            # F A F^-1
    eye = np.eye(A.shape[0])
    lam, norms = res["lambda"], res["resolvent_norm"]
    for k in sorted({int(np.argmax(norms)), 0, lam.size - 1}):
        s = np.linalg.svd(1j * lam[k] * eye - Aw, compute_uv=False)
        # Weyl: a backward-stable solver may move sigma_min by a few eps*|G|,
        # which near a resonance is far more than RESOLVENT_RTOL * sigma_min
        tol = RESOLVENT_RTOL * s[-1] + BACKWARD_ULPS * np.finfo(float).eps * s[0]
        if not abs(1.0 / norms[k] - s[-1]) <= tol:
            fails.append(f"growth.resolvent: norm {norms[k]!r} at lambda {lam[k]!r} but "
                         f"1/sigma_min = {1.0 / s[-1]!r} in {out}")

    ours = np.linalg.eigvals(A)
    theirs = eig["re"] + 1j * eig["im"]
    scale = float(np.max(np.abs(ours)))
    if theirs.size != ours.size:
        fails.append(f"growth.eigenvalues: {theirs.size} listed, numpy finds {ours.size} in {out}")
    else:
        dist = np.abs(ours[:, None] - theirs[None, :])
        gap = max(dist.min(axis=0).max(), dist.min(axis=1).max())
        if not gap <= EIG_MATCH_RTOL * scale:
            fails.append(f"growth.eigenvalues: nearest-match gap {gap:.3e} exceeds "
                         f"{EIG_MATCH_RTOL:g} * {scale:.3e} in {out}")
    if not np.max(theirs.real) <= REAL_PART_RTOL * scale:
        fails.append(f"growth.real_parts: max Re = {np.max(theirs.real):.3e} > 0 in {out}")

    alpha = summary.get("alpha_fit")
    lo, hi = ALPHA_BRACKET
    if not (isinstance(alpha, float) and lo < alpha <= hi):
        fails.append(f"growth.alpha: alpha_fit {alpha!r} outside ({lo}, {hi}] in {out}")
    return fails


def regime(params: dict) -> str:
    """Wave-speed regime from kappa, kappa0, rho1/rho2 and b."""
    def close(x, y):
        return abs(x - y) <= REGIME_RTOL * max(abs(x), abs(y))
    if not close(params["kappa"], params["kappa0"]):
        return "General"
    if close(params["rho1"] / params["rho2"], params["kappa"] / params["b"]):
        return "EqualSpeed"
    return "EqualKappaOnly"


def _expected_points(base: dict, grid: dict) -> set:
    names = sorted(grid)
    points = set()
    for combo in itertools.product(*(grid[name] for name in names)):
        cfg = json.loads(json.dumps(base))
        for name, value in zip(names, combo):
            node = cfg
            *parents, leaf = name.split(".")
            for key in parents:
                node = node[key]
            node[leaf] = value
        points.add(_point_key(cfg))
    return points


def _point_key(cfg: dict) -> tuple:
    return (cfg["bc"], cfg["n"], tuple(sorted(cfg["params"].items())))


def check_sweep(run: dict) -> list[str]:
    """Every atlas row ok, with the derived regime and (damped points) a
    negative abscissa; the points are exactly the grid's; every point's
    energy history passes the decay checks."""
    out = run["dir"]
    fails = []
    try:
        with open(os.path.join(out, "atlas.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return [f"sweep.missing: {err}"]
    seen = set()
    for row in rows:
        cid = row["config_id"]
        if row["status"] != "ok":
            fails.append(f"sweep.status: row {cid[:12]} has status {row['status']!r}")
            continue
        point = os.path.join(out, cid[:12])
        try:
            with open(os.path.join(point, "report.json")) as fh:
                cfg = json.load(fh)["config"]
        except (OSError, KeyError, ValueError) as err:
            fails.append(f"sweep.missing: {point}: {err}")
            continue
        seen.add(_point_key(cfg))
        if (row["bc"], int(row["n"])) != (cfg["bc"], cfg["n"]):
            fails.append(f"sweep.points: row {cid[:12]} is {row['bc']} n={row['n']} but "
                         f"its run is {cfg['bc']} n={cfg['n']}")
        if row["regime"] != regime(cfg["params"]):
            fails.append(f"sweep.regime: row {cid[:12]} says {row['regime']}, "
                         f"the parameters give {regime(cfg['params'])}")
        if cfg["profile"]["a0"] > 0 and not float(row["spectral_abscissa"]) < 0:
            fails.append(f"sweep.abscissa: damped row {cid[:12]} has abscissa "
                         f"{row['spectral_abscissa']}")
        fails += check_energy(os.path.join(point, "energy.csv"))
    expected = _expected_points(run["base"], run["grid"])
    if seen != expected or len(rows) != len(expected):
        fails.append(f"sweep.points: {len(rows)} rows cover {len(seen & expected)} of "
                     f"the {len(expected)} grid points")
    return fails


def check_run(run: dict) -> list[str]:
    if run["kind"] == "decay":
        return check_energy(os.path.join(run["dir"], "energy.csv"))
    if run["kind"] == "growth":
        return check_growth(run)
    return check_sweep(run)


def check_passes(digests: list[str]) -> list[str]:
    """Every pass over the same inputs wrote byte-identical files."""
    if len(set(digests)) > 1:
        return [f"passes.identical: {len(set(digests))} different output trees "
                f"over {len(digests)} passes"]
    return []
