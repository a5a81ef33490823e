"""Self-test of the output checks: each corruption must trip its check.

Usage (from the repository root): python3 bench/selftest.py

Runs every workload once on small meshes (the sweep as is), confirms
that the untouched outputs pass every check, then corrupts one output at a
time in a fresh copy and confirms that the check aimed at it fails.  Exits
0 when every corruption is caught.  Takes about fifteen seconds; its files
go to ``.bench_runs/selftest/``.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", BRESSE_THREADS="1")

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bresse.cli  # noqa: E402

from checks import check_passes, check_run, tree_digest  # noqa: E402
from workloads import N, WORKLOADS, plan  # noqa: E402

WORK = os.path.join(ROOT, ".bench_runs", "selftest")
MESH = {"decay": 24, "growth": 50}  # the sweep keeps its own grid


def edit_csv(path: str, column: str, row, change) -> None:
    """Replace one cell (row index, or "peak" for the column's maximum)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    cells = [line.split(",") for line in lines[1:]]
    if row == "peak":
        row = max(range(len(cells)), key=lambda i: float(cells[i][col]))
    cells[row][col] = change(cells[row][col])
    with open(path, "w") as fh:
        fh.write("\n".join([lines[0]] + [",".join(c) for c in cells]) + "\n")


def scale_column(path: str, column: str, factor: float) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = repr(float(cells[col]) * factor)
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def edit_json(path: str, key: str, value) -> None:
    with open(path) as fh:
        obj = json.load(fh)
    obj[key] = value
    with open(path, "w") as fh:
        json.dump(obj, fh)


def first_point(sweep_dir: str) -> str:
    return sorted(d for d in os.listdir(sweep_dir)
                  if os.path.isdir(os.path.join(sweep_dir, d)))[0]


def rising(path: str) -> None:
    # sample 5 climbs 1 % above sample 4
    with open(path) as fh:
        prev = float(fh.read().splitlines()[5].split(",")[1])
    edit_csv(path, "energy", 5, lambda _: repr(prev * 1.01))


def corruptions(workload: str, run: dict):
    """(label, expected check id, function of the copied run directory)."""
    if workload == "decay":
        energy = "energy.csv"
        return [
            ("E(0) off by 1e-9", "energy.initial",
             lambda d: edit_csv(os.path.join(d, energy), "energy", 0,
                                lambda v: repr(float(v) + 1e-9))),
            ("a rising energy sample", "energy.monotone",
             lambda d: rising(os.path.join(d, energy))),
            ("a negative dissipation sample", "energy.dissipation",
             lambda d: edit_csv(os.path.join(d, energy), "dissipation", 3,
                                lambda v: repr(-abs(float(v)) - 1e-6))),
            ("dissipation scaled by 1.05", "energy.balance",
             lambda d: scale_column(os.path.join(d, energy), "dissipation", 1.05)),
        ]
    if workload == "growth":
        res, eig = "resolvent.csv", "eigenvalues.csv"
        return [
            ("peak resolvent norm scaled by 1.01", "growth.resolvent",
             lambda d: edit_csv(os.path.join(d, res), "resolvent_norm", "peak",
                                lambda v: repr(float(v) * 1.01))),
            ("last resolvent norm scaled by 1.01", "growth.resolvent",
             lambda d: edit_csv(os.path.join(d, res), "resolvent_norm", -1,
                                lambda v: repr(float(v) * 1.01))),
            ("one eigenvalue moved by 1e-3", "growth.eigenvalues",
             lambda d: edit_csv(os.path.join(d, eig), "im", 7,
                                lambda v: repr(float(v) + 1e-3))),
            ("one eigenvalue pushed right of the axis", "growth.real_parts",
             lambda d: edit_csv(os.path.join(d, eig), "re", 7, lambda v: "1e-06")),
            ("alpha_fit 4.6", "growth.alpha",
             lambda d: edit_json(os.path.join(d, "summary.json"), "alpha_fit", 4.6)),
        ]
    atlas = "atlas.csv"
    return [
        ("an atlas row with status error", "sweep.status",
         lambda d: edit_csv(os.path.join(d, atlas), "status", 0, lambda v: "error")),
        ("an atlas row with the wrong regime", "sweep.regime",
         lambda d: edit_csv(os.path.join(d, atlas), "regime", 0,
                            lambda v: "General" if v != "General" else "EqualSpeed")),
        ("a damped row with a positive abscissa", "sweep.abscissa",
         lambda d: edit_csv(os.path.join(d, atlas), "spectral_abscissa", 0,
                            lambda v: repr(abs(float(v))))),
        ("a rising energy sample in one point", "energy.monotone",
         lambda d: rising(os.path.join(d, first_point(d), "energy.csv"))),
    ]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    missed = 0
    for workload in WORKLOADS:
        p = plan(workload, 7, os.path.join(WORK, workload), n=MESH.get(workload, N))
        for argv in p["warmup"] + p["round"]:
            if bresse.cli.main(argv) != 0:
                print(f"FAIL {workload}: {' '.join(argv)} did not exit 0")
                return 1
        for run in p["runs"]:
            fails = check_run(run)
            if fails:
                print(f"FAIL {workload}: untouched outputs fail: {fails}")
                return 1
            for label, check, corrupt in corruptions(workload, run):
                copy = run["dir"] + ".corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(run["dir"], copy)
                corrupt(copy)
                fails = check_run({**run, "dir": copy})
                caught = any(f.startswith(check + ":") for f in fails)
                missed += not caught
                print(f"{'ok  ' if caught else 'MISS'} {workload} {os.path.basename(run['dir'])}: "
                      f"{label} -> {check}")
                shutil.rmtree(copy)

    # a pass that differs in one byte must fail the identical-passes check
    sweep_dir = os.path.join(WORK, "sweep", "sweep")
    before = tree_digest([sweep_dir])
    with open(os.path.join(sweep_dir, "atlas.csv"), "a") as fh:
        fh.write("\n")
    caught = bool(check_passes([before, tree_digest([sweep_dir])]))
    missed += not caught
    print(f"{'ok  ' if caught else 'MISS'} sweep: a second pass one byte longer -> passes.identical")
    print("self-test passed" if not missed else f"self-test FAILED: {missed} corruptions missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
