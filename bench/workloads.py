"""Benchmark inputs: the bresse configs each workload runs, made from a seed.

The seed only enters the configs' ``seed`` key (the random smooth initial
data of ``simulate``); every other input is fixed, so the same seed gives
the same files.  Each workload is a list of ``bresse`` command lines (one
round), plus untimed warm-up commands that run first (for ``growth``, the
operator dump its output checks read).
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("decay", "growth", "sweep")

UNIT_BEAM = {"rho1": 1.0, "rho2": 1.0, "kappa": 1.0, "kappa0": 1.0,
             "b": 1.0, "l": 0.5, "L": 1.0}
PROFILE = {"alpha": 0.25, "beta": 0.75, "a0": 1.0}

N = 100                 # decay and growth mesh
T = 40.0                # decay horizon (growth configs carry it unused)
DUMP_T = 0.05           # horizon of the growth operator dump
SWEEP_T = 20.0
SWEEP_LAMBDAS = 24
# two threads gave no speed-up over one and a bimodal round time (5.2 s or
# 6.8 s by run), so the sweep runs serially; see README.md
SWEEP_WORKERS = 1
SWEEP_GRID = {"n": [16, 32], "bc": ["DNN", "DDD"],
              "params.kappa0": [1.0, 2.0], "params.b": [1.0, 2.0]}


def config(seed: int, bc: str, n: int, T: float, **params) -> dict:
    return {"params": {**UNIT_BEAM, **params}, "profile": dict(PROFILE),
            "bc": bc, "n": n, "dt": "auto", "T": T, "seed": seed,
            "lambda_grid": {"min": 1.0, "count": 48}}


def _write(path: str, obj: dict) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def plan(workload: str, seed: int, root: str, n: int = N) -> dict:
    """Write the workload's input files under ``root`` and return its plan.

    The plan holds ``warmup`` and ``round`` (lists of argv lists for
    ``bresse.cli.main``), ``outputs`` (the directories a round writes, which
    every pass must reproduce byte for byte) and ``runs`` (what the output
    checks need to know about each run directory).  ``n`` is the mesh of
    the decay and growth workloads (the self-test uses small meshes).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seed = seed % 2**32  # numpy generators take non-negative seeds
    inputs = os.path.join(root, "inputs")
    os.makedirs(inputs, exist_ok=True)

    if workload == "sweep":
        base = config(seed, "DNN", 16, SWEEP_T)
        base["lambda_grid"]["count"] = SWEEP_LAMBDAS
        out = os.path.join(root, "sweep")
        spec = _write(os.path.join(inputs, "sweep.json"),
                      {"base": base, "grid": SWEEP_GRID, "outputs": out})
        return {"warmup": [], "round": [["sweep", spec, "--workers", str(SWEEP_WORKERS)]],
                "outputs": [out],
                "runs": [{"kind": "sweep", "dir": out, "base": base, "grid": SWEEP_GRID}]}

    if workload == "decay":
        cases = [("dnn_equal", config(seed, "DNN", n, T)),
                 ("ddd_general", config(seed, "DDD", n, T, kappa0=2.0))]
        command = ["simulate"]
    else:
        cases = [("dnn_general", config(seed, "DNN", n, T, kappa0=2.0)),
                 ("ddd_general", config(seed, "DDD", n, T, kappa0=2.0))]
        command = ["spectrum", "--workers", "1"]

    warmup, round_, outputs, runs = [], [], [], []
    for name, cfg in cases:
        out = os.path.join(root, name)
        path = _write(os.path.join(inputs, name + ".json"), {**cfg, "outputs": out})
        round_.append([command[0], path, *command[1:]])
        outputs.append(out)
        run = {"kind": workload, "dir": out}
        if workload == "growth":
            # dump the operators through a short simulate of the same system
            # (they do not depend on T), so the timed spectra stay untouched
            run["operators"] = out + "_operators"
            short = _write(os.path.join(inputs, name + "_operators.json"),
                           {**cfg, "T": DUMP_T, "outputs": run["operators"]})
            warmup.append(["simulate", short, "--dump-operators"])
        runs.append(run)
    return {"warmup": warmup, "round": round_, "outputs": outputs, "runs": runs}
