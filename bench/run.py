"""Benchmark for bresse: times a workload, checks its outputs, prints metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {decay,growth,sweep} --seed N \\
        --seconds S --trace {0,1}

The program is run from ``src/`` of the same checkout; nothing needs to be
installed.  One run does, in order:

1. a fixed numpy kernel timing, printed so that machine drift between two
   sets of runs can be told apart from the program;
2. one worker process (``worker.py``) that imports ``bresse.cli`` and runs
   the workload's commands in-process: untimed warm-up commands, then whole
   timed rounds until S seconds have passed;
3. several fresh interpreters that only import ``bresse.cli`` (set-up time);
4. the output checks of ``checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Run outputs go to
``.bench_runs/<workload>/`` under the repository root.
"""

from __future__ import annotations

import os

# one BLAS thread and one bresse thread everywhere: with two BLAS threads,
# six n = 100 eigen solves took 0.26-0.84 s, against 0.25-0.40 s with one.
# Set before numpy loads, so this process and its children agree.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "BRESSE_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_passes, check_run  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0        # a run must end within 180 s
SETUP_CODE = ("import time\n"
              "t0 = time.perf_counter()\n"
              "import bresse.cli\n"
              "t1 = time.perf_counter()\n"
              "print(time.monotonic(), t1 - t0)\n")


def kernel_ms(repeats: int = 15) -> float:
    """Median time of one fixed dense eigenvalue solve (n = 200)."""
    a = np.random.default_rng(0).standard_normal((200, 200))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.linalg.eigvals(a)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter until ``bresse.cli`` is
    imported, and the import alone, for each of ``repeats`` interpreters."""
    setup, imports = [], []
    for _ in range(repeats):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        done, import_s = map(float, out.stdout.split())
        setup.append(done - t0)
        imports.append(import_s)
    return setup, imports


def run_worker(plan_data: dict, run_dir: str, time_left: float) -> dict:
    plan_path = os.path.join(run_dir, "plan.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan_data, fh, indent=2)
    log_path = os.path.join(run_dir, "worker.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), plan_path, result_path],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=time_left)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker did not finish in {time_left:.0f} s; see {log_path}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"worker exited with code {code}; see {log_path}")
    with open(result_path) as fh:
        return json.load(fh)


def median(values) -> float:
    return float(statistics.median(values))


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"),
                      ("_bytes", "B")):
        if name.endswith(suffix):
            return u
    return "count"


# layers runner calls directly; evolve.factor runs inside evolve.simulate
TOP_LEVEL = ("config.load", "discretize.assemble", "evolve.initial", "evolve.simulate",
             "spectral.eig", "spectral.scan_cold", "spectral.fit", "fitting.fit",
             "runner.io")


def round_layers(r: dict) -> dict:
    """Per-layer figures of one traced round."""
    def t(name):
        return r["times"].get(name, 0.0)

    def c(name):
        return r["counts"].get(name, 0)

    steps, lambdas = c("evolve.steps"), c("spectral.lambdas")
    return {
        "config.load_s": t("config.load"),
        "discretize.assemble_s": t("discretize.assemble"),
        "discretize.dim": c("discretize.dim"),
        "discretize.nnz": c("discretize.nnz"),
        "evolve.initial_s": t("evolve.initial"),
        "evolve.factor_s": t("evolve.factor"),
        "evolve.steps": steps,
        "evolve.step_us": 1e6 * (t("evolve.simulate") - t("evolve.factor")) / steps
        if steps else 0.0,
        "spectral.eig_s": t("spectral.eig"),
        "spectral.factor_s": t("spectral.scan_cold") - t("spectral.scan_warm"),
        "spectral.lambda_ms": 1e3 * t("spectral.scan_warm") / lambdas if lambdas else 0.0,
        "spectral.lambdas": lambdas,
        "spectral.fit_s": t("spectral.fit"),
        "fitting.fit_s": t("fitting.fit"),
        "runner.io_s": t("runner.io"),
        "runner.output_bytes": c("runner.output_bytes"),
        "trace.glue_s": r["cpu_s"] - sum(t(name) for name in TOP_LEVEL),
    }


def layer_metrics(rounds, imports, kernel) -> dict:
    """Medians over the traced rounds of the per-round figures, plus the
    untraced rounds' CPU time and the set-up interpreters' import time."""
    traced = [round_layers(r) for r in rounds if r["traced"]]
    traced_wall = median([r["wall_s"] for r in rounds if r["traced"]])
    plain = [r for r in rounds if not r["traced"]]
    figures = {name: median([f[name] for f in traced]) for name in traced[0]}
    figures.update({
        "runner.cpu_s": median([r["cpu_s"] for r in plain]),
        "cli.import_s": median(imports),
        "trace.overhead_s": traced_wall - median([r["wall_s"] for r in plain]),
        "machine.kernel_ms": kernel,
    })
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "bresse", "cli.py")):
        print(f"bresse sources not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(RUNS, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    plan_data = plan(args.workload, args.seed, run_dir)
    plan_data.update(seconds=args.seconds, trace=bool(args.trace))

    kernel = kernel_ms()
    print(f"machine: numpy eigvals(200x200) {kernel:.3f} ms (median of 15)")

    time_left = TIME_LIMIT_S - 25.0 - (time.monotonic() - started)
    result = run_worker(plan_data, run_dir, time_left)
    setup, imports = measure_setup(SETUP_REPEATS)

    fails = check_passes(result["digests"])
    for run in plan_data["runs"]:
        fails += check_run(run)
    for message in fails:
        print(f"CHECK FAILED {message}", file=sys.stderr)

    rounds = result["rounds"]
    walls = [r["wall_s"] for r in rounds if not r["traced"]]
    print(f"{args.workload}: {len(rounds)} rounds, untraced wall "
          + " ".join(f"{w:.3f}" for w in walls) + " s; set-up "
          + " ".join(f"{s:.3f}" for s in setup) + " s")
    if args.trace:
        figures = layer_metrics(rounds, imports, kernel)
    else:
        figures = {"wall_s": float(statistics.median_low(walls)),
                   "setup_s": median(setup),
                   "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in figures.items()}
    print(json.dumps({"correct": not fails and result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
