"""Runs one workload's bresse commands in this process and times them.

Usage: python3 bench/worker.py PLAN.json RESULT.json

PLAN.json is written by ``run.py`` (see ``workloads.plan``) and also carries
the run length and the trace switch.  Every command goes through
``bresse.cli.main``.  After the untimed warm-up commands, whole rounds
repeat until the run length has passed.  Each round's wall and CPU time is
recorded and, after the round and outside its timing, a digest of the
files it wrote.  With tracing on, rounds alternate untraced and traced;
traced rounds wrap the public functions of each bresse module, in the
order ``runner`` calls them, and record per-layer times and counts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
import traceback
from collections import defaultdict

import numpy as np

import bresse.cli
import bresse.evolve
import bresse.runner
import bresse.spectral

from checks import tree_digest

clock = time.perf_counter
busy = time.thread_time     # layer times: CPU time of the calling thread

WRITERS = ("write_energy_csv", "write_eigenvalues_csv", "write_resolvent_csv",
           "write_json")


class Tracer:
    """Per-layer busy time and count totals, safe to share between threads.

    Layer times are the calling thread's CPU time: with one BLAS thread all
    of a layer's arithmetic runs in that thread, and a thread that waits
    for the interpreter lock (with ``--workers`` above 1) is not charged
    for the wait.

    ``install`` swaps each traced function for a timing wrapper in the
    module namespace its caller reads it from; ``uninstall`` puts the
    originals back.  ``take`` returns the totals since the last call.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._times = defaultdict(float)
        self._counts = defaultdict(int)
        self._steppers = []
        self._scans = []
        self._saved = []

    def add(self, name, seconds=0.0, counts=None):
        with self._lock:
            self._times[name] += seconds
            for key, value in (counts or {}).items():
                self._counts[key] += value

    def take(self):
        with self._lock:
            times, counts = dict(self._times), dict(self._counts)
            counts["evolve.steps"] = sum(s.steps for s in self._steppers)
            self._times.clear()
            self._counts.clear()
            self._steppers.clear()
        return times, counts

    def _timed(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            t0 = busy()
            result = fn(*args, **kwargs)
            self.add(name, busy() - t0, count(args, result) if count else None)
            return result
        return wrapper

    def _scan(self, fn):
        # cold scans (Schur reduction plus per-frequency norms) are timed in
        # the round; repeat_scans times the warm repeats after it
        def wrapper(system, lambdas, *args, **kwargs):
            t0 = busy()
            result = fn(system, lambdas, *args, **kwargs)
            self.add("spectral.scan_cold", busy() - t0, {"spectral.lambdas": len(lambdas)})
            with self._lock:
                self._scans.append((fn, system, lambdas, args, kwargs))
            return result
        return wrapper

    def repeat_scans(self):
        """Repeat each scan of the round on its already reduced system."""
        for fn, system, lambdas, args, kwargs in self._scans:
            t0 = busy()
            fn(system, lambdas, *args, **kwargs)
            self.add("spectral.scan_warm", busy() - t0)
        self._scans.clear()

    def _stepper(self, base):
        tracer = self

        class TracedStepper(base):
            def __init__(self, *args, **kwargs):
                t0 = busy()
                super().__init__(*args, **kwargs)
                self.steps = 0
                tracer.add("evolve.factor", busy() - t0)
                with tracer._lock:
                    tracer._steppers.append(self)

            def step(self, U):
                self.steps += 1
                return super().step(U)

        return TracedStepper

    def install(self):
        cli, runner = bresse.cli, bresse.runner
        evolve, spectral = bresse.evolve, bresse.spectral

        def system_counts(args, system):
            nnz = np.count_nonzero(system.A) + np.count_nonzero(system.M)
            return {"discretize.dim": system.dimension, "discretize.nnz": int(nnz)}

        def written(args, result):
            return {"runner.output_bytes": os.path.getsize(args[-1])}

        targets = [
            (cli, "load_config", self._timed("config.load", cli.load_config)),
            (cli, "load_sweep", self._timed("config.load", cli.load_sweep)),
            (runner, "expand_sweep", self._timed("config.load", runner.expand_sweep)),
            (runner, "assemble", self._timed("discretize.assemble", runner.assemble,
                                             system_counts)),
            (runner, "make_initial", self._timed("evolve.initial", runner.make_initial)),
            (evolve, "MidpointStepper", self._stepper(evolve.MidpointStepper)),
            (runner, "simulate", self._timed("evolve.simulate", runner.simulate)),
            (spectral, "eigenvalues", self._timed("spectral.eig", spectral.eigenvalues)),
            (spectral, "scan_axis", self._scan(spectral.scan_axis)),
            (spectral, "fit_growth_exponent",
             self._timed("spectral.fit", spectral.fit_growth_exponent)),
            (runner, "classify_decay", self._timed("fitting.fit", runner.classify_decay)),
            (runner, "fit_exponential", self._timed("fitting.fit", runner.fit_exponential)),
            (runner, "fit_polynomial", self._timed("fitting.fit", runner.fit_polynomial)),
        ]
        targets += [(runner, name, self._timed("runner.io", getattr(runner, name), written))
                    for name in WRITERS]
        self._saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        for mod, attr, wrapped in targets:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original in self._saved:
            setattr(mod, attr, original)
        self._saved = []


def run_commands(commands) -> int:
    """Run each argv through the CLI; return how many exited non-zero."""
    failed = 0
    for argv in commands:
        try:
            code = bresse.cli.main(argv)
        except Exception:  # a crash counts as a failed operation
            traceback.print_exc()
            code = 1
        if code != 0:
            print(f"{' '.join(argv)}: exit code {code}", file=sys.stderr)
            failed += 1
    return failed


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    if run_commands(plan["warmup"]):
        return 1
    digests, failed = [], 0

    tracer = Tracer() if plan["trace"] else None
    rounds, attempted = [], 0
    deadline = clock() + plan["seconds"]
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        c0, t0 = time.process_time(), clock()
        failed += run_commands(plan["round"])
        wall, cpu = clock() - t0, time.process_time() - c0
        attempted += len(plan["round"])
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced}
        if traced:
            tracer.uninstall()
            tracer.repeat_scans()
            record["times"], record["counts"] = tracer.take()
        rounds.append(record)
        digests.append(tree_digest(plan["outputs"]))
        if clock() >= deadline and (tracer is None or len(rounds) >= 2):
            break

    result = {"rounds": rounds, "digests": digests, "attempted": attempted, "failed": failed,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
