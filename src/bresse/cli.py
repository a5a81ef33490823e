"""Command line front end.

Exit codes: 0 success, 2 invalid configuration or inputs, 3 numerical
failure (blowup, resonance, dense-solver cap, a failed factorization).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_config, load_sweep
from .discretize import AdmissibilityError, DenseSolverCapError
from .evolve import EnergyMonotonicityError, NumericalBlowupError, SingularStepError
from .plots import PlotInputError, emit_plots
from .runner import simulate_run, spectrum_run, sweep_run
from .spectral import ResonantFrequencyError

_CONFIG_ERRORS = (ConfigError, AdmissibilityError, PlotInputError, ValueError)
# LinAlgError subclasses ValueError, so this tuple is tried first
_NUMERICAL_ERRORS = (NumericalBlowupError, EnergyMonotonicityError, SingularStepError,
                     ResonantFrequencyError, DenseSolverCapError, np.linalg.LinAlgError)


def _config_arg(parser, name):
    parser.add_argument(name, nargs="?", default=None, help="config JSON path")
    parser.add_argument("-c", "--config", dest="config_flag", metavar=name.upper(),
                        help="config JSON path (same as the positional form)")


def _config_path(args, name):
    given = [p for p in (getattr(args, name), args.config_flag) if p]
    if len(given) != 1:
        raise ConfigError(f"pass exactly one {name} path, positionally or with -c")
    return given[0]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bresse",
        description="Damped Bresse beam laboratory: energy histories, spectra, "
                    "resolvent growth, decay-law fits")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="time evolution and decay fits")
    _config_arg(sim, "config")
    sim.add_argument("-o", "--outputs", help="override the output directory")
    sim.add_argument("--dump-operators", action="store_true",
                     help="also write A.mtx and M.mtx (Matrix Market)")

    spec = sub.add_parser("spectrum", help="eigenvalues and axis resolvent scan")
    _config_arg(spec, "config")
    spec.add_argument("-o", "--outputs", help="override the output directory")
    spec.add_argument("--dump-operators", action="store_true",
                      help="also write A.mtx and M.mtx (Matrix Market)")
    spec.add_argument("--workers", type=int, default=1,
                      help="accepted and ignored: the scan runs in one thread (N >= 1)")

    swp = sub.add_parser("sweep", help="run a parameter grid and write atlas.csv")
    _config_arg(swp, "sweep")
    swp.add_argument("--workers", type=int, default=1,
                     help="accepted and ignored: points and scans run in one thread (N >= 1)")

    plt = sub.add_parser("plots", help="emit gnuplot scripts into a run directory")
    plt.add_argument("directory", help="directory holding the run CSV files")
    return parser


def _load(args):
    cfg = load_config(_config_path(args, "config"))
    if args.outputs:
        cfg = replace(cfg, outputs=args.outputs)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("spectrum", "sweep") and args.workers < 1:
            raise ValueError(f"worker count must be a positive integer, got {args.workers}")
        if args.command == "simulate":
            report = simulate_run(_load(args), dump_operators=args.dump_operators)
            print(f"wrote {report['config_id'][:12]} -> {args.outputs or report['config']['outputs']}")
        elif args.command == "spectrum":
            cfg = _load(args)
            summary = spectrum_run(cfg, dump_operators=args.dump_operators)
            if summary["flag"]:
                print(f"flag: {summary['flag']}")
            print(f"spectral abscissa {summary['spectral_abscissa']:.6e}"
                  + (f", alpha {summary['alpha_fit']:.3f}" if summary["alpha_fit"] is not None else ""))
        elif args.command == "sweep":
            atlas = sweep_run(load_sweep(_config_path(args, "sweep")))
            print(f"wrote {atlas}")
        elif args.command == "plots":
            for path in emit_plots(args.directory):
                print(f"wrote {path}")
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
