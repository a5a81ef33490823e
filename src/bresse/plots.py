"""Batch plot scripts for run directories.

Emits gnuplot scripts next to the CSV files they read, with relative paths so
the directory can be archived and rendered elsewhere (``gnuplot *.plt``).
"""

from __future__ import annotations

import os


class PlotInputError(ValueError):
    def __init__(self, missing: list[tuple[str, str]]):
        self.missing = missing
        lines = [f"cannot write {script}: missing input {inp}" for script, inp in missing]
        super().__init__("\n".join(lines))

    def __reduce__(self):  # rebuilt from its arguments, not its message, when unpickled
        return type(self), (self.missing,)


_COMMON = 'set datafile separator ","\nset key off\nset term pngcairo size 900,600\n'

_SCRIPTS = {
    "energy_semilog.plt": ("energy.csv", _COMMON + (
        'set output "energy_semilog.png"\n'
        'set logscale y\n'
        'set xlabel "t"\n'
        'set ylabel "E(t)"\n'
        'plot "energy.csv" skip 1 using 1:2 with lines\n')),
    "energy_loglog.plt": ("energy.csv", _COMMON + (
        'set output "energy_loglog.png"\n'
        'set logscale xy\n'
        'set xlabel "t"\n'
        'set ylabel "E(t)"\n'
        '# drop the t=0 sample, it has no logarithm\n'
        'plot "energy.csv" skip 1 using (($1 > 0) ? $1 : 1/0):2 with lines\n')),
    "spectrum.plt": ("eigenvalues.csv", _COMMON + (
        'set output "spectrum.png"\n'
        'set xlabel "Re"\n'
        'set ylabel "Im"\n'
        'plot "eigenvalues.csv" skip 1 using 1:2 with points pointtype 7 pointsize 0.4\n')),
    "resolvent.plt": ("resolvent.csv", _COMMON + (
        'set output "resolvent.png"\n'
        'set logscale xy\n'
        'set xlabel "lambda"\n'
        'set ylabel "resolvent norm"\n'
        'plot "resolvent.csv" skip 1 using 1:2 with linespoints pointsize 0.3\n')),
}


def emit_plots(directory: str) -> list[str]:
    """Write the four plot scripts into ``directory``.

    Every script's data file must already exist; otherwise nothing is
    written and the error lists each missing input.
    """
    missing = [(script, inp) for script, (inp, _) in sorted(_SCRIPTS.items())
               if not os.path.exists(os.path.join(directory, inp))]
    if missing:
        raise PlotInputError(missing)
    written = []
    for script, (_, text) in sorted(_SCRIPTS.items()):
        path = os.path.join(directory, script)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written
