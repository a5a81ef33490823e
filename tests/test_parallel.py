"""fork_map, the one fork path, and the spectra that run through it."""

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bresse import cli, parallel, spectral
from bresse.parallel import WorkerDiedError, fork_map
from bresse.spectral import ResonantFrequencyError

from test_config_cli import snapshot, write_cfg

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def cpus(monkeypatch, *ids):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(ids), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process, counted."""
    calls = []
    real = os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.fixture
def one_blas_thread():
    """Outputs are byte-identical across CPU sets at a fixed BLAS thread
    count: hold it at one, as forked workers run."""
    before = [get() for get in parallel.openblas_functions("get")]
    for set_threads in parallel.openblas_functions("set"):
        set_threads(1)
    yield
    for set_threads, count in zip(parallel.openblas_functions("set"), before):
        set_threads(count)


def wait_for(path, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("error", [
    *(cls("bad input") for cls in cli._CONFIG_ERRORS if cls is not cli.PlotInputError),
    cli.PlotInputError([("energy.gp", "energy.csv"), ("spectrum.gp", "eigenvalues.csv")]),
    *(cls("failed") for cls in cli._NUMERICAL_ERRORS if cls is not ResonantFrequencyError),
    ResonantFrequencyError(3.0, 1e-12),
    WorkerDiedError("died"),
], ids=lambda error: type(error).__name__)
def test_errors_survive_pickling(error):
    """Every error the command line maps to exit 2 or 3 crosses from a
    forked child with its class and message."""
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error) and str(again) == str(error)


def test_import_loads_no_heavy_module():
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    code = ("import sys, bresse.cli; "
            "print(' '.join(m for m in ('multiprocessing', 'scipy.special', 'scipy.io') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == ""


@pytest.mark.parametrize("ids, count, expected", [
    ((0,), 5, 1), ((0, 1), 1, 1), ((0, 1), 5, 2), ((0, 1, 2, 3), 3, 3)])
def test_processes_one_per_cpu_and_item(monkeypatch, ids, count, expected):
    cpus(monkeypatch, *ids)
    assert parallel.processes(count) == expected


@fork_only
def test_fork_map_matches_in_process_map(monkeypatch, forks):
    """More items than queue records: chunks of three, results in order."""
    cpus(monkeypatch, 0, 1, 2)
    items = list(range(3 * parallel.QUEUE_RECORDS - 1))
    assert fork_map(lambda x: (x, x * x), items) == [(x, x * x) for x in items]
    assert len(forks) == 2 and no_children_left()


@fork_only
@pytest.mark.parametrize("in_parent, forked", [(True, 1), (False, 2)])
def test_fork_map_runs_the_first_item_here_or_none(monkeypatch, forks, in_parent, forked):
    """By default this process takes the first item; with in_parent False
    it takes none, and one child per CPU takes them all."""
    cpus(monkeypatch, 0, 1)
    pids = fork_map(lambda _: os.getpid(), range(6), in_parent=in_parent)
    assert len(forks) == forked and no_children_left()
    assert (pids[0] == os.getpid()) is in_parent
    assert (os.getpid() in pids) is in_parent


@fork_only
def test_fork_map_raises_the_first_failure_in_order(monkeypatch):
    def fail_at_3_and_8(x):
        if x in (3, 8):
            raise ValueError(f"item {x}")
        return x

    cpus(monkeypatch, 0, 1)
    with pytest.raises(ValueError, match="item 3"):
        fork_map(fail_at_3_and_8, range(10))
    assert no_children_left()


class TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@fork_only
def test_unpicklable_error_in_a_child_keeps_its_message(tmp_path, monkeypatch):
    """An error that cannot be rebuilt from its message reaches the caller
    as a RuntimeError naming its class; this process holds item 0 until
    the child has raised on item 1."""
    parent, marker = os.getpid(), str(tmp_path / "raised")

    def fail_in_child(x):
        if os.getpid() != parent:
            open(marker, "w").close()
            raise TwoArgumentError(x, "b")
        wait_for(marker)
        return x

    cpus(monkeypatch, 0, 1)
    with pytest.raises(RuntimeError, match="^TwoArgumentError: 1 and b$"):
        fork_map(fail_in_child, range(2))
    assert no_children_left()


@fork_only
def test_forked_section_runs_nested_calls_in_process(monkeypatch, forks):
    """A sweep point's spectrum runs in the process of its point."""
    cpus(monkeypatch, 0, 1)
    assert fork_map(lambda _: (parallel.processes(2), fork_map(abs, [-1, -2])),
                    [0, 1]) == [(1, [1, 2])] * 2
    assert len(forks) == 1 and parallel.processes(2) == 2


@fork_only
@pytest.mark.parametrize("bc, support, forked", [
    ("DNN", (0.25, 0.75), 2), ("DDD", (0.25, 0.75), 2), ("DNN", (0.0, 0.75), 1)])
def test_forked_spectrum_matches_in_process(tmp_path, monkeypatch, forks, one_blas_thread,
                                            bc, support, forked):
    """Above the size rules the two mirror sectors and the scan each fork
    (the asymmetric support has one block: only its scan forks), and the
    run writes the same files, byte for byte, as on one CPU."""
    path, raw = write_cfg(tmp_path, bc=bc, n=60, lambda_grid={"count": 48},
                          profile={"alpha": support[0], "beta": support[1]})
    cpus(monkeypatch, 0)
    assert cli.main(["spectrum", path]) == 0
    assert forks == []
    in_process = snapshot(raw["outputs"])
    blocks = json.loads(in_process["summary.json"])["spectrum_blocks"]
    assert len(blocks) == forked

    cpus(monkeypatch, 0, 1)
    assert cli.main(["spectrum", path, "--workers", "1"]) == 0
    assert len(forks) == forked and no_children_left()
    assert snapshot(raw["outputs"]) == in_process


def test_small_spectrum_does_not_fork(tmp_path, monkeypatch, forks):
    path, raw = write_cfg(tmp_path)  # n = 12: below both size rules
    cpus(monkeypatch, 0, 1)
    assert cli.main(["spectrum", path]) == 0
    assert forks == []
    assert Path(raw["outputs"], "summary.json").exists()


@fork_only
def test_dead_spectrum_worker_exits_3(tmp_path, capsys, monkeypatch):
    """The child, which takes the J = -1 sector, dies; this process, with
    J = +1, waits for that, and the run exits 3 with one line on stderr and
    no summary."""
    schur, parent = spectral._schur_eigenvalues, os.getpid()
    marker = str(tmp_path / "died")

    def die_in_child(*block):
        if os.getpid() != parent:
            open(marker, "w").close()
            os._exit(1)
        wait_for(marker)
        return schur(*block)

    monkeypatch.setattr(spectral, "_schur_eigenvalues", die_in_child)
    cpus(monkeypatch, 0, 1)
    path, raw = write_cfg(tmp_path, n=60)
    assert cli.main(["spectrum", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spectrum failed: a worker process died")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not os.path.exists(os.path.join(raw["outputs"], "summary.json"))
    assert no_children_left()


@fork_only
def test_resonance_in_a_child_reads_as_in_process(tmp_path, capsys, monkeypatch):
    """Every scan frequency after the first (lambda = 1) is made resonant.
    Forked, this process holds the first until the child has raised on the
    second; the message and exit code are those of one process."""
    solver, marker = spectral.pencil_solver, str(tmp_path / "raised")

    def resonant_after_first(parts, sigma):
        if sigma != 1j:
            Path(marker).write_text(str(os.getpid()))
            raise np.linalg.LinAlgError("singular")
        if parallel._forked:
            wait_for(marker)
        return solver(parts, sigma)

    monkeypatch.setattr(spectral, "pencil_solver", resonant_after_first)
    path, raw = write_cfg(tmp_path, n=60, lambda_grid={"count": 48})
    results = []
    for ids in ((0,), (0, 1)):
        cpus(monkeypatch, *ids)
        results.append((cli.main(["spectrum", path]), capsys.readouterr().err))
        raised_in = int(Path(marker).read_text())
        os.remove(marker)
    assert raised_in != os.getpid()
    assert results[0] == results[1]
    code, err = results[0]
    assert code == 3 and err.startswith("numerical failure: i*")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(os.path.join(raw["outputs"], "summary.json"))
