"""Forked worker processes for independent items: fork_map.

The sweep's points, the spectrum's mirror sectors and its scan frequencies
do not depend on one another.  fork_map hands them out one at a time to
this process and to one forked child per further CPU it may use, and
merges the results in item order, so what a caller writes does not depend
on the CPU set.  Only os, pickle and modules the package already loads are
used, so importing this module costs nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import sys
import threading

RECORD = 4  # bytes of one claim record: the index of the first item of a chunk
QUEUE_RECORDS = 1024  # 4 KiB, one PIPE_BUF: a pipe holds it before any reader runs

_forked = False  # in a forked section's processes: nested fork_map calls run in-process


class WorkerDiedError(RuntimeError):
    """A forked worker process died before it returned its results."""


@functools.cache
def openblas_functions(verb: str) -> list:
    """{prefix}_{verb}_num_threads{suffix} ("set" or "get") of each OpenBLAS
    copy loaded in this process (numpy and scipy may bundle one each), found
    through /proc/self/maps: none where that file is missing, and none for a
    copy that exports no such name.  Cached: the package loads numpy and
    scipy.linalg, and with them every copy, when it is imported."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({fields[5] for fields in map(str.split, fh)
                            if len(fields) == 6 and "openblas" in fields[5].lower()})
    except OSError:
        return []
    names = [f"{prefix}_{verb}_num_threads{suffix}"
             for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    functions = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:
            continue
        fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes, fn.restype = ([ctypes.c_int], None) if verb == "set" else ([], ctypes.c_int)
            functions.append(fn)
    return functions


def processes(count: int) -> int:
    """How many processes fork_map runs count items in: one per CPU this
    process may use, at most one per item.  Only this one inside a forked
    section (its CPUs are taken), while another thread runs (a fork would
    copy the locks it holds) or where fork is unavailable."""
    if _forked or count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(count, cpus)


def fork_map(fn, items, in_parent: bool = True) -> list:
    """[fn(item) for item in items], run by processes() processes: this one
    and forked children, or with in_parent False forked children only, this
    one dealing and reaping, so that its memory does not grow with the
    items.  With one process it runs them in this one.

    Each process claims the next chunk of items (one item per chunk up to
    QUEUE_RECORDS items) from one pipe, written in full before the fork, so
    a slow item holds up no other; this process claims the first chunk
    before it forks.  Each child pickles its results back.  Every process
    runs one BLAS thread, since the processes fill the CPUs already: this
    one sets it before the fork and restores its count afterwards.
    Children die with this process, and every child is reaped before the
    call returns.

    Raises what the in-process map raises: the error of the first failing
    item in order.  A child that dies raises WorkerDiedError.
    """
    global _forked
    items = list(items)
    forks = processes(len(items))
    if forks == 1:
        return [fn(item) for item in items]
    forks -= in_parent

    chunk = -(-len(items) // QUEUE_RECORDS)
    queue, queue_w = os.pipe()
    os.write(queue_w, b"".join(i.to_bytes(RECORD, "little")
                               for i in range(0, len(items), chunk)))
    os.close(queue_w)  # a drained queue reads as end of file
    blas = openblas_functions("set")
    counts = [get() for get in openblas_functions("get")]
    first = os.read(queue, RECORD) if in_parent else b""  # item 0 runs here, whatever the scheduling
    parent, children = os.getpid(), {}
    try:
        _forked = True
        for set_threads in blas:
            set_threads(1)
        for _ in range(forks):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, items, chunk, queue, read_end, write_end, parent)
            os.close(write_end)  # no later child inherits it: its end of file is this child's
            children[pid] = os.fdopen(read_end, "rb")
        outcomes = [_claim(fn, items, chunk, queue, first)]
        died = []
        for pid in list(children):
            payload = children[pid].read()  # before the wait: the child may block writing it
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if status:
                died.append(status)
            else:
                outcomes.append(pickle.loads(payload))  # bytes our own child wrote
    finally:
        _forked = False
        for set_threads, count in zip(blas, counts):
            set_threads(count)
        os.close(queue)
        for pid, results in children.items():  # left only when this process raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            results.close()
    if died:
        raise WorkerDiedError(f"a worker process died (exit status {died[0]}) "
                              "before returning its results")
    errors = [error for _, error in outcomes if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    results = [None] * len(items)
    for done, _ in outcomes:
        for i, result in done:
            results[i] = result
    return results


def _claim(fn, items, chunk, queue, record):
    """Run the chunk of a claimed record, then claim the next, until the
    queue is empty or an item fails: the (index, result) pairs done and the
    failure (index, error) or None.  A failure drains the queue, so no
    process starts another chunk; every item before it was claimed earlier
    and still runs, so the first failure in item order is among those
    reported."""
    done = []
    while record:
        start = int.from_bytes(record, "little")
        for i in range(start, min(start + chunk, len(items))):
            try:
                done.append((i, fn(items[i])))
            except Exception as err:  # carried to the caller, in order, by fork_map
                while os.read(queue, QUEUE_RECORDS * RECORD):
                    pass
                return done, (i, err)
        record = os.read(queue, RECORD)
    return done, None


def _child(fn, items, chunk, queue, read_end, write_end, parent):
    """A forked child's whole life: claim items, pickle the outcome into
    write_end, exit.  It never returns into the caller's stack."""
    status = 1
    try:
        os.close(read_end)
        if sys.platform == "linux":
            # a child of a killed parent would otherwise run its claims to the end
            ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
            if os.getppid() != parent:  # killed before the call above
                os._exit(1)
        done, error = _claim(fn, items, chunk, queue, os.read(queue, RECORD))
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error[1]))  # it must unpickle in the parent too
            except Exception:
                error = (error[0], RuntimeError(f"{type(error[1]).__name__}: {error[1]}"))
        with os.fdopen(write_end, "wb") as fh:
            fh.write(pickle.dumps((done, error)))
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)
