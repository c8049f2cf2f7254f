"""Work spread over forked processes, and the BLAS thread count it runs on.

Three users: ``runner.write_csv`` formats a CSV's rows in slices of forked
children, and a damped ``lindblad.rk4_evolve`` propagates its largest
bands in one forked band child, both through ``fork_slices``,
``fork_slice`` and ``forked_children``; ``run_slices`` runs the points of
a sweep that way.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys
import threading
from typing import BinaryIO, Callable, Iterable

def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask, but one
    in a caller's multiprocessing worker.

    A process that never imported ``multiprocessing`` is no such worker, so
    the module is read from ``sys.modules``, not imported here.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def fork_slices() -> int:
    """Slices to split one piece of work into: one per usable CPU, where forking is safe.

    A single one (no fork) where ``os.fork`` is missing (Windows) or another
    thread is alive, since a forked child would inherit any lock it holds.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cpus()


def fork_slice(produce: Callable[[], Iterable[bytes]]) -> tuple[int, BinaryIO]:
    """Start a child that sends the bytes of ``produce()`` through a pipe.

    The child writes each piece as ``produce()`` yields it, so the parent
    can read the first while the child makes the next; a full pipe holds
    the child back until the parent reads. A producer that must not wait on
    the parent returns a list. The child always leaves with ``os._exit`` (no
    exit handlers, no inherited buffers flushed twice), with status 0 only
    when every byte is sent. Returns the child's pid and the pipe's read
    end, for the list of ``forked_children``.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                for piece in produce():
                    pipe.write(piece)
                    pipe.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


@contextlib.contextmanager
def forked_children(what: str):
    """Yield a list for the (pid, pipe) pairs of ``fork_slice``; reap them on leaving.

    Leaving closes every pipe and waits for every child, so none outlives
    the block. If the body raised (a Ctrl-C too), the children are killed
    first and the body's exception goes on; otherwise a child that exited
    non-zero raises OSError naming ``what``.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        yield children
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    if any(codes):
        raise OSError(f"{what} exited with status {codes}")


def run_slices(run: Callable[[int], object], count: int, what: str) -> list:
    """[run(i) for i in range(count)], in one slice per ``fork_slices()`` process.

    Never more slices than indices. Index i goes to slice i mod n, so the
    first slice, which the caller runs, is never empty; slices 2..n run in
    forked children that pickle their results back. Each slice runs its
    indices in ascending order and stops at the first that raises; the
    exception of the smallest such index is then raised, as a serial loop
    would raise it. Two or more slices run on one OpenBLAS thread
    (``one_blas_thread``), so that no child restarts the BLAS pool the fork
    shut down. A slice sees the whole affinity mask, so a run inside it that
    forks children of its own may fork them there too.
    """
    n = max(1, min(fork_slices(), count))
    slices = [range(j, count, n) for j in range(n)]

    def outcomes(todo: range) -> dict:
        done = {}
        for i in todo:
            try:
                done[i] = run(i)
            except Exception as exc:
                done[i] = exc
                break
        return done

    if n == 1:
        done = outcomes(slices[0])
    else:
        with one_blas_thread(), forked_children(
                f"{what}: the processes running slices 2..{n}") as children:
            for todo in slices[1:]:
                children.append(fork_slice(lambda todo=todo: [pickle.dumps(outcomes(todo))]))
            done = outcomes(slices[0])
            sent = [pipe.read() for _, pipe in children]
        for data in sent:
            done.update(pickle.loads(data))
    # a slice stops at its first failure, so every index below the first failing one ran
    failed = [i for i, value in done.items() if isinstance(value, Exception)]
    if failed:
        raise done[min(failed)]
    return [done[i] for i in range(count)]


@functools.cache
def openblas_threads() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process.

    The libraries are found among the loaded ones, once per process; where
    there is none, the tuple is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, stem.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread; restore the previous counts after.

    The band products are small (D up to ~60). A second BLAS thread spins
    against any other CPU-bound process on the same cores (on 2 cores, two
    concurrent all-preset passes took 8-20x as long as one), and it changes
    the products' summation order, so results would depend on the thread
    count. A library already at one thread gets no set call: after a fork,
    the first set call, even of 1, restarts the pool that the fork shut
    down, and the new thread spins for ~80 ms. So callers that fork hold
    this across their forks, and children inherit the one thread.
    """
    libs = openblas_threads()
    before = [get() for get, _ in libs]
    for (_, put), n in zip(libs, before):
        if n != 1:
            put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(libs, before):
            if n != 1:
                put(n)
