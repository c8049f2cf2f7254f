import math
import os
import threading

import numpy as np
import pytest

from revivals import FockSpace, PureState, fanout, lindblad

OMEGA0 = 0.15 * math.pi / 2  # 0.23561944901923448
ALPHA = -1.9
B1 = 0.005
B2 = 0.005


@pytest.fixture
def space30():
    return FockSpace(30)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def fock_state(space: FockSpace, n: int) -> PureState:
    """The number state |n>."""
    c = np.zeros(space.dim, dtype=complex)
    c[n] = 1.0
    return PureState(space, c)


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (x + x.conj().T)


# forked children: shared by the tests of the fork helper, the CSV write, the
# band child and the sweep, and by the scan's, which check that it forks none

@pytest.fixture
def forks(monkeypatch):
    """The live thread count at each os.fork the calling process makes."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return made


def no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def refuse_certificates(monkeypatch) -> None:
    """Every damped amplitude-only run takes the full path, band child included."""
    monkeypatch.setattr(lindblad, "_damped_amplitude", lambda *args: False)


def children_exit_at_once(monkeypatch, status: int) -> None:
    """Every forked child exits with status before it sends a byte."""
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid == 0:
            os._exit(status)
        return pid

    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture
def blas_log(monkeypatch, tmp_path):
    """A stand-in OpenBLAS at two threads whose every set call is logged.

    The log is a file of ``pid set n`` lines, so that the calls of forked
    children show too; tests may add their own lines. The count lives in
    process memory, as OpenBLAS's does, so a forked child inherits it.
    """
    log = tmp_path / "blas.log"
    log.touch()
    count = [2]

    def put(n: int) -> None:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} set {n}\n")
        count[0] = n

    libs = ((lambda: count[0], put),)
    # every module's one_blas_thread is fanout's, which looks the name up there
    monkeypatch.setattr(fanout, "openblas_threads", lambda: libs)
    return log
