import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import revivals
from revivals import fanout
from revivals.fanout import run_slices, usable_cpus

from conftest import ALPHA, B1, OMEGA0, needs_fork, no_child_left, set_cpus


def test_one_blas_thread_makes_no_set_call_at_one(blas_log):
    # a set call, even of 1, restarts the BLAS pool that a fork shut down
    (get, put), = fanout.openblas_threads()
    with fanout.one_blas_thread():
        assert get() == 1
        with fanout.one_blas_thread():
            pass
    assert get() == 2
    pid = os.getpid()
    assert blas_log.read_text().splitlines() == [f"{pid} set 1", f"{pid} set 2"]


def test_band_threads_is_one_in_worker_processes():
    # a caller's process pool already spreads its workers over the cores
    with ProcessPoolExecutor(1) as pool:
        assert pool.submit(usable_cpus).result(timeout=60) == 1


def test_forked_sweep_after_dense_run_does_not_hang(tmp_path):
    # Every run, in the sweep's forked workers too, uses the band pool. A
    # pool that outlived rk4_evolve would be inherited there without its
    # threads, and the workers would wait on it forever.
    script = f"""
from revivals import (DampingSpec, FockSpace, build_hamiltonian, build_liouvillian,
                      coherent_state, density_from_pure, lindblad, rk4_evolve)
from revivals.config import config_from_dict
from revivals.runner import run_sweep

lindblad.usable_cpus = lambda: 4
h = build_hamiltonian(FockSpace(30), {OMEGA0!r}, {B1!r}, 2)
L = build_liouvillian(h, DampingSpec(gamma=1e-3))
rk4_evolve(L, density_from_pure(coherent_state(L.space, {ALPHA!r})), 60.0, dt=0.05)
cfg = config_from_dict(dict(dim=30, omega0={OMEGA0!r}, alpha_re={ALPHA!r}, alpha_im=0.0,
                            nonlinearity_order=2, b={B1!r}, gamma=1e-3, t_final=50.0,
                            dt=0.05))
run_sweep(cfg, "gamma", [1e-3, 2e-3], parallel=2, out_dir={str(tmp_path)!r})
"""
    src = os.path.dirname(os.path.dirname(revivals.__file__))
    # its own session, so that a hung child and its workers can all be killed
    child = subprocess.Popen([sys.executable, "-c", script], text=True,
                             env={**os.environ, "PYTHONPATH": src},
                             stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("sweep after a dense run hung for 120 s")
    assert child.returncode == 0, err


def seen(i):
    """What a point sees of its slice: its index, process and usable CPUs."""
    return i, os.getpid(), usable_cpus()


@needs_fork
@pytest.mark.parametrize("cap", [None, 1, 2, 3, 64])
def test_run_slices_caps_its_slice_count(monkeypatch, forks, cap):
    set_cpus(monkeypatch, 4)
    done = run_slices(seen, [1.0] * 5, "five points", cap=cap)
    n = min(4, 5, cap or 5)
    assert len(forks) == n - 1
    no_child_left()
    assert [i for i, _, _ in done] == list(range(5))
    # equal costs go round the slices; the caller runs the first
    assert len({pid for _, pid, _ in done}) == n
    assert done[0][1] == os.getpid()
    # more than one slice fill the cores, so each sees one CPU
    assert {cpus for _, _, cpus in done} == {1 if n > 1 else 4}
    assert usable_cpus() == 4


@needs_fork
@pytest.mark.parametrize("cpus,cap", [(1, None), (4, 1)])
def test_run_slices_at_one_slice_forks_nothing_and_sets_nothing(monkeypatch, forks,
                                                                 blas_log, cpus, cap):
    set_cpus(monkeypatch, cpus)
    done = run_slices(seen, [1.0] * 3, "three points", cap=cap)
    assert forks == []
    assert blas_log.read_text() == ""
    assert done == [(i, os.getpid(), cpus) for i in range(3)]


@needs_fork
def test_run_slices_clears_its_cpu_hold_on_a_raise(monkeypatch, forks):
    set_cpus(monkeypatch, 2)

    def interrupted(i):
        raise KeyboardInterrupt  # no Exception, so it leaves the slice

    with pytest.raises(KeyboardInterrupt):
        run_slices(interrupted, [1.0] * 2, "two points")
    assert len(forks) == 1
    no_child_left()
    assert usable_cpus() == 2


@needs_fork
@pytest.mark.parametrize("failing", [{1, 3}, {2, 3}, {1, 4}, {4}])
def test_run_slices_raises_the_smallest_failing_index(monkeypatch, forks, failing):
    set_cpus(monkeypatch, 2)

    def run(i):
        if i in failing:
            raise ValueError(f"point {i}")
        return i

    # with two slices, the caller's holds 0, 2 and 4 and the child's 1 and 3
    for cap, nforks in ((1, 0), (2, 1)):
        with pytest.raises(ValueError, match=f"^point {min(failing)}$"):
            run_slices(run, [1.0] * 5, "five points", cap=cap)
        assert len(forks) == nforks
    no_child_left()
