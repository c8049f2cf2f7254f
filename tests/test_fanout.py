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


def test_cli_import_does_not_load_multiprocessing():
    # usable_cpus reads multiprocessing from sys.modules: a process that
    # never imported it is no worker of a pool, and start-up need not pay for it
    src = os.path.dirname(os.path.dirname(revivals.__file__))
    code = "import sys, revivals.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_forked_sweep_after_dense_run_does_not_hang(tmp_path):
    # The dense run forks a band child. At 4 CPUs the damped sweep of two
    # points then runs two slices, and the run in each, its certificate
    # refused, forks a band child of its own. No process may outlive its
    # call: the script ends with no child left, and the rows are those of
    # one CPU.
    script = f"""
import os
from revivals import (DampingSpec, FockSpace, build_hamiltonian, build_liouvillian,
                      coherent_state, density_from_pure, lindblad, rk4_evolve)
from revivals.config import config_from_dict
from revivals.runner import run_sweep

lindblad._damped_amplitude = lambda *args: False
fork = lindblad.fork_slice

def fork_band(produce):
    with open({str(tmp_path / "bands")!r}, "a") as fh:
        fh.write(f"{{os.getpid()}}\\n")
    return fork(produce)

lindblad.fork_slice = fork_band
os.sched_getaffinity = lambda pid: {{0, 1, 2, 3}}
h = build_hamiltonian(FockSpace(30), {OMEGA0!r}, {B1!r}, 2)
L = build_liouvillian(h, DampingSpec(gamma=1e-3))
rk4_evolve(L, density_from_pure(coherent_state(L.space, {ALPHA!r})), 60.0, dt=0.05)
cfg = config_from_dict(dict(dim=30, omega0={OMEGA0!r}, alpha_re={ALPHA!r}, alpha_im=0.0,
                            nonlinearity_order=2, b={B1!r}, gamma=1e-3, t_final=50.0,
                            dt=0.05))
rows = repr(run_sweep(cfg, "gamma", [1e-3, 2e-3], out_dir={str(tmp_path)!r}).rows)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise SystemExit("a child is left")
with open({str(tmp_path / "bands")!r}) as fh:
    pids = fh.read().split()
# the dense run's band child and the caller's slice's from this process,
# one from the other slice, in any order
me = str(os.getpid())
if len(pids) != 3 or len(set(pids)) != 2 or pids.count(me) != 2:
    raise SystemExit(f"band children forked by {{pids}}")
os.sched_getaffinity = lambda pid: {{0}}
if repr(run_sweep(cfg, "gamma", [1e-3, 2e-3], out_dir={str(tmp_path)!r}).rows) != rows:
    raise SystemExit("rows differ from those at one CPU")
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
@pytest.mark.parametrize("cpus", [None, 1, 2, 3, 64])
def test_run_slices_caps_its_slice_count(monkeypatch, forks, cpus):
    # one slice per usable CPU, but never more than points; None keeps the
    # host's own affinity mask
    if cpus is not None:
        set_cpus(monkeypatch, cpus)
    mask = usable_cpus()
    done = run_slices(seen, [1.0] * 5, "five points")
    n = min(mask, 5)
    assert len(forks) == n - 1
    no_child_left()
    assert [i for i, _, _ in done] == list(range(5))
    # equal costs go round the slices; the caller runs the first
    assert len({pid for _, pid, _ in done}) == n
    assert done[0][1] == os.getpid()
    # every slice sees the whole affinity mask
    assert {cpus for _, _, cpus in done} == {mask}


@needs_fork
@pytest.mark.parametrize("cpus,points", [(1, None), (4, 1)])
def test_run_slices_at_one_slice_forks_nothing_and_sets_nothing(monkeypatch, forks,
                                                                 blas_log, cpus, points):
    # one CPU (None: three points on it), or one point at four CPUs
    set_cpus(monkeypatch, cpus)
    n = points or 3
    done = run_slices(seen, [1.0] * n, f"{n} points")
    assert forks == []
    assert blas_log.read_text() == ""
    assert done == [(i, os.getpid(), cpus) for i in range(n)]


@needs_fork
def test_run_slices_clears_its_cpu_hold_on_a_raise(monkeypatch, forks, blas_log):
    set_cpus(monkeypatch, 2)

    def interrupted(i):
        raise KeyboardInterrupt  # no Exception, so it leaves the slice

    with pytest.raises(KeyboardInterrupt):
        run_slices(interrupted, [1.0] * 2, "two points")
    assert len(forks) == 1
    no_child_left()
    # the hold of one BLAS thread ends with the raise
    pid = os.getpid()
    assert blas_log.read_text().splitlines() == [f"{pid} set 1", f"{pid} set 2"]


@needs_fork
@pytest.mark.parametrize("failing", [{1, 3}, {2, 3}, {1, 4}, {4}])
def test_run_slices_raises_the_smallest_failing_index(monkeypatch, forks, failing):
    def run(i):
        if i in failing:
            raise ValueError(f"point {i}")
        return i

    # with two slices, the caller's holds 0, 2 and 4 and the child's 1 and 3
    for cpus, nforks in ((1, 0), (2, 1)):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=f"^point {min(failing)}$"):
            run_slices(run, [1.0] * 5, "five points")
        assert len(forks) == nforks
    no_child_left()
