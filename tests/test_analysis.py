import math
import os
import threading
import time

import numpy as np
import pytest

from revivals import (Classification, DomainError, StabilityError, analysis, ClassifierThresholds, FockSpace,
                      InsufficientSampling, SpanTooShort, build_hamiltonian,
                      coherent_state, damped_linear_expect_a, default_n0,
                      detect_revivals, detect_super_revival, displaced_number_state,
                      diagonal_h_fock_sum_expect_a, first_revival_peak,
                      kerr_expect_a_closed_form, log_grid, modulus_revival_period,
                      scan_nonlinearity, timescales_closed_form)
from revivals.analysis import envelope_from_series

from conftest import (ALPHA, B1, B2, OMEGA0, children_exit_at_once, needs_fork,
                      no_child_left, set_cpus)

LINEAR_PERIOD = 2 * math.pi / OMEGA0
THRESHOLDS = ClassifierThresholds(linear_classical_period=LINEAR_PERIOD)


def oracle_envelope(kind, t_final, window, gamma=0.0, b=B1, state_n=0, k=2, dim=40):
    ts = np.arange(0.0, t_final, window / 40.0)
    if kind == "damped_linear":
        absa = np.abs(damped_linear_expect_a(ALPHA, OMEGA0, gamma, 0.0, ts))
    elif kind == "kerr":
        absa = np.abs(kerr_expect_a_closed_form(ALPHA, OMEGA0, b, ts))
    elif kind == "fock_sum":
        space = FockSpace(dim)
        h = build_hamiltonian(space, OMEGA0, b, k)
        state = (coherent_state(space, ALPHA) if state_n == 0
                 else displaced_number_state(space, ALPHA, state_n))
        absa = np.abs(diagonal_h_fock_sum_expect_a(state, h, ts))
    else:
        raise ValueError(kind)
    return envelope_from_series(ts, absa, window)


def kerr_timescales(b=B1):
    h = build_hamiltonian(FockSpace(30), OMEGA0, b, 2)
    return timescales_closed_form(h, default_n0(ALPHA))


def cubic_timescales(b=B2, state_n=0):
    h = build_hamiltonian(FockSpace(34), OMEGA0, b, 3)
    return timescales_closed_form(h, default_n0(ALPHA, state_n))


def test_envelope_flat_for_undamped_linear():
    env = oracle_envelope("damped_linear", 300.0, LINEAR_PERIOD, gamma=0.0)
    np.testing.assert_allclose(env.values, abs(ALPHA), atol=1e-6)


def test_envelope_tracks_damped_decay():
    env = oracle_envelope("damped_linear", 400.0, LINEAR_PERIOD, gamma=1e-3)
    # |<a>| decays monotonically, so each per-window max sits at the window
    # start (centers are shifted by window/2; last window may be truncated)
    starts = env.times[:-1] - LINEAR_PERIOD / 2
    expected = abs(ALPHA) * np.exp(-0.5e-3 * starts)
    assert np.abs(env.values[:-1] - expected).max() <= 1e-4
    # coarse agreement with the center-evaluated decay law (the final window
    # absorbs the remainder span, so it is anchored differently)
    center_law = abs(ALPHA) * np.exp(-0.5e-3 * env.times[:-1])
    assert np.abs(env.values[:-1] - center_law).max() <= 1e-2 * abs(ALPHA)


def test_envelope_kerr_collapse_and_revival_depths():
    ts_obj = kerr_timescales()
    env = oracle_envelope("kerr", 1.05 * ts_obj.t_rev, ts_obj.t_cl)
    t_rev = ts_obj.t_rev
    at_quarter = np.interp(t_rev / 4, env.times, env.values)
    at_half = np.interp(t_rev / 2, env.times, env.values)
    assert at_quarter < 0.01 * abs(ALPHA)
    assert at_half > 0.99 * abs(ALPHA)


def test_envelope_requires_dense_sampling():
    ts = np.linspace(0, 100, 30)
    with pytest.raises(InsufficientSampling):
        envelope_from_series(ts, np.ones_like(ts), 10.0)


def test_detect_requires_full_span_by_default():
    ts_obj = kerr_timescales()
    env = oracle_envelope("kerr", 0.5 * ts_obj.t_rev, ts_obj.t_cl)
    with pytest.raises(SpanTooShort):
        detect_revivals(env, ts_obj, THRESHOLDS)


def test_detect_kerr_regular_peaks():
    ts_obj = kerr_timescales()
    env = oracle_envelope("kerr", 2.2 * ts_obj.t_rev, ts_obj.t_cl)
    report = detect_revivals(env, ts_obj, THRESHOLDS)
    assert report.classification is Classification.REGULAR_REVIVALS
    assert len(report.collapse_intervals) >= 1
    # peaks at k t_rev / 2 within 2 percent
    expected = [ts_obj.t_rev / 2 * k for k in (1, 2, 3, 4)]
    assert len(report.revival_times) == 4
    for got, want in zip(report.revival_times, expected):
        assert abs(got - want) <= 0.02 * want
    np.testing.assert_allclose(report.revival_amplitudes, abs(ALPHA), rtol=1e-3)


def test_detect_synthetic_damped_sequence():
    # synthetic envelope: kerr modulus shape with an exponential peak decay
    ts_obj = kerr_timescales()
    ts = np.arange(0.0, 2.2 * ts_obj.t_rev, ts_obj.t_cl / 40.0)
    shape = np.abs(kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, ts))
    absa = shape * np.exp(-2e-4 * ts)
    env = envelope_from_series(ts, absa, ts_obj.t_cl)
    report = detect_revivals(env, ts_obj, THRESHOLDS, damped=True)
    assert report.classification is Classification.DAMPED_REVIVALS
    amps = report.revival_amplitudes
    assert np.all(amps[1:] < amps[:-1])


def test_detect_no_collapse_below_onset():
    ts_obj = kerr_timescales(b=2e-5)
    env = oracle_envelope("kerr", 18000.0, ts_obj.t_cl, b=2e-5)
    report = detect_revivals(env, ts_obj, THRESHOLDS, require_full_span=False)
    assert report.classification is Classification.NO_COLLAPSE


def test_detect_fast_revival_gate():
    ts_obj = kerr_timescales(b=1.0)
    env = oracle_envelope("kerr", 2.6 * ts_obj.t_rev, ts_obj.t_cl, b=1.0)
    report = detect_revivals(env, ts_obj, THRESHOLDS, require_full_span=False)
    assert report.classification is Classification.IRREGULAR


def test_detect_linear_damped_is_no_collapse():
    env = oracle_envelope("damped_linear", 400.0, LINEAR_PERIOD, gamma=1e-3)
    report = detect_revivals(env, None, THRESHOLDS)
    assert report.classification is Classification.NO_COLLAPSE


def test_first_revival_peak_anchors_on_modulus_period():
    h = build_hamiltonian(FockSpace(40), OMEGA0, B2, 3)
    period = modulus_revival_period(h)
    assert period == pytest.approx(math.pi / (3 * B2), rel=1e-14)
    for n in (0, 1, 2, 3, 4):
        ts_obj = cubic_timescales(state_n=n)
        env = oracle_envelope("fock_sum", 1.35 * period, ts_obj.t_cl,
                              b=B2, k=3, state_n=n)
        peak = first_revival_peak(env, period)
        assert peak is not None
        # all states revive fully at the common modulus period
        assert abs(peak.t - period) <= 0.01 * period
        assert peak.amplitude == pytest.approx(abs(ALPHA), rel=1e-3)


def test_super_revival_detection_on_oracle():
    ts_obj = cubic_timescales()
    t_sr = ts_obj.t_sr
    env = oracle_envelope("fock_sum", 1.05 * t_sr, ts_obj.t_cl, b=B2, k=3)
    got = detect_super_revival(env, ts_obj)
    assert got is not None
    assert abs(got.t - t_sr) <= 0.02 * t_sr
    assert got.amplitude == pytest.approx(abs(ALPHA), rel=1e-3)


def test_log_grid_density():
    grid = log_grid(1e-5, 10.0, per_decade=5)
    assert len(grid) == 31
    np.testing.assert_allclose(grid[0], 1e-5)
    np.testing.assert_allclose(grid[-1], 10.0)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, 10 ** 0.2, rtol=1e-12)


def test_scan_transitions_quadratic_edges():
    # cheap two-point scan: deep below onset and at the fast-revival edge
    scan = scan_nonlinearity([2e-5, 1.0], k=2, alpha=ALPHA, omega0=OMEGA0)
    by_b = {p.b: p.classification for p in scan.points}
    assert by_b[2e-5] is Classification.NO_COLLAPSE
    assert by_b[1.0] is Classification.IRREGULAR
    assert scan.b_onset is None
    assert scan.b_offset == 1.0


#: The grid points of log_grid(1e-5, 10, 5) that bracket the Kerr ladder's
#: onset and offset; their predicted step counts are about 136k, 136k, 9.4k
#: and 9.4k, so one to four slices all hold points.
BRACKET_B = [1.5848931924611134e-4, 2.5118864315095795e-4, 0.630957344480193, 1.0]


def bracket_scan():
    return scan_nonlinearity(BRACKET_B[::-1], k=2, alpha=ALPHA, omega0=OMEGA0)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_scan_forks_one_slice_per_cpu_with_the_same_result(monkeypatch, forks, cpus):
    set_cpus(monkeypatch, cpus)
    scan = bracket_scan()
    # the caller runs slice 1; every other slice is a child
    assert len(forks) == min(cpus, len(BRACKET_B)) - 1
    no_child_left()
    assert [p.b for p in scan.points] == BRACKET_B
    assert (scan.b_onset, scan.b_offset) == (BRACKET_B[1], 1.0)
    set_cpus(monkeypatch, 1)
    assert scan == bracket_scan()


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_scan_fork_reraises_the_one_cpu_exception(monkeypatch, cpus):
    # on any of these CPU counts b = 1.58e-4 runs in a child and b = 2.51e-4,
    # the largest point, in the caller's slice; the smallest failing b is raised
    evolve = analysis._evolve_amplitude
    ran = []

    def failing(h, *args):
        ran.append(h.b)
        if h.b in BRACKET_B[:2]:
            raise StabilityError(f"failed at b = {h.b}")
        return evolve(h, *args)

    monkeypatch.setattr(analysis, "_evolve_amplitude", failing)
    raised = []
    for n in (1, cpus):
        set_cpus(monkeypatch, n)
        for bs in (BRACKET_B, [0.0, 1.0]):
            with pytest.raises(Exception) as exc:
                scan_nonlinearity(bs, k=2, alpha=ALPHA, omega0=OMEGA0)
            raised.append((type(exc.value), str(exc.value)))
        no_child_left()
        if n == 1:
            # like a serial loop, one slice stops at its first failure
            assert ran == [BRACKET_B[0]]
    assert raised[:2] == [(StabilityError, f"failed at b = {BRACKET_B[0]}"),
                          (DomainError, "no finite revival time for b = 0")]
    assert raised[2:] == raised[:2]


@needs_fork
def test_scan_child_that_exits_non_zero_raises_oserror(monkeypatch):
    set_cpus(monkeypatch, 3)
    children_exit_at_once(monkeypatch, 7)
    with pytest.raises(OSError, match=r"k=2 ladder: the processes running slices 2\.\.3 "
                                      r"exited with status \[7, 7\]"):
        bracket_scan()
    no_child_left()


@needs_fork
def test_scan_ctrl_c_kills_and_reaps_its_children(monkeypatch):
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(analysis, "_evolve_amplitude", interrupted)
    set_cpus(monkeypatch, 4)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        bracket_scan()
    assert time.perf_counter() - t0 < 30
    no_child_left()


@needs_fork
def test_scan_does_not_fork_beside_another_thread(monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        scan = bracket_scan()
    finally:
        stop.set()
        other.join(timeout=60)
    assert forks == []
    assert (scan.b_onset, scan.b_offset) == (BRACKET_B[1], 1.0)
