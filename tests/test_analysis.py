import math

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

from conftest import ALPHA, B1, B2, OMEGA0, needs_fork, set_cpus

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


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, 0.0])
def test_envelope_rejects_a_window_that_is_not_positive_and_finite(window):
    ts = np.linspace(0, 100, 3001)
    with pytest.raises(DomainError, match="window must be positive and finite"):
        envelope_from_series(ts, np.ones_like(ts), window)


@pytest.mark.parametrize("at", [0, -1])
def test_envelope_rejects_a_nan_end_of_the_time_grid(at):
    # the sampling step is read from the grid's ends
    ts = np.linspace(0, 100, 3001)
    ts[at] = math.nan
    with pytest.raises(InsufficientSampling, match="sampling interval nan"):
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
#: onset and offset.
BRACKET_B = [1.5848931924611134e-4, 2.5118864315095795e-4, 0.630957344480193, 1.0]


def bracket_scan():
    return scan_nonlinearity(BRACKET_B[::-1], k=2, alpha=ALPHA, omega0=OMEGA0)


@needs_fork
def test_scan_forks_nothing_at_eight_cpus(monkeypatch, forks):
    set_cpus(monkeypatch, 8)
    scan = bracket_scan()
    assert forks == []
    assert [p.b for p in scan.points] == BRACKET_B
    assert (scan.b_onset, scan.b_offset) == (BRACKET_B[1], 1.0)
    set_cpus(monkeypatch, 1)
    assert scan == bracket_scan()


@needs_fork
def test_scan_builds_one_initial_state(monkeypatch, forks):
    # the state does not depend on b, so the scan builds it once
    built = []
    build = analysis.coherent_state
    monkeypatch.setattr(analysis, "coherent_state", lambda *args: built.append(1) or build(*args))
    set_cpus(monkeypatch, 2)
    bracket_scan()
    assert built == [1]
    assert forks == []


def test_scan_raises_the_smallest_failing_b(monkeypatch):
    # the points run in ascending b and the first error stops the scan; b = 0
    # fails its plan, before any point runs
    evolve = analysis._evolve_amplitude
    ran = []

    def failing(h, *args):
        ran.append(h.b)
        if h.b in BRACKET_B[:2]:
            raise StabilityError(f"failed at b = {h.b}")
        return evolve(h, *args)

    monkeypatch.setattr(analysis, "_evolve_amplitude", failing)
    with pytest.raises(StabilityError, match=f"^failed at b = {BRACKET_B[0]}$"):
        bracket_scan()
    assert ran == [BRACKET_B[0]]
    with pytest.raises(DomainError, match="^no finite revival time for b = 0$"):
        scan_nonlinearity([0.0, 1.0], k=2, alpha=ALPHA, omega0=OMEGA0)
    assert ran == [BRACKET_B[0]]


#: The purity error of b = 0.005 on the k=2 ladder at dim 60, where the
#: automatic step leaves the far bands unstable.
DIM60_FAILURE = "purity 1.000042807942807 outside (0, 1] at t=2.62156; reduce dt"


def test_scan_falls_back_to_the_full_runs_error(monkeypatch):
    # the closed-form purity of these points fails, so each runs the full
    # rk4_evolve, and the scan raises what it raises without amplitude_only
    full_run = analysis.rk4_evolve
    raised = []
    for strip in (False, True):
        if strip:
            monkeypatch.setattr(analysis, "rk4_evolve",
                                lambda *args, amplitude_only: full_run(*args))
        with pytest.raises(Exception) as failed:
            scan_nonlinearity([0.005, 0.01], k=2, alpha=ALPHA, omega0=OMEGA0, dim=60)
        raised.append((type(failed.value), str(failed.value)))
    assert raised == [(StabilityError, DIM60_FAILURE)] * 2
