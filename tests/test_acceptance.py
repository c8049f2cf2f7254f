"""End-to-end acceptance checks at their stated tolerances.

Each test covers one numbered criterion and prints a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).
Criterion 10 audits the state integrity of every trajectory produced by
the earlier criteria, so it runs last in this module.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from revivals import (Classification, ClassifierThresholds, DampingSpec,
                      DensityMatrix, FockSpace, build_hamiltonian,
                      build_liouvillian, coherent_state, damped_linear_expect_a,
                      default_n0, density_from_pure, detect_revivals,
                      detect_super_revival, diagonal_h_fock_sum_expect_a,
                      displaced_number_state, extract_envelope,
                      kerr_expect_a_closed_form, log_grid, rk4_evolve,
                      scan_nonlinearity, superoperator_evolve,
                      timescales_closed_form)
from revivals import runner
from revivals.config import load_preset
from revivals.runner import run_sweep

OMEGA0 = 0.15 * math.pi / 2
ALPHA = -1.9
B1 = 0.005
B2 = 0.005
LINEAR_PERIOD = 2 * math.pi / OMEGA0
THRESHOLDS = ClassifierThresholds(linear_classical_period=LINEAR_PERIOD)

#: trajectories accumulated for the criterion-10 integrity audit
_AUDIT: list[tuple[str, object]] = []


@contextmanager
def criterion(num: int, desc: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}",
              flush=True)


def evolve(dim, k, b, gamma, state_n, t_final, dt=0.0, n_thermal=0.0,
           full_equation=False, audit_tag=None):
    space = FockSpace(dim)
    h = build_hamiltonian(space, OMEGA0, b, k)
    L = build_liouvillian(h, DampingSpec(gamma=gamma, n_thermal=n_thermal,
                                         full_equation=full_equation))
    psi = (coherent_state(space, ALPHA) if state_n == 0
           else displaced_number_state(space, ALPHA, state_n))
    traj = rk4_evolve(L, density_from_pure(psi), t_final, dt=dt)
    if audit_tag:
        _AUDIT.append((audit_tag, traj))
    return h, traj


def test_criterion_01_damped_linear_oracle():
    with criterion(1, "damped linear <a(t)> matches analytic oracle to 1e-6"):
        t0 = time.perf_counter()
        _, traj = evolve(30, 2, 0.0, 1e-3, 0, t_final=15 * LINEAR_PERIOD,
                         dt=0.05, audit_tag="c1")
        oracle = damped_linear_expect_a(ALPHA, OMEGA0, 1e-3, 0.0, traj.times)
        err = np.abs(traj.a_expect - oracle).max()
        elapsed = time.perf_counter() - t0
        assert err <= 1e-6, f"max error {err:.3e}"
        assert elapsed <= 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_02_kerr_oracle_and_revivals():
    with criterion(2, "undamped quadratic ladder matches closed form; "
                      "revivals at k t_rev/2"):
        t0 = time.perf_counter()
        t_rev = 2 * math.pi / B1
        # margin past t_rev so the second revival is an interior envelope point
        h, traj = evolve(30, 2, B1, 0.0, 0, t_final=1.1 * t_rev, dt=0.05,
                         audit_tag="c2")
        oracle = kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, traj.times)
        err = np.abs(traj.a_expect - oracle).max()
        assert err <= 1e-6, f"max error {err:.3e}"
        pred = timescales_closed_form(h, default_n0(ALPHA))
        env = extract_envelope(traj, pred.t_cl)
        report = detect_revivals(env, pred, THRESHOLDS, require_full_span=False)
        assert report.classification is Classification.REGULAR_REVIVALS
        expected = [t_rev / 2, t_rev]
        assert len(report.revival_times) >= 2
        for got, want in zip(report.revival_times[:2], expected):
            assert abs(got - want) <= 0.02 * want, (got, want)
        assert report.revival_amplitudes.max() >= 0.999 * abs(ALPHA)
        # full revival at t_rev / 2: |<a>| returns to |alpha| within 1e-6
        idx = int(np.argmin(np.abs(traj.times - t_rev / 2)))
        assert abs(np.abs(traj.a_expect[idx]) - abs(ALPHA)) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s"


def test_criterion_03_damping_series_classifications():
    with criterion(3, "gamma series classifies REGULAR/DAMPED/DAMPED/NO_REVIVALS "
                      "with strictly decreasing peaks when damped"):
        expected = {0.0: Classification.REGULAR_REVIVALS,
                    1e-4: Classification.DAMPED_REVIVALS,
                    1e-3: Classification.DAMPED_REVIVALS,
                    8e-3: Classification.NO_REVIVALS}
        t_rev = 2 * math.pi / B1
        previous_rank = 99
        rank = {Classification.REGULAR_REVIVALS: 3,
                Classification.DAMPED_REVIVALS: 2,
                Classification.NO_REVIVALS: 1}
        for gamma, want in expected.items():
            h, traj = evolve(30, 2, B1, gamma, 0, t_final=2.2 * t_rev, dt=0.1,
                             audit_tag=f"c3-{gamma}")
            pred = timescales_closed_form(h, default_n0(ALPHA))
            env = extract_envelope(traj, pred.t_cl)
            report = detect_revivals(env, pred, THRESHOLDS, damped=gamma > 0)
            assert report.classification is want, (gamma, report.classification)
            if gamma > 0 and len(report.revival_amplitudes) >= 2:
                amps = report.revival_amplitudes
                assert np.all(amps[1:] < amps[:-1]), (gamma, amps)
            # classification never strengthens as gamma grows
            assert rank[report.classification] <= previous_rank
            previous_rank = rank[report.classification]


def test_criterion_04_photon_number_decay_law():
    with criterion(4, "<n(t)> follows exp(-gamma (N+1) t) to relative 1e-6 "
                      "for both ladders and any state"):
        cases = [
            dict(dim=30, k=2, b=B1, gamma=2e-3, state_n=0, n_thermal=0.0),
            dict(dim=34, k=3, b=B2, gamma=1e-3, state_n=2, n_thermal=0.0),
            dict(dim=30, k=3, b=B2, gamma=5e-3, state_n=1, n_thermal=0.7),
        ]
        for case in cases:
            n_th = case.pop("n_thermal")
            _, traj = evolve(t_final=600.0, n_thermal=n_th, full_equation=False,
                             audit_tag=f"c4-{case['k']}-{case['state_n']}", **case)
            lam = case["gamma"] * (n_th + 1.0)
            expected = traj.n_expect[0] * np.exp(-lam * traj.times)
            rel = np.abs(traj.n_expect / expected - 1.0).max()
            assert rel <= 1e-6, (case, rel)
        # the law is state independent: random mixed state on the cubic ladder
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        rho_m = x @ x.conj().T
        rho0 = DensityMatrix(FockSpace(20), rho_m / np.trace(rho_m).real)
        h = build_hamiltonian(FockSpace(20), OMEGA0, B2, 3)
        L = build_liouvillian(h, DampingSpec(gamma=3e-3))
        traj = rk4_evolve(L, rho0, 400.0)
        _AUDIT.append(("c4-mixed", traj))
        expected = traj.n_expect[0] * np.exp(-3e-3 * traj.times)
        assert np.abs(traj.n_expect / expected - 1.0).max() <= 1e-6


#: Bounds on every sample of the damped panels' full runs, set from their
#: measured largest errors with about 4x headroom: n_expect against the
#: closed form 1.2e-12 relative (fig4d), |trace - 1| 3.4e-13 (fig7a)
CLOSED_FORM_N_RTOL = 5e-12
CLOSED_FORM_TRACE_ATOL = 1.5e-12


@pytest.mark.parametrize("panel", ["fig2b", "fig2d", "fig4d", "fig7a", "fig8-n10"])
def test_damped_panels_follow_the_closed_forms(panel):
    # under downward-only damping d<n>/dt = -gamma (N+1) <n> holds exactly on
    # the truncated ladder, where a+ n a = n (n - 1), and the trace is exactly
    # 1: the full run's n_expect and trace columns, at every sample
    name, _, n = panel.partition("-n")
    config = replace(load_preset(name).config, **({"state_n": int(n)} if n else {}))
    assert config.gamma > 0 and not (config.full_equation and config.n_thermal > 0)
    ctx = runner.resolve(config)
    traj = runner.evolve(ctx)
    n0 = float(np.dot(np.arange(config.dim), np.diagonal(ctx.rho0.matrix).real))
    expected = n0 * np.exp(-config.gamma * (config.n_thermal + 1.0) * traj.times)
    assert np.abs(traj.n_expect / expected - 1.0).max() <= CLOSED_FORM_N_RTOL
    assert np.abs(traj.trace - 1.0).max() <= CLOSED_FORM_TRACE_ATOL


def test_criterion_05_propagator_cross_validation():
    with criterion(5, "RK4 agrees with the superoperator exponential to 1e-8 "
                      "and converges at 4th order"):
        dim = 8
        rng = np.random.default_rng(11)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho_m = x @ x.conj().T
        rho0 = DensityMatrix(FockSpace(dim), rho_m / np.trace(rho_m).real)
        h = build_hamiltonian(FockSpace(dim), OMEGA0, B1, 2)
        damping = DampingSpec(gamma=1e-3)
        L = build_liouvillian(h, damping)
        t = 50.0
        reference = superoperator_evolve(h.energies, damping, rho0.matrix, t)

        def final_state(dt):
            return rk4_evolve(L, rho0, t, dt=t / round(t / dt)).final

        err_fine = np.abs(final_state(0.005) - reference).max()
        assert err_fine <= 1e-8, f"max-entry error {err_fine:.3e}"
        err_h = np.abs(final_state(0.05) - reference).max()
        err_h2 = np.abs(final_state(0.025) - reference).max()
        ratio = err_h / err_h2
        assert ratio >= 14.0, f"convergence ratio {ratio:.1f}"


def test_criterion_06_cubic_ladder_oracle_and_super_revival():
    with criterion(6, "cubic ladder matches the Fock-sum oracle to 1e-6; "
                      "super-revival at 2 pi / b independent of n"):
        t_sr = 2 * math.pi / B2
        h, traj = evolve(30, 3, B2, 0.0, 0, t_final=1.05 * t_sr, audit_tag="c6")
        space = FockSpace(30)
        oracle = diagonal_h_fock_sum_expect_a(coherent_state(space, ALPHA), h,
                                              traj.times)
        err = np.abs(traj.a_expect - oracle).max()
        assert err <= 1e-6, f"max error {err:.3e}"
        detected = {}
        for n in (0, 1, 2):
            dim = 30 + 2 * n
            hn, traj_n = evolve(dim, 3, B2, 0.0, n, t_final=1.05 * t_sr,
                                audit_tag=f"c6-n{n}")
            pred = timescales_closed_form(hn, default_n0(ALPHA, n))
            env = extract_envelope(traj_n, pred.t_cl)
            peak = detect_super_revival(env, pred)
            assert peak is not None, f"no super revival found for n={n}"
            assert abs(peak.t - t_sr) <= 0.02 * t_sr, (n, peak.t)
            detected[n] = peak.t
        spread = max(detected.values()) / min(detected.values()) - 1.0
        assert spread <= 0.02, detected


def test_criterion_07_displaced_revival_time_anomaly(tmp_path):
    with criterion(7, "first revival times for n = 1..4 agree within 5% and "
                      "do not scale as 1/n; theory column reports 2 pi/(3 b n)"):
        from dataclasses import replace

        period = math.pi / (3 * B2)
        base = load_preset("fig6a").config
        # span just past the common revival; theory columns come from the sweep
        sweep = run_sweep(replace(base, t_final=round(1.3 * period, 1)),
                          "state_n", [1, 2, 3, 4], name="c7", out_dir=tmp_path)
        rows = sweep.rows
        times = np.array([r["first_revival_t"] for r in rows])
        assert np.all(np.isfinite(times)), rows
        # mutual agreement within 5 percent
        assert times.max() / times.min() - 1.0 <= 0.05, times
        # emphatically not 1/n: the n = 4 time would be a quarter of n = 1
        assert times[3] / times[0] > 0.8, times
        theory = np.array([r["predicted_t_rev"] for r in rows])
        expected = 2 * math.pi / (3 * B2 * np.arange(1, 5))
        np.testing.assert_allclose(theory, expected, rtol=1e-12)
        # detected times sit at the common modulus-revival period
        assert np.abs(times - period).max() <= 0.05 * period, times


def test_criterion_08_first_revival_amplitudes_decrease_with_n(tmp_path):
    with criterion(8, "damped first-revival amplitudes strictly decrease "
                      "for n = 1..10"):
        spec = load_preset("fig8")
        sweep = run_sweep(spec.config, spec.sweep_axis, spec.sweep_values,
                          name="c8", out_dir=tmp_path)
        amps = np.array([r["first_revival_amp"] for r in sweep.rows])
        assert np.all(np.isfinite(amps)), sweep.rows
        assert np.all(amps[1:] < amps[:-1]), amps


def test_criterion_09_onset_offset_brackets():
    with criterion(9, "automated scans bracket onset/offset of both ladders "
                      "within one grid step"):
        t0 = time.perf_counter()
        grid = log_grid(1e-5, 10.0, per_decade=5)
        step = 0.2001  # one 5-per-decade grid step in log10
        scan2 = scan_nonlinearity(grid, k=2, alpha=ALPHA, omega0=OMEGA0)
        assert scan2.b_onset is not None and scan2.b_offset is not None
        assert abs(math.log10(scan2.b_onset / 2e-4)) <= step, scan2.b_onset
        assert abs(math.log10(scan2.b_offset / 1.0)) <= step, scan2.b_offset
        scan3 = scan_nonlinearity(grid, k=3, alpha=ALPHA, omega0=OMEGA0)
        assert scan3.b_onset is not None and scan3.b_offset is not None
        assert abs(math.log10(scan3.b_onset / 4e-4)) <= step, scan3.b_onset
        assert abs(math.log10(scan3.b_offset / 0.06)) <= step, scan3.b_offset
        elapsed = time.perf_counter() - t0
        assert elapsed <= 1800.0, f"scan runtime {elapsed:.0f}s"


def test_criterion_10_state_integrity_everywhere():
    with criterion(10, "trace, positivity and purity bounds hold on all "
                       "acceptance runs"):
        if not _AUDIT:  # partial runs under -k: audit representative cases
            evolve(30, 2, 0.0, 1e-3, 0, t_final=400.0, dt=0.05, audit_tag="lin")
            evolve(30, 2, B1, 1e-4, 0, t_final=1400.0, dt=0.1, audit_tag="kerr")
        for tag, traj in _AUDIT:
            assert np.abs(traj.trace - 1.0).max() <= 1e-8, tag
            assert traj.purity.max() <= 1.0 + 1e-9, tag
            assert traj.purity.min() > 0.0, tag
        # positivity at ten sampled times of the grid t = 2.5 i, i = 0..120:
        # one dedicated run ending at each (positivity error scales ~dt^5;
        # 0.025 keeps it within -1e-7)
        rng = np.random.default_rng(3)
        for i in rng.choice(121, size=10, replace=False):
            _, traj = evolve(30, 2, B1, 1e-3, 0, t_final=100 * i * 0.025, dt=0.025)
            assert len(traj) == 100 * i + 1
            assert np.linalg.eigvalsh(traj.final)[0] >= -1e-7
