import math
import os
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from revivals import (DampingSpec, DensityMatrix, DimensionError, DimensionMismatch,
                      DomainError, FockSpace, StabilityError, TruncationError,
                      build_hamiltonian, build_liouvillian, coherent_state,
                      damped_linear_expect_a, density_from_pure,
                      displaced_number_state, expm_propagate, fock_state,
                      kerr_expect_a_closed_form, rk4_evolve)
from revivals.config import load_preset
from revivals.lindblad import (BLOCK_STEPS, CHUNK_BLOCKS, TOP_LEVEL_TOLERANCE,
                               TRACE_TOLERANCE, Trajectory, _band_products, _deal_bands,
                               _rk4_step, default_dt, expect_a_raw,
                               expect_n_raw, to_bands, unvectorize, vectorize)
from revivals.runner import evolve, resolve

from conftest import ALPHA, B1, B2, OMEGA0, random_density, random_hermitian


def make_liouvillian(dim, b=B1, k=2, gamma=0.0, n_thermal=0.0, full=False):
    h = build_hamiltonian(FockSpace(dim), OMEGA0, b, k)
    return build_liouvillian(h, DampingSpec(gamma=gamma, n_thermal=n_thermal,
                                            full_equation=full))


def test_unitary_part_phases(rng):
    # gamma = 0: entry (m,n) of the action is -i (E_m - E_n) rho_mn
    L = make_liouvillian(5, gamma=0.0)
    rho = random_hermitian(rng, 5)
    e = L.hamiltonian.energies
    expected = -1j * (e[:, None] - e[None, :]) * rho
    np.testing.assert_allclose(L.apply(rho), expected, atol=1e-15)


def test_two_level_decay_rates():
    # drho00/dt = +gamma, drho11/dt = -gamma for rho = |1><1|
    gamma = 1e-3
    L = make_liouvillian(2, b=0.0, gamma=gamma)
    drho = L.apply(np.diag([0.0, 1.0]).astype(complex))
    assert drho[0, 0] == pytest.approx(gamma, abs=1e-18)
    assert drho[1, 1] == pytest.approx(-gamma, abs=1e-18)


def test_full_equation_equals_dropped_at_zero_thermal():
    a = make_liouvillian(6, gamma=2e-3, n_thermal=0.0, full=True)
    b = make_liouvillian(6, gamma=2e-3, n_thermal=0.0, full=False)
    np.testing.assert_array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("gamma,n_thermal,full", [
    (0.0, 0.0, False), (1e-3, 0.0, False), (2e-3, 0.5, False), (2e-3, 0.5, True)])
def test_apply_matches_superoperator(rng, gamma, n_thermal, full):
    L = make_liouvillian(7, gamma=gamma, n_thermal=n_thermal, full=full)
    rho = random_density(rng, 7)
    via_matrix = unvectorize(L.matrix @ vectorize(rho), 7)
    np.testing.assert_allclose(L.apply(rho), via_matrix, atol=1e-15)


def test_generator_preserves_hermiticity_and_trace(rng):
    L = make_liouvillian(8, gamma=1e-3, n_thermal=0.3, full=True)
    for _ in range(5):
        rho = random_hermitian(rng, 8)
        out = unvectorize(L.matrix @ vectorize(rho), 8)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out)) <= 1e-12


def test_rk4_matches_damped_linear_oracle():
    # 15 classical periods at 1e-8, the dissipative-oscillator benchmark
    space = FockSpace(30)
    L = make_liouvillian(30, b=0.0, gamma=1e-3)
    rho0 = density_from_pure(coherent_state(space, ALPHA))
    t_final = 15 * 2 * math.pi / OMEGA0
    traj = rk4_evolve(L, rho0, t_final, dt=0.02)
    oracle = damped_linear_expect_a(ALPHA, OMEGA0, 1e-3, 0.0, traj.times)
    assert np.abs(traj.a_expect - oracle).max() <= 1e-8


def test_rk4_matches_kerr_oracle_full_revival():
    # one full revival time at 1e-7
    space = FockSpace(30)
    L = make_liouvillian(30, b=B1, gamma=0.0)
    rho0 = density_from_pure(coherent_state(space, ALPHA))
    traj = rk4_evolve(L, rho0, 2 * math.pi / B1, dt=0.035)
    oracle = kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, traj.times)
    assert np.abs(traj.a_expect - oracle).max() <= 1e-7


def test_rk4_unitary_run_keeps_purity():
    # RK4 is slightly contractive on the fastest phases; the step must be
    # sized for the purity tolerance, not just the stability bound
    space = FockSpace(30)
    L = make_liouvillian(30, b=B2, k=3, gamma=0.0)
    rho0 = density_from_pure(displaced_number_state(space, ALPHA, 2))
    traj = rk4_evolve(L, rho0, 50.0, dt=0.001)
    assert np.abs(traj.purity - 1.0).max() <= 1e-8
    assert np.abs(traj.trace - 1.0).max() <= 1e-10
    assert np.all(traj.purity <= 1.0 + 1e-9)


def test_rk4_photon_number_decay_quick():
    gamma = 2e-3
    space = FockSpace(30)
    L = make_liouvillian(30, b=B2, k=3, gamma=gamma)
    rho0 = density_from_pure(coherent_state(space, ALPHA))
    traj = rk4_evolve(L, rho0, 200.0)
    expected = traj.n_expect[0] * np.exp(-gamma * traj.times)
    rel = np.abs(traj.n_expect / expected - 1.0)
    assert rel.max() <= 1e-6


def test_rk4_rejects_oversized_step():
    L = make_liouvillian(30, b=B2, k=3)
    rho0 = density_from_pure(coherent_state(FockSpace(30), ALPHA))
    with pytest.raises(DomainError):
        rk4_evolve(L, rho0, 10.0, dt=0.1)  # dt * Omega_max >> 0.1


@pytest.mark.parametrize("t_final,dt", [
    (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_rk4_rejects_non_finite_time(t_final, dt):
    L = make_liouvillian(6)
    rho0 = density_from_pure(fock_state(FockSpace(6), 0))
    with pytest.raises(DomainError):
        rk4_evolve(L, rho0, t_final, dt=dt)


def test_rk4_rejects_dimension_mismatch():
    L = make_liouvillian(6)
    rho0 = density_from_pure(fock_state(FockSpace(5), 0))
    with pytest.raises(DimensionMismatch):
        rk4_evolve(L, rho0, 1.0)


def test_rk4_truncation_overflow_with_thermal_pumping():
    # full equation with a hot bath pushes population to the top level
    space = FockSpace(6)
    L = make_liouvillian(6, b=0.0, gamma=0.05, n_thermal=3.0, full=True)
    rho0 = density_from_pure(fock_state(space, 0))
    with pytest.raises(TruncationError):
        rk4_evolve(L, rho0, 400.0, dt=0.05)


def test_trajectory_records_and_final_state():
    space = FockSpace(20)
    L = make_liouvillian(20, b=B1, gamma=1e-3)
    rho0 = density_from_pure(coherent_state(space, -1.0))
    traj = rk4_evolve(L, rho0, 5.0, dt=0.01)
    assert len(traj) == 501
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0
    np.testing.assert_array_equal(traj.final, traj.final.conj().T)
    assert abs(np.trace(traj.final).real - 1.0) <= 1e-8


def test_expm_identity_at_zero(rng):
    L = make_liouvillian(6, gamma=1e-3)
    rho0 = DensityMatrix(FockSpace(6), random_density(rng, 6))
    assert expm_propagate(L, rho0, 0.0) is rho0


def test_expm_semigroup(rng):
    L = make_liouvillian(6, gamma=1e-3)
    rho0 = DensityMatrix(FockSpace(6), random_density(rng, 6))
    once = expm_propagate(L, rho0, 30.0)
    twice = expm_propagate(L, expm_propagate(L, rho0, 12.0), 18.0)
    assert np.abs(once.matrix - twice.matrix).max() <= 1e-9


def test_expm_dimension_guard():
    L = make_liouvillian(13, gamma=1e-3)
    rho0 = density_from_pure(fock_state(FockSpace(13), 0))
    with pytest.raises(DimensionError):
        expm_propagate(L, rho0, 1.0)


def test_expm_agrees_with_rk4(rng):
    L = make_liouvillian(8, gamma=1e-3)
    rho0 = DensityMatrix(FockSpace(8), random_density(rng, 8))
    t = 20.0
    direct = expm_propagate(L, rho0, t)
    final = rk4_evolve(L, rho0, t, dt=0.004).final
    assert np.abs(final - direct.matrix).max() <= 1e-9


# ---------------------------------------------------------------------------
# the block propagator against the stage-wise RK4 loop


def reference_rk4(L, rho0, t_final, dt):
    """Stage-wise RK4 on the full D x D matrix with the gates of rk4_evolve.

    Four generator applications per step, re-Hermitized after each step;
    observables and gates per step, in the order trace, top level, purity.
    """
    nsteps = max(1, math.ceil(t_final / dt - 1e-12))
    dt = t_final / nsteps
    rho = np.array(rho0.matrix, dtype=complex)
    k1, k2, k3, k4, stage = (np.empty_like(rho) for _ in range(5))
    times = np.arange(nsteps + 1) * dt
    a_rec = np.empty(nsteps + 1, dtype=complex)
    n_rec, tr_rec, pur_rec = (np.empty(nsteps + 1) for _ in range(3))
    top_limit = float(rho[-1, -1].real) + TOP_LEVEL_TOLERANCE

    def observe(i):
        a_rec[i] = expect_a_raw(rho)
        n_rec[i] = expect_n_raw(rho)
        tr = tr_rec[i] = float(np.trace(rho).real)
        pur = pur_rec[i] = float(np.vdot(rho, rho).real)
        if not abs(tr - 1.0) <= TRACE_TOLERANCE:
            raise StabilityError(f"trace at t={times[i]:.6g}")
        if not rho[-1, -1].real <= top_limit:
            raise TruncationError(f"top level at t={times[i]:.6g}")
        if not 0.0 < pur <= 1.0 + TRACE_TOLERANCE:
            raise StabilityError(f"purity at t={times[i]:.6g}")

    observe(0)
    for s in range(1, nsteps + 1):
        L.apply(rho, out=k1)
        np.multiply(k1, 0.5 * dt, out=stage)
        stage += rho
        L.apply(stage, out=k2)
        np.multiply(k2, 0.5 * dt, out=stage)
        stage += rho
        L.apply(stage, out=k3)
        np.multiply(k3, dt, out=stage)
        stage += rho
        L.apply(stage, out=k4)
        rho += dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rho += rho.conj().T
        rho *= 0.5
        observe(s)
    return Trajectory(times=times, a_expect=a_rec, n_expect=n_rec, trace=tr_rec,
                      purity=pur_rec, final=rho)


def per_block_diagonal_blocks(gens, x0, dt, nsamples):
    """The undamped block generator with one block per loop pass.

    The observables of each block are vector-matrix products of its start
    state with the table of r^j; the chunked generator must give their bytes.
    """
    d = len(gens)
    nb = BLOCK_STEPS
    x = np.concatenate(x0)
    p = _rk4_step(np.concatenate([np.diagonal(m) for m in gens]), dt)
    table = np.empty((len(x), nb), dtype=complex)
    table[:, 0] = 1.0
    width = 1
    while width < nb:
        np.multiply(p[:, None], table[:, :width], out=table[:, width:2 * width])
        p = p * p
        width *= 2
    abs2 = table.real ** 2 + table.imag ** 2
    weight = np.full(len(x), 2.0)
    weight[:d] = 1.0
    pop_t, a_t = table[:d], table[d:2 * d - 1]
    sqrt_n = np.sqrt(np.arange(1.0, d))
    levels = np.arange(float(d))

    def last():
        v = x * table[:, count - 1]
        return v[:d].real, v[d:]

    for k0 in range(0, nsamples, nb):
        if k0 > 0:
            x *= p
        count = min(nb, nsamples - k0)
        pop = x[:d]
        yield ((sqrt_n * x[d:2 * d - 1]) @ a_t[:, :count],
               ((levels * pop) @ pop_t[:, :count]).real,
               (pop @ pop_t[:, :count]).real,
               (weight * (x.real ** 2 + x.imag ** 2)) @ abs2[:, :count],
               (pop[-1] * pop_t[-1, :count]).real, last)


def failure_time(excinfo):
    return re.search(r"t=(\S+?);?\s", str(excinfo.value) + " ").group(1)


@pytest.mark.parametrize("gamma,n_thermal,full", [
    (0.0, 0.0, False), (1e-3, 0.0, False), (2e-3, 0.5, False), (2e-3, 0.5, True)])
def test_band_generators_match_apply(rng, gamma, n_thermal, full):
    L = make_liouvillian(9, k=3, gamma=gamma, n_thermal=n_thermal, full=full)
    rho = random_density(rng, 9)
    drho = to_bands(L.apply(rho))
    gens = L.band_generators()
    assert gens[0].dtype == float
    for q, (m, x) in enumerate(zip(gens, to_bands(rho))):
        assert m.shape == (9 - q, 9 - q)
        np.testing.assert_allclose(m @ x, drho[q], rtol=0, atol=1e-15)


def _mixed(rng, dim):
    return DensityMatrix(FockSpace(dim), random_density(rng, dim))


@pytest.mark.parametrize("case", [
    # undamped Kerr, undamped cubic from a displaced state, damped cubic from
    # a displaced state, thermal full equation, random mixed state
    dict(dim=30, b=B1, k=2, t=300.0),
    dict(dim=34, b=B2, k=3, state_n=2, t=40.0),
    dict(dim=34, b=B2, k=3, gamma=1e-3, state_n=2, t=40.0),
    dict(dim=24, b=B1, k=2, gamma=2e-3, n_thermal=0.5, full=True, t=100.0),
    dict(dim=12, b=B2, k=3, gamma=3e-3, mixed=True, t=100.0),
], ids=["kerr", "cubic-displaced", "damped-cubic-displaced", "thermal-full", "mixed"])
def test_rk4_matches_stage_loop(rng, case):
    case = dict(case)
    dim, t = case.pop("dim"), case.pop("t")
    state_n, mixed = case.pop("state_n", 0), case.pop("mixed", False)
    L = make_liouvillian(dim, **case)
    space = FockSpace(dim)
    if mixed:
        rho0 = _mixed(rng, dim)
    elif state_n:
        rho0 = density_from_pure(displaced_number_state(space, ALPHA, state_n))
    else:
        rho0 = density_from_pure(coherent_state(space, ALPHA))
    dt = default_dt(L, rho0)
    got = rk4_evolve(L, rho0, t)
    want = reference_rk4(L, rho0, t, dt)
    np.testing.assert_array_equal(got.times, want.times)
    for name in ("a_expect", "n_expect", "trace", "purity"):
        err = np.abs(getattr(got, name) - getattr(want, name)).max()
        assert err <= 1e-10, (name, err)
    assert np.abs(got.final - want.final).max() <= 1e-10
    np.testing.assert_array_equal(got.final, got.final.conj().T)


@pytest.mark.parametrize("nsteps,gamma", [
    pytest.param(n, g, id=str(n) if g else f"{n}-undamped")
    for g in (1e-3, 0.0)
    for n in (1, BLOCK_STEPS - 2, BLOCK_STEPS - 1, BLOCK_STEPS, 2 * BLOCK_STEPS - 1)])
def test_rk4_block_edges(nsteps, gamma):
    # nsteps + 1 samples fall below, on and just past a block edge, on the
    # diagonal (gamma = 0) and the dense band path
    L = make_liouvillian(14, b=B1, gamma=gamma)
    rho0 = density_from_pure(coherent_state(FockSpace(14), -0.8))
    dt = 0.05
    got = rk4_evolve(L, rho0, nsteps * dt, dt=dt)
    want = reference_rk4(L, rho0, nsteps * dt, dt)
    assert len(got) == len(want) == nsteps + 1
    assert np.abs(got.final - want.final).max() <= 1e-12
    assert np.abs(got.a_expect - want.a_expect).max() <= 1e-12
    assert np.abs(got.purity - want.purity).max() <= 1e-12


def test_rk4_stability_error_at_reference_time():
    # b = 0 and dt at the step limit put the far band's phase dt*(E_29 - E_0)
    # = 2.9 past RK4's stability bound: that band grows until the purity gate
    # of the diagonal (gamma = 0) path stops the run
    L = make_liouvillian(30, b=0.0, gamma=0.0)
    rho0 = density_from_pure(coherent_state(FockSpace(30), ALPHA))
    dt = 0.1 / L.omega_max()
    with pytest.raises(StabilityError) as got:
        rk4_evolve(L, rho0, 300 * dt, dt=dt)
    with pytest.raises(StabilityError) as want:
        reference_rk4(L, rho0, 300 * dt, dt)
    assert "purity" in str(got.value)
    assert failure_time(got) == failure_time(want)


CHUNK = CHUNK_BLOCKS * BLOCK_STEPS


@pytest.mark.parametrize("nsamples", [
    1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
    CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 77])
def test_chunked_diagonal_blocks_match_per_block_loop(monkeypatch, nsamples):
    from revivals import lindblad

    L = make_liouvillian(14, b=B1, gamma=0.0)
    rho0 = density_from_pure(coherent_state(FockSpace(14), -0.8))
    dt = 0.0625  # a power of two, so that t_final / dt gives nsamples - 1 steps

    def drain(blocks):
        # <a>, <n>, trace, purity, top level, then the bands of the last sample
        cols = [[] for _ in range(5)]
        for *values, last in blocks:
            for col, v in zip(cols, values):
                col.append(np.array(v))
        return [np.concatenate(c) for c in cols] + list(last())

    gens, x0 = L.band_generators(), to_bands(np.asarray(rho0.matrix))
    got = drain(lindblad._diagonal_blocks(gens, x0, dt, nsamples))
    want = drain(per_block_diagonal_blocks(gens, x0, dt, nsamples))
    assert len(got[0]) == nsamples
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if nsamples == 1:
        return  # rk4_evolve takes at least one step
    runs = [rk4_evolve(L, rho0, (nsamples - 1) * dt, dt=dt)]
    monkeypatch.setattr(lindblad, "_diagonal_blocks", per_block_diagonal_blocks)
    runs.append(rk4_evolve(L, rho0, (nsamples - 1) * dt, dt=dt))
    chunked, per_block = runs
    assert len(chunked) == nsamples
    for name in ("times", "a_expect", "n_expect", "trace", "purity", "final"):
        assert np.array_equal(getattr(chunked, name), getattr(per_block, name)), name


def test_undamped_failure_past_first_chunk_at_reference_time():
    # b = 0 with the far band's phase dt*(E_29 - E_0) 0.05% past RK4's
    # stability bound 2*sqrt(2): that band grows by ~0.7% a step while the
    # near-bound bands decay, and the purity gate first fails in the second
    # chunk of blocks
    L = make_liouvillian(30, b=0.0, gamma=0.0)
    rho0 = density_from_pure(coherent_state(FockSpace(30), ALPHA))
    e = L.hamiltonian.energies
    dt = 1.0005 * 2 * math.sqrt(2) / (e[-1] - e[0])
    with pytest.raises(StabilityError) as got:
        rk4_evolve(L, rho0, 6000 * dt, dt=dt)
    with pytest.raises(StabilityError) as want:
        reference_rk4(L, rho0, 6000 * dt, dt)
    assert "purity" in str(got.value)
    assert float(failure_time(got)) > CHUNK * dt
    assert failure_time(got) == failure_time(want)


def test_undamped_dim60_failure_message():
    # fig2a at dim 60 with the step the automatic rule picks for it: the far
    # bands are past RK4's stability bound, and the purity gate names the
    # first failing sample, inside the first chunk
    config = replace(load_preset("fig2a").config, dim=60, dt=0.11398298141763404)
    with pytest.raises(StabilityError) as failed:
        evolve(resolve(config))
    assert str(failed.value) == ("purity 1.0000428017038252 outside (0, 1] at "
                                 "t=2.62155; reduce dt")


def test_rk4_truncation_error_at_reference_time():
    L = make_liouvillian(6, b=0.0, gamma=0.05, n_thermal=3.0, full=True)
    rho0 = density_from_pure(fock_state(FockSpace(6), 0))
    with pytest.raises(TruncationError) as got:
        rk4_evolve(L, rho0, 400.0, dt=0.05)
    with pytest.raises(TruncationError) as want:
        reference_rk4(L, rho0, 400.0, 0.05)
    assert failure_time(got) == failure_time(want)


@pytest.mark.parametrize("column,error", [
    ("trace", StabilityError), ("top", TruncationError), ("purity", StabilityError)])
def test_gates_fail_on_nan(column, error):
    from revivals.lindblad import _first_failure

    values = {"trace": np.ones(4), "top": np.zeros(4), "purity": np.full(4, 0.5)}
    values[column][2] = np.nan
    exc = _first_failure(np.arange(4.0), values["trace"], values["purity"],
                         values["top"], top_limit=1e-6)
    assert isinstance(exc, error) and "t=2" in str(exc)


def test_rk4_runs_on_one_blas_thread(monkeypatch):
    from revivals import fanout, lindblad

    libs = fanout.openblas_threads()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    inside = []
    dense_blocks = lindblad._dense_blocks

    def spy(*args):
        inside.append([get() for get, _ in libs])
        yield from dense_blocks(*args)

    monkeypatch.setattr(lindblad, "_dense_blocks", spy)
    saved = [get() for get, _ in libs]
    try:
        for _, put in libs:
            put(2)
        L = make_liouvillian(12, gamma=1e-3)
        rk4_evolve(L, density_from_pure(coherent_state(L.space, 0.5)), 1.0, dt=0.01)
        after = [get() for get, _ in libs]
    finally:
        for (_, put), n in zip(libs, saved):
            put(n)
    assert inside == [[1] * len(libs)]
    assert after == [2] * len(libs)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["gamma", "n_thermal", "omega0", "b"])
def test_model_parameters_reject_non_finite(name, value):
    damping = {"gamma": 1e-3, "n_thermal": 0.0}
    ladder = {"omega0": OMEGA0, "b": B1}
    with pytest.raises(DomainError):
        if name in damping:
            DampingSpec(**{**damping, name: value})
        else:
            build_hamiltonian(FockSpace(30), **{**ladder, name: value}, k=2)


AFFINITIES = [{0}, {0, 1}, {0, 1, 2}, set(range(8))]


def test_rk4_output_does_not_depend_on_thread_count(monkeypatch):
    # fig8 at n = 10: damped cubic ladder at dim 44, five blocks of samples
    ctx = resolve(replace(load_preset("fig8").config, state_n=10, t_final=2.0))
    runs = []
    for cpus in AFFINITIES:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        runs.append(rk4_evolve(ctx.liouvillian, ctx.rho0, 2.0, dt=ctx.dt))
    one = runs[0]
    assert len(one) > 4 * BLOCK_STEPS
    for other in runs[1:]:
        for name in ("times", "a_expect", "n_expect", "trace", "purity", "final"):
            assert np.array_equal(getattr(one, name), getattr(other, name)), name


def test_dim2_damped_output_does_not_depend_on_thread_count(monkeypatch, rng):
    # two bands against up to eight threads: most pool tasks find no band left
    L = make_liouvillian(2, b=0.0, gamma=0.05)
    rho0 = DensityMatrix(L.space, random_density(rng, 2))
    runs = []
    for cpus in AFFINITIES:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        runs.append(rk4_evolve(L, rho0, 700 * 0.05, dt=0.05))
    one = runs[0]
    assert len(one) == 701
    for other in runs[1:]:
        for name in ("times", "a_expect", "n_expect", "trace", "purity", "final"):
            assert np.array_equal(getattr(one, name), getattr(other, name)), name


def test_band_products_ignore_overflow_in_pool_threads():
    # the block loop's np.errstate does not reach pool threads
    p = np.full((4, 4), 1e200 + 0j)
    x = np.full((4, 3), 1e200 + 0j)
    y = np.empty_like(x)
    with warnings.catch_warnings(), ThreadPoolExecutor(1) as pool:
        warnings.simplefilter("error")
        pool.submit(_band_products, [(p, x, y)]).result()
    assert not np.isfinite(y).any()


def test_band_products_share_one_iterator_under_contention():
    # more threads than cores draw from one list iterator with a short switch
    # interval: every product must be made, each into its own output
    rng = np.random.default_rng(7)
    jobs = [(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), np.full((3, 2), np.nan))
            for _ in range(4000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        todo = iter(jobs)
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(_band_products, todo) for _ in range(8)]
            _band_products(todo)
            for f in futures:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for p, x, y in jobs:
        assert np.array_equal(y, p @ x)


class _LoggedBand:
    """Band q's matrix; logs (q, thread) when a product with it is made."""

    def __init__(self, q, m, log):
        self.q, self.m, self.log = q, m, log

    def __array_ufunc__(self, ufunc, method, p, x, **kwargs):
        self.log.append((self.q, threading.get_ident()))
        return getattr(ufunc, method)(self.m, x, **kwargs)


@pytest.mark.parametrize("ngroups", [1, 2, 3, 8, 100])
@pytest.mark.parametrize("d", [2, 5, 44, 60])
def test_band_groups_deal_every_band_once(d, ngroups):
    # ngroups threads (ngroups - 1 pool tasks and the caller, as in the damped
    # block loop) share the products of a dim-d state's bands
    rng = np.random.default_rng(d)
    log = []
    jobs = [(_LoggedBand(q, rng.standard_normal((d - q, d - q)), log),
             rng.standard_normal((d - q, 2)), np.full((d - q, 2), np.nan))
            for q in range(d)]
    with ThreadPoolExecutor(max(1, ngroups - 1)) as pool:
        _deal_bands(jobs, pool, ngroups)()
    assert sorted(q for q, _ in log) == list(range(d))
    owners = {t for _, t in log}
    assert 1 <= len(owners) <= min(ngroups, d)
    # each thread takes its bands largest first
    for t in owners:
        mine = [q for q, u in log if u == t]
        assert mine == sorted(mine)
    for p, x, y in jobs:
        assert np.array_equal(y, p.m @ x)


def test_failed_damped_run_joins_its_threads(monkeypatch):
    # four CPUs, so that the pool starts threads on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    before = threading.active_count()
    # fig2b at dim 60 fails in the first block, before the pool is used
    ctx = resolve(replace(load_preset("fig2b").config, dim=60))
    with pytest.raises(StabilityError) as failed:
        evolve(ctx)
    assert str(failed.value) == ("purity 1.0000409021160646 outside (0, 1] at "
                                 "t=2.62155; reduce dt")
    # thermal pumping fills the top level in the second block, after it
    L = make_liouvillian(6, b=0.0, gamma=2e-3, n_thermal=3.0, full=True)
    rho0 = density_from_pure(fock_state(FockSpace(6), 0))
    with pytest.raises(TruncationError) as failed:
        rk4_evolve(L, rho0, 400.0, dt=0.05)
    assert float(failure_time(failed)) > BLOCK_STEPS * 0.05
    assert threading.active_count() == before
    # a pool kept from an earlier call would already be counted in before
    assert not [t for t in threading.enumerate()
                if t.name.startswith("ThreadPoolExecutor")]
