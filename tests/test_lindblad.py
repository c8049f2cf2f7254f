import math
import os
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from revivals import (DampingSpec, DensityMatrix, DimensionMismatch, DomainError,
                      FockSpace, StabilityError, TruncationError,
                      build_hamiltonian, build_liouvillian, coherent_state,
                      damped_linear_expect_a, density_from_pure,
                      displaced_number_state, kerr_expect_a_closed_form,
                      rk4_evolve, superoperator, superoperator_evolve)
from revivals.config import load_preset
from revivals.fanout import one_blas_thread, run_slices
from revivals.lindblad import (BLOCK_STEPS, CERTIFICATE_MARGIN, CHUNK_BLOCKS,
                               PREFIX_BLOCKS, TOP_LEVEL_TOLERANCE,
                               TRACE_TOLERANCE, Trajectory, _rk4_step, default_dt,
                               expect_a_raw, expect_n_raw, to_bands)
from revivals.runner import evolve, resolve

from conftest import (ALPHA, B1, B2, OMEGA0, UNSTABLE_DT, children_exit_at_once,
                      fock_state, needs_fork, no_child_left, random_density,
                      random_hermitian, refuse_certificates, set_cpus)


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
    for ma, mb in zip(a.band_generators(), b.band_generators(), strict=True):
        np.testing.assert_array_equal(ma, mb)


@pytest.mark.parametrize("gamma,n_thermal,full", [
    (0.0, 0.0, False), (1e-3, 0.0, False), (2e-3, 0.5, False), (2e-3, 0.5, True),
    (2e-3, 0.0, True)])
def test_apply_matches_superoperator(rng, gamma, n_thermal, full):
    L = make_liouvillian(7, gamma=gamma, n_thermal=n_thermal, full=full)
    rho = random_density(rng, 7)
    via_matrix = (superoperator(L.hamiltonian.energies, L.damping)
                  @ rho.reshape(-1, order="F")).reshape((7, 7), order="F")
    np.testing.assert_allclose(L.apply(rho), via_matrix, atol=1e-15)


def test_generator_preserves_hermiticity_and_trace(rng):
    L = make_liouvillian(8, gamma=1e-3, n_thermal=0.3, full=True)
    for _ in range(5):
        rho = random_hermitian(rng, 8)
        out = L.apply(rho)
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
    rho0 = random_density(rng, 6)
    np.testing.assert_array_equal(
        superoperator_evolve(L.hamiltonian.energies, L.damping, rho0, 0.0), rho0)


def test_expm_semigroup(rng):
    L = make_liouvillian(6, gamma=1e-3)
    e, damping = L.hamiltonian.energies, L.damping
    rho0 = random_density(rng, 6)
    once = superoperator_evolve(e, damping, rho0, 30.0)
    twice = superoperator_evolve(e, damping, superoperator_evolve(e, damping, rho0, 12.0),
                                 18.0)
    assert np.abs(once - twice).max() <= 1e-9


def test_expm_agrees_with_rk4(rng):
    L = make_liouvillian(8, gamma=1e-3)
    rho0 = DensityMatrix(FockSpace(8), random_density(rng, 8))
    t = 20.0
    direct = superoperator_evolve(L.hamiltonian.energies, L.damping, rho0.matrix, t)
    final = rk4_evolve(L, rho0, t, dt=0.004).final
    assert np.abs(final - direct).max() <= 1e-9


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


def per_block_diagonal_blocks(x, r, d, nsamples):
    """The undamped block generator with one block per loop pass.

    x stacks the D bands, stepped in place, and r their diagonal step
    factors. The observables of each block are vector-matrix products of its
    start state with the table of r^j; the chunked generator must give their
    bytes.
    """
    nb = BLOCK_STEPS
    p = r
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


def per_band_bound(gens, x0, dt, nsamples):
    """The parts of the damped purity bound that band 0 and bands 1..D-1
    give, one band at a time and unpadded.

    Per part: w sum |x_q|^2 for each sample of the prefix, flat, and
    w sum g_q |y_q(i)|^2 for each block i, with g_q from
    nu(A) = sqrt(||A||_1 ||A||_inf) of R_q, R_q^2, ..., R_q^(B/2).
    ``_purity_parts`` steps padded band groups and must agree up to
    ``_rounding``.
    """
    from revivals.lindblad import PREFIX_BLOCKS, _abs2, _band_blocks, _squares

    nb = BLOCK_STEPS
    nblocks = -(-nsamples // nb)
    nexact = min(nblocks, PREFIX_BLOCKS)
    exact, starts = np.zeros((2, nexact * nb)), np.zeros((2, nblocks))
    for q, (m, x) in enumerate(zip(gens, x0)):
        part = min(q, 1)
        weight = 1.0 + part
        powers = list(_squares(_rk4_step(m, dt)))
        for k0, block in _band_blocks([powers], [x], nexact * nb):
            exact[part, k0:k0 + nb] += weight * _abs2(block)
        nu = [np.sqrt(np.abs(p).sum(axis=0).max() * np.abs(p).sum(axis=1).max())
              for p in powers[:-1]]
        g = np.prod(np.maximum(1.0, nu)) ** 2
        for i, y in _band_blocks([_squares(powers[-1])], [x], nblocks):
            starts[part, i:i + y.shape[1]] += weight * g * _abs2(y)
    return exact, starts


def bound_per_sample(exact, starts, nsamples):
    """The purity bound of ``_purity_parts`` at each sample, its parts summed:
    exact over the prefix, the block's bound past it."""
    bound = np.repeat(starts.sum(axis=0), BLOCK_STEPS)[:nsamples]
    n = min(nsamples, exact[0].size)
    bound[:n] = exact.sum(axis=0).reshape(-1)[:n]
    return bound


def failure_time(failed):
    """The time a gate's error names; failed is the error or pytest's ExceptionInfo."""
    return re.search(r"t=(\S+?);?\s", str(getattr(failed, "value", failed)) + " ").group(1)


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


@pytest.mark.parametrize("gamma,n_thermal,full", [
    (0.0, 0.0, False), (0.0, 0.5, True), (1e-3, 0.0, False), (2e-3, 0.5, True)])
def test_band_diagonals_are_the_generators_diagonals(gamma, n_thermal, full):
    # with gamma = 0 both jump weights are zero, so the diagonals are the
    # whole generators, the upward term of the full equation included
    L = make_liouvillian(9, k=3, gamma=gamma, n_thermal=n_thermal, full=full)
    for m, diag in zip(L.band_generators(), L.band_diagonals(), strict=True):
        assert diag.dtype == m.dtype
        assert np.array_equal(np.diagonal(m), diag)
        if gamma == 0:
            assert np.array_equal(m, np.diag(diag))


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


def stacked_step(L, rho0, dt):
    """The stacked bands of rho0 and their diagonal step factors, as
    ``rk4_evolve`` builds them for an undamped run."""
    return (np.concatenate(to_bands(np.asarray(rho0.matrix))),
            _rk4_step(np.concatenate(L.band_diagonals()), dt))


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

    x, r = stacked_step(L, rho0, dt)
    got = drain(lindblad._diagonal_blocks(x.copy(), r, L.space.dim, nsamples))
    want = drain(per_block_diagonal_blocks(x.copy(), r, L.space.dim, nsamples))
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


DIM60_UNSTABLE = ("fig2a", "fig2b", "fig2c", "fig3c", "fig3d", "fig5b")


@pytest.mark.parametrize("name,changes", [
    *((name, {}) for name in DIM60_UNSTABLE), ("fig2b", dict(n_thermal=0.1, full_equation=True))],
    ids=[*DIM60_UNSTABLE, "fig2b-thermal"])
def test_automatic_step_keeps_every_band_stable_at_dim60(name, changes):
    # the old rule read the top level's spacing alone, and at dim 60 its step
    # grew these presets' far bands (|r| - 1 up to 3.24). The automatic step is
    # now the largest at which no eigenvalue of any M_q, computed here from the
    # dense generators, has |r(dt lambda)| above 1 + STABLE_GROWTH, and each run
    # finishes with a finite purity of at most 1 but for the rounding of the
    # pure state's own sum at t = 0 (1 + 7e-16)
    from revivals.lindblad import STABLE_GROWTH

    ctx = resolve(replace(load_preset(name).config, dim=60, **changes))
    L = ctx.liouvillian
    lam = np.concatenate([np.linalg.eigvals(m) for m in L.band_generators()])
    dt = default_dt(L, ctx.rho0)
    assert np.abs(_rk4_step(lam, dt)).max() <= 1.0 + STABLE_GROWTH
    assert np.abs(_rk4_step(lam, dt * (1.0 + 1e-9))).max() > 1.0 + STABLE_GROWTH
    if changes:
        return  # the thermal run reads the eigenvalues themselves, as above
    purity = evolve(ctx).purity
    assert np.all(np.isfinite(purity)) and purity.max() <= 1.0 + 1e-15


# rk4_evolve(amplitude_only=True): an undamped run whose gates hold in closed
# form propagates band 1 alone

def preset_run(name, **changes):
    ctx = resolve(replace(load_preset(name).config, **changes))
    return ctx.liouvillian, ctx.rho0, ctx.config.t_final, ctx.config.dt


def steps_run(nsteps, gamma=0.0):
    # dt a power of two, so that nsteps * dt / dt gives nsteps steps
    rho0 = density_from_pure(coherent_state(FockSpace(14), -0.8))
    return make_liouvillian(14, b=B1, gamma=gamma), rho0, nsteps * 0.0625, 0.0625


AMPLITUDE_RUNS = {
    "fig2a": lambda: preset_run("fig2a"),
    "fig4a": lambda: preset_run("fig4a"),
    "k3-dim44-n5": lambda: preset_run("fig4a", dim=44, state_n=5),
    # steps on and either side of a block edge, and one past a chunk
    **{f"{n}-steps": (lambda n=n: steps_run(n))
       for n in (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, CHUNK + 1)},
}


@pytest.mark.parametrize("run", list(AMPLITUDE_RUNS))
def test_amplitude_only_gives_the_full_runs_amplitude_bytes(run):
    L, rho0, t_final, dt = AMPLITUDE_RUNS[run]()
    full = rk4_evolve(L, rho0, t_final, dt)
    band1 = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert band1.times.tobytes() == full.times.tobytes()
    assert band1.a_expect.tobytes() == full.a_expect.tobytes()
    for name in ("n_expect", "trace", "purity", "final"):
        assert getattr(band1, name).size == 0, name
    # the facts the certificate reads: a trace constant up to the rounding of
    # its sum, and a purity whose largest value is at an end, up to the
    # rounding the certificate allows
    assert np.ptp(full.trace) <= 1e-14
    assert full.purity.max() <= max(full.purity[0], full.purity[-1]) * (1 + 1e-12)


@pytest.mark.parametrize("verdict", ["certifies", "refuses_gates", "refuses_amplitude"])
def test_band1_amplitude_leaves_the_stacked_bands_as_they_came(monkeypatch, verdict):
    # the full path steps the same stacked bands from the start, so the
    # certificate steps band 1 in a copy: on a run it certifies, on one whose
    # top-level gate it refuses before any step, and on one whose <a> it
    # refuses after stepping band 1 over two chunks with an overflowing factor
    from revivals import lindblad

    L, rho0, t_final, dt = steps_run(CHUNK + 1)
    d = L.space.dim
    x, r = stacked_step(L, rho0, dt)
    top_limit = float(rho0.matrix[-1, -1].real) + TOP_LEVEL_TOLERANCE
    if verdict == "refuses_gates":
        top_limit = -1.0
    elif verdict == "refuses_amplitude":
        r[d] = 1e200  # band 1's first factor, whose square overflows
        monkeypatch.setattr(lindblad, "_certified", lambda *args: {"branch": "closed_form"})
    before = x.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        cert = lindblad._band1_amplitude(x, r, d, top_limit, np.empty(CHUNK + 2, dtype=complex))
    assert (cert is not None) is (verdict == "certifies")
    assert x.tobytes() == before


def test_amplitude_only_is_ignored_by_damped_runs(monkeypatch):
    # a damped run the certificate does not cover takes the full path, with
    # every record: a coherent state stays pure under amplitude damping, so
    # past the exact prefix no bound of at least the purity keeps the
    # margin. The same holds where the certificate is refused.
    L, rho0, t_final, dt = steps_run(2 * BLOCK_STEPS + 5, gamma=1e-3)
    full = rk4_evolve(L, rho0, t_final, dt)
    for refused in (False, True):
        if refused:
            refuse_certificates(monkeypatch)
        flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
        for name in ("times", "a_expect", "n_expect", "trace", "purity", "final"):
            assert getattr(flagged, name).tobytes() == getattr(full, name).tobytes(), name
        assert flagged.final.shape == (14, 14)


# rk4_evolve(amplitude_only=True) on a damped run: band 1 alone where one
# certificate holds, the purity bounded from block starts past an exact prefix
# with band 0's gates in closed form, or band 0 stepped alone and its exact
# sum(x_0^2) in the bound

DAMPED_AMPLITUDE_RUNS = {
    "fig2b": dict(name="fig2b"),
    "fig2d": dict(name="fig2d"),
    "fig8-n1": dict(name="fig8", state_n=1),
    "fig8-n10": dict(name="fig8", state_n=10),
}


#: The path each damped amplitude-only run takes. The presets certify; so do
#: fig2b's and fig8's configs at stronger damping, with band 0 stepped, which
#: no preset runs. Stronger still falls back, as fig1's coherent state does,
#: which stays pure under amplitude damping
DAMPED_AMPLITUDE_PATHS = {
    **{run: (changes, "amplitude_only") for run, changes in DAMPED_AMPLITUDE_RUNS.items()},
    "fig2b-gamma0.004": (dict(name="fig2b", gamma=4e-3), "amplitude_only"),
    "fig2b-gamma0.008": (dict(name="fig2b", gamma=8e-3), "amplitude_only"),
    "fig8-n5-gamma0.032": (dict(name="fig8", state_n=5, gamma=0.032), "amplitude_only"),
    "fig2b-gamma0.016": (dict(name="fig2b", gamma=0.016), "full"),
    "fig1": (dict(name="fig1"), "full"),
}


@pytest.mark.parametrize("run", list(DAMPED_AMPLITUDE_PATHS))
def test_damped_amplitude_only_gives_the_full_runs_amplitude_bytes(run):
    changes, path = DAMPED_AMPLITUDE_PATHS[run]
    L, rho0, t_final, dt = preset_run(**changes)
    full = rk4_evolve(L, rho0, t_final, dt)
    flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert flagged.times.tobytes() == full.times.tobytes()
    assert flagged.a_expect.tobytes() == full.a_expect.tobytes()
    # certified, the records that read the other bands stay empty; the full
    # path keeps every record
    for name in ("n_expect", "trace", "purity", "final"):
        assert (getattr(flagged, name).size == 0) is (path == "amplitude_only"), name


def stepped_bound(L, rho0, full):
    """The certificate's bound per sample with band 0 stepped alone, and
    whether band 0's gates held, for the run that gave the full trajectory."""
    from revivals.lindblad import _purity_parts, _squares, _stepped_band0

    nsamples, dt = len(full), full.times[1]
    gens, x0 = L.band_generators(), to_bands(rho0.matrix)
    top_limit = float(rho0.matrix[-1, -1].real) + TOP_LEVEL_TOLERANCE
    with one_blas_thread():
        band0 = list(_squares(_rk4_step(gens[0], dt)))
        exact, starts = _purity_parts(band0, gens, x0, dt, nsamples)
        held = _stepped_band0(band0, x0[0], full.times, top_limit, starts, math.inf)
    return bound_per_sample(exact, starts, nsamples), held


@pytest.mark.parametrize("run", ["fig2b", "fig2d", "fig8-n10"])
def test_damped_purity_bound_holds_the_full_runs_purity(run):
    # with band 0 stepped, the bound sits at or above the full run's own
    # purity record past the prefix, up to the rounding the certificate
    # allows, and on it within that rounding in the prefix, where the exact
    # sums add the purity in another order. Every run certifies so. fig2d is
    # the tight case: its purity returns toward 1, and it ends about 1e-6
    # inside the gate
    from revivals.lindblad import _rounding

    L, rho0, t_final, dt = preset_run(**DAMPED_AMPLITUDE_RUNS[run])
    full = rk4_evolve(L, rho0, t_final, dt)
    nsamples = len(full)
    rounding = _rounding(nsamples, L.space.dim)
    limit = (1.0 + TRACE_TOLERANCE - CERTIFICATE_MARGIN) / (1.0 + rounding)
    bound, held = stepped_bound(L, rho0, full)
    assert held
    prefix = np.arange(nsamples) // BLOCK_STEPS < PREFIX_BLOCKS
    assert np.all(bound <= limit)
    assert np.all((np.abs(bound - full.purity) <= rounding * full.purity)[prefix])
    assert np.all((bound * (1.0 + rounding) >= full.purity)[~prefix])
    if run == "fig2d":
        assert 0.5e-6 < 1.0 + TRACE_TOLERANCE - bound[-1] < 1.5e-6


#: A run two blocks past the exact prefix, whose every block past it the
#: stepped band 0 checks against the bound.
PAST_PREFIX = (PREFIX_BLOCKS + 2) * BLOCK_STEPS


@pytest.mark.parametrize("nsamples", [
    1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, PAST_PREFIX - 1, PAST_PREFIX,
    PAST_PREFIX + 1, 2 * PAST_PREFIX + 77])
@pytest.mark.parametrize("d", [2, 3, 14, 40])
def test_chunked_amplitude_blocks_match_per_block_loop(monkeypatch, d, nsamples):
    # the one damped certificate's two pieces against their references, on
    # runs at and either side of block edges: band 0 stepped alone gives the
    # trace, sum(x_0^2) and top level of the full run's blocks, with their
    # bytes, and each block's largest sum(x_0^2) replaces band 0's
    # block-start bound. The padded band groups bound the purity as one band
    # at a time does (``per_band_bound``), up to rounding: band 0 is a group
    # of its own; dim 2 has band 1 alone and dim 3 one group of bands 1 and
    # 2; at dim 14 the groups stack 9 and 4 padded bands, and at dim 40 bands
    # 1..20 fill groups of 3, 3, 3, 4, 4 and 5
    from revivals import lindblad
    from revivals.lindblad import _band_groups, _purity_parts, _rounding, _squares, _stepped_band0

    L, rho0, _ = damped_case(d)
    dt = 2.0 ** math.floor(math.log2(0.1 / L.omega_max()))  # t_final / dt is exact
    gens, x0 = L.band_generators(), to_bands(rho0.matrix)
    assert [g.stop - g.start for g in _band_groups(d)][:7] == {
        2: [1, 1], 3: [1, 2], 14: [1, 9, 4], 40: [1, 3, 3, 3, 4, 4, 5]}[d]
    set_cpus(monkeypatch, 1)  # the full run's blocks below come from one process
    records = []
    with one_blas_thread(), monkeypatch.context() as spy:
        band0 = list(_squares(_rk4_step(gens[0], dt)))
        exact, starts = _purity_parts(band0, gens, x0, dt, nsamples)
        want_exact, want_starts = per_band_bound(gens, x0, dt, nsamples)
        rounding = _rounding(nsamples, d)
        assert np.all(np.abs(exact.reshape(2, -1) - want_exact) <= rounding * want_exact)
        past = slice(exact.shape[1], None)  # block starts bound the blocks past the prefix
        assert np.all(np.abs(starts - want_starts)[:, past] <= rounding * want_starts[:, past])
        spy.setattr(lindblad, "_first_failure", lambda times, trace, low, top, top_limit:
                    records.append((trace, low, top.copy())))
        assert _stepped_band0(band0, x0[0], dt * np.arange(nsamples), 1.0, starts, math.inf)
        spy.undo()
        want = [(tr, pur, top.copy())
                for _, _, tr, pur, top, _ in lindblad._dense_blocks(band0, gens, x0, dt,
                                                                    nsamples)]
    assert len(records) == len(want) == len(starts[0])
    for i, ((trace, low, top), (full_trace, purity, full_top)) in enumerate(zip(records, want)):
        assert trace.tobytes() == full_trace.tobytes()
        assert top.tobytes() == full_top.tobytes()
        assert np.all(low <= purity)
        assert starts[0, i] == low.max()
    if nsamples == 1:
        return  # rk4_evolve takes at least one step
    full = rk4_evolve(L, rho0, (nsamples - 1) * dt, dt=dt)
    flagged = rk4_evolve(L, rho0, (nsamples - 1) * dt, dt=dt, amplitude_only=True)
    assert flagged.purity.size == 0  # certified
    assert flagged.a_expect.tobytes() == full.a_expect.tobytes()


def test_failing_band0_certificate_stops_at_its_first_failing_block(monkeypatch):
    # fig2b's config at gamma = 0.016: with band 0 stepped, the purity bound
    # first exceeds its limit at block 2, just past the exact prefix, so band 0
    # is stepped no further, and the run takes the full path with its bytes
    from revivals import lindblad

    L, rho0, t_final, dt = preset_run("fig2b", gamma=0.016)
    firsts, band_blocks, stepped_band0 = [], lindblad._band_blocks, lindblad._stepped_band0

    def spy(steps, x0, nsamples, buffers=None):
        for k0, block in band_blocks(steps, x0, nsamples, buffers):
            firsts.append(k0)
            yield k0, block

    def stepped(*args):
        # every damped path steps through _band_blocks; count only band 0's
        # blocks, those the certificate steps inside _stepped_band0
        with monkeypatch.context() as inside:
            inside.setattr(lindblad, "_band_blocks", spy)
            return stepped_band0(*args)

    with monkeypatch.context() as patched:
        patched.setattr(lindblad, "_stepped_band0", stepped)
        flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert firsts == [0, BLOCK_STEPS, 2 * BLOCK_STEPS]
    full = rk4_evolve(L, rho0, t_final, dt)
    assert flagged.purity.size == len(flagged) == len(full)
    assert flagged.a_expect.tobytes() == full.a_expect.tobytes()


@pytest.mark.parametrize("dim", [56, 60])
def test_damped_amplitude_only_falls_back_to_the_full_runs_error(dim):
    # the old automatic step leaves fig2b's far bands unstable at these dims:
    # the exact prefix's purity fails, and the full run names the first failing sample
    L, rho0, t_final, dt = preset_run("fig2b", dim=dim, dt=UNSTABLE_DT[dim])
    raised = []
    for flag in (False, True):
        with pytest.raises(Exception) as failed:
            rk4_evolve(L, rho0, t_final, dt, amplitude_only=flag)
        raised.append((type(failed.value), str(failed.value)))
    assert raised[0][0] is StabilityError
    assert raised[1] == raised[0]


@needs_fork
def test_certified_damped_run_forks_nothing(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    L, rho0, t_final, dt = preset_run("fig8", state_n=1)
    flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert flagged.purity.size == 0
    assert forks == []
    # refused, the same run forks its band child
    refuse_certificates(monkeypatch)
    full = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert full.purity.size == len(full)
    assert forks == [1]
    no_child_left()
    assert full.a_expect.tobytes() == flagged.a_expect.tobytes()


def test_undamped_runs_build_no_dense_generators(monkeypatch):
    # gamma = 0 reads the band diagonals alone, on the full path and the
    # band-1 one; a damped run, flagged or not, still builds every M_q
    set_cpus(monkeypatch, 1)
    L, rho0, t_final, dt = steps_run(CHUNK + 1)

    def dense():
        raise AssertionError("an undamped run built the band generators")

    monkeypatch.setattr(L, "band_generators", dense)
    full = rk4_evolve(L, rho0, t_final, dt)
    band1 = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert len(full.purity) == CHUNK + 2 and len(band1.purity) == 0
    assert band1.a_expect.tobytes() == full.a_expect.tobytes()
    L, rho0, t_final, dt = steps_run(BLOCK_STEPS + 1, gamma=1e-3)
    built, build = [], L.band_generators
    monkeypatch.setattr(L, "band_generators", lambda: built.append(1) or build())
    for flag in (False, True):
        rk4_evolve(L, rho0, t_final, dt, amplitude_only=flag)
    assert built == [1, 1]


@pytest.mark.parametrize("dim", [60, 70])
def test_amplitude_only_falls_back_to_the_full_runs_error(dim):
    # the old automatic step leaves fig2a's far bands unstable at these dims:
    # the closed-form purity fails, and the full run names the first failing sample
    L, rho0, t_final, dt = preset_run("fig2a", dim=dim, dt=UNSTABLE_DT[dim])
    raised = []
    for flag in (False, True):
        with pytest.raises(Exception) as failed:
            rk4_evolve(L, rho0, t_final, dt, amplitude_only=flag)
        raised.append((type(failed.value), str(failed.value)))
    assert raised[0][0] is StabilityError
    assert raised[1] == raised[0]


#: How far inside its gate each near-gate value sits: half the certificate's
#: margin, where a certificate must refuse, then twice it, where it passes.
NEAR_GATE = (CERTIFICATE_MARGIN / 2, 2 * CERTIFICATE_MARGIN)


@pytest.mark.parametrize("gate", ["trace", "top", "first_purity", "last_purity"])
def test_certified_keeps_the_margin_inside_each_gate(gate):
    # a dim-2 state, band 0 (p0, p1) and band 1 (c) stacked, with band 1's
    # step factor r; one value at a time sits near its gate, the rest far
    # inside theirs. The purity's ends are P(0) = 1 + 2|c|^2 and
    # P(N-1) = 1 + 2|c|^2 |r|^(2(N-1)), checked with their rounding allowance
    from revivals.lindblad import _certified, _rounding

    nsamples, top_limit = 3, 0.5
    verdicts = []
    for inside in NEAR_GATE:
        purity = (1.0 + TRACE_TOLERANCE - inside) / (1.0 + _rounding(nsamples, 2))
        c, r = math.sqrt((purity - 1.0) / 2.0), 0.5
        p0, p1 = 1.0, 0.0
        if gate == "trace":
            p0, c = 1.0 - TRACE_TOLERANCE + inside, 0.0
        elif gate == "top":
            p1, c = top_limit - inside, 0.0
            p0 = 1.0 - p1
        elif gate == "last_purity":  # band 1 grows to the last sample
            r = 1.5
            c /= r ** (nsamples - 1)
        x = np.array([p0, p1, c], dtype=complex)
        verdicts.append(_certified(x, np.array([1.0, 1.0, r], dtype=complex), 2, nsamples,
                                   top_limit) is not None)
    assert verdicts == [False, True]


def test_damped_amplitude_keeps_the_margin_inside_the_purity_gate(monkeypatch):
    # the stepped-band-0 branch: a dim-2 run whose band 0 stands still at
    # (1, 0), so its trace, sum(x_0^2) = 1 and top level pass, and whose
    # block past the prefix has a stand-in bound from bands 1..D-1 that
    # brings the sum near the gate, with its rounding allowance; the
    # closed-form gates are refused
    from revivals import lindblad

    nsamples, d = PREFIX_BLOCKS * BLOCK_STEPS + 3, 2
    gens = [np.zeros((2, 2)), np.zeros((1, 1), dtype=complex)]
    band0 = list(lindblad._squares(_rk4_step(gens[0], 0.1)))
    x0 = [np.array([1.0, 0.0]), np.zeros(1, dtype=complex)]
    monkeypatch.setattr(lindblad, "_closed_form_gates", lambda *args: False)
    verdicts = []
    for inside in NEAR_GATE:
        bound = (1.0 + TRACE_TOLERANCE - inside) / (1.0 + lindblad._rounding(nsamples, d))
        starts = np.zeros((2, PREFIX_BLOCKS + 1))
        starts[1, -1] = bound - 1.0  # exact, and 1.0 + it is bound again
        monkeypatch.setattr(lindblad, "_purity_parts", lambda *args, starts=starts: (
            np.zeros((2, PREFIX_BLOCKS, BLOCK_STEPS)), starts))
        verdicts.append(lindblad._damped_amplitude(
            band0, gens, x0, 0.1, 0.1 * np.arange(nsamples), 0.5,
            np.empty(nsamples, dtype=complex)) is not None)
    assert verdicts == [False, True]


def test_closed_form_branch_keeps_the_margin_inside_the_purity_gate(monkeypatch):
    # the closed-form branch: a dim-3 run whose first block past the prefix
    # has a stand-in purity bound near the gate, with its rounding allowance;
    # band 1 is zero, the closed-form gates pass and stepping band 0 is refused
    from revivals import lindblad

    nsamples, d = PREFIX_BLOCKS * BLOCK_STEPS + 3, 3
    gens = make_liouvillian(d, gamma=1e-3).band_generators()
    band0 = list(lindblad._squares(_rk4_step(gens[0], 0.1)))
    x0 = [np.array([1.0, 0.0, 0.0]), np.zeros(2, dtype=complex), np.zeros(1, dtype=complex)]
    monkeypatch.setattr(lindblad, "_stepped_band0", lambda *args: False)
    verdicts = []
    for inside in NEAR_GATE:
        starts = np.zeros((2, PREFIX_BLOCKS + 1))
        starts[0, -1] = (1.0 + TRACE_TOLERANCE - inside) / (1.0 + lindblad._rounding(nsamples, d))
        monkeypatch.setattr(lindblad, "_purity_parts", lambda *args, starts=starts: (
            np.zeros((2, PREFIX_BLOCKS, BLOCK_STEPS)), starts))
        verdicts.append(lindblad._damped_amplitude(
            band0, gens, x0, 0.1, 0.1 * np.arange(nsamples), 0.5,
            np.empty(nsamples, dtype=complex)) is not None)
    assert verdicts == [False, True]


@pytest.mark.parametrize("defect", [None, "column_sums", "last_row"])
def test_closed_form_gates_refuse_a_stand_in_step(defect):
    # a dim-3 band 0 whose stand-in step R_0 moves population down: its
    # columns sum to 1, and its last row is zero off the diagonal. Column
    # sums off by 1e-9 would drift the trace by ~1e-5 over the run's 99
    # block products; a last row nonzero off the diagonal feeds the top level
    from revivals.lindblad import _closed_form_gates, _squares

    r = np.array([[1.0, 0.01, 0.0], [0.0, 0.99, 0.01], [0.0, 0.0, 0.99]])
    if defect == "column_sums":
        r[0, 0] += 1e-9
    elif defect == "last_row":
        r[1, 1], r[2, 1] = 0.98, 0.01
    x = np.array([0.5, 0.3, 0.2])
    got = _closed_form_gates(list(_squares(r)), x, 100 * BLOCK_STEPS,
                             top_limit=x[-1] + TOP_LEVEL_TOLERANCE) is not None
    assert got is (defect is None)


def test_closed_form_gates_keep_the_margin_inside_the_trace_gate():
    # R_0 = I keeps band 0 as it is; its trace sits near the gate, where the
    # drift bound is the start's distance plus the rounding allowance
    from revivals.lindblad import _closed_form_gates, _rounding, _squares

    nsamples, r = 3, _rounding(3, 3)
    verdicts = []
    for inside in NEAR_GATE:
        x0 = (1.0 - TRACE_TOLERANCE + inside) / (1.0 - (1.0 + r) * r)
        verdicts.append(_closed_form_gates(list(_squares(np.eye(3))), np.array([x0, 0.0, 0.0]),
                                           nsamples, top_limit=1.0) is not None)
    assert verdicts == [False, True]


def block_start_case(run):
    """A preset's damped run, or a damped dim-6 run from the maximally mixed
    state, whose sum(x_0^2) rises in every block as the vacuum fills."""
    if run != "mixed-d6":
        return preset_run(**DAMPED_AMPLITUDE_RUNS[run])
    L = make_liouvillian(6, gamma=0.02)
    dt = 2.0 ** math.floor(math.log2(0.1 / L.omega_max()))
    return L, DensityMatrix(L.space, np.eye(6) / 6), 4 * BLOCK_STEPS * dt, dt


@pytest.mark.parametrize("run", ["fig8-n1", "fig8-n10", "fig2b", "fig2d", "mixed-d6"])
def test_block_start_bound_holds_the_full_runs_purity(run):
    # the bound from every band's block starts sits at or above the full
    # run's purity record past the prefix, up to the rounding it allows, and
    # on it within that rounding in the prefix; so does the bound with band
    # 0 stepped, which is at most the block-start one up to that rounding.
    # fig2d's purity returns toward 1, and the mixed state's band 0 gains
    # purity inside every block
    from revivals.lindblad import _purity_parts, _rounding, _squares

    L, rho0, t_final, dt = block_start_case(run)
    full = rk4_evolve(L, rho0, t_final, dt)
    nsamples, dt = len(full), full.times[1]
    rounding = _rounding(nsamples, L.space.dim)
    gens = L.band_generators()
    with one_blas_thread():
        band0 = list(_squares(_rk4_step(gens[0], dt)))
        starts_bound = bound_per_sample(
            *_purity_parts(band0, gens, to_bands(rho0.matrix), dt, nsamples), nsamples)
    stepped, held = stepped_bound(L, rho0, full)
    assert held
    prefix = np.arange(nsamples) // BLOCK_STEPS < PREFIX_BLOCKS
    for bound in (starts_bound, stepped):
        assert np.all((np.abs(bound - full.purity) <= rounding * full.purity)[prefix])
        assert np.all((bound * (1.0 + rounding) >= full.purity)[~prefix])
    assert np.all(stepped <= starts_bound * (1.0 + rounding))
    if run == "mixed-d6":
        assert np.all(np.diff(full.purity[BLOCK_STEPS * PREFIX_BLOCKS:]) > 0)


@pytest.mark.parametrize("run,branch", [
    ("fig8-n1", 1), ("fig8-n5", 1), ("fig8-n10", 1), ("fig2b", 1), ("fig2d", 2),
    ("fig1", None)])
def test_damped_amplitude_only_takes_the_first_tier_that_certifies(monkeypatch, run, branch):
    # the one certificate's branches: where band 0's gates hold in closed
    # form and the block-start bound holds (1, "block_starts"), band 1 is
    # stepped alone, so no band-0 stack of D rows is ever stepped per sample;
    # where either fails, band 0 is stepped alone (2, "stepped_band0",
    # ``_stepped_band0``). fig2d's purity returns toward 1 and needs band 0's
    # exact sum(x_0^2); fig1 steps band 0 and takes the full path (None)
    from revivals import lindblad

    name, _, n = run.partition("-n")
    L, rho0, t_final, dt = preset_run(name, **({"state_n": int(n)} if n else {}))
    d = L.space.dim
    rows, stepped = [], []
    powers, stepped_band0 = lindblad._powers, lindblad._stepped_band0

    def stepped_spy(*args):
        # the stepped band 0 is its second argument
        stepped.append(1)
        rows.append(len(args[1]))
        return stepped_band0(*args)

    def powers_spy(gens, dt):
        # the steps of the bands stepped whole: a certified run's band 1, and
        # on the full path its bands past 0; the purity bound's groups build
        # theirs without it
        rows.append(sum(len(m) for m in gens))
        return powers(gens, dt)

    monkeypatch.setattr(lindblad, "_powers", powers_spy)
    monkeypatch.setattr(lindblad, "_stepped_band0", stepped_spy)
    set_cpus(monkeypatch, 1)
    flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    if branch is None:
        assert flagged.purity.size == len(flagged) and stepped == [1]
        assert flagged.certificate is None
        return
    assert flagged.purity.size == 0
    assert flagged.certificate["branch"] == {1: "block_starts", 2: "stepped_band0"}[branch]
    assert stepped == ([1] if branch == 2 else [])
    # band 1 is stepped once, after band 0 where band 0 is stepped
    assert rows == ([d, d - 1] if branch == 2 else [d - 1])


@pytest.mark.parametrize("run,branch", [
    ("fig8-n1", "block_starts"), ("fig2d", "stepped_band0"), ("fig1", "full"),
    ("fig2b-gamma0.016", "full")])
def test_damped_amplitude_only_builds_band0_step_once(monkeypatch, run, branch):
    # band 0's step and its squares are built once and shared by the purity
    # bound's band-0 group, the closed-form gates, on fig2d the stepped band
    # 0 and, where the certificate fails, the full path. Band 0's generator
    # is the only real one; one process makes every call
    from revivals import lindblad

    L, rho0, t_final, dt = preset_run(**DAMPED_AMPLITUDE_PATHS[run][0])
    band0, rk4_step = [], lindblad._rk4_step

    def spy(m, dt):
        if m.ndim > 1 and not np.iscomplexobj(m):
            band0.append(m.shape)
        return rk4_step(m, dt)

    monkeypatch.setattr(lindblad, "_rk4_step", spy)
    set_cpus(monkeypatch, 1)
    flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert band0 == [(L.space.dim, L.space.dim)]
    if branch == "full":
        assert flagged.purity.size == len(flagged) and flagged.certificate is None
    else:
        assert flagged.purity.size == 0 and flagged.certificate["branch"] == branch


@pytest.mark.parametrize("run", ["fig2a", "fig2d", "fig8-n10", "fig2b-gamma0.016"])
def test_certificate_reports_its_branch_and_gaps(run):
    # a certified run names its branch and the narrowest gap to each gate,
    # all open; fig2d's purity bound, with band 0 stepped, comes about 1e-6
    # from the gate. The full path has no certificate
    L, rho0, t_final, dt = (preset_run("fig2a") if run == "fig2a"
                            else preset_run(**DAMPED_AMPLITUDE_PATHS[run][0]))
    flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    full = rk4_evolve(L, rho0, t_final, dt)
    assert full.certificate is None
    cert = flagged.certificate
    if run == "fig2b-gamma0.016":
        assert cert is None
        return
    branch = {"fig2a": "closed_form", "fig2d": "stepped_band0", "fig8-n10": "block_starts"}[run]
    assert cert["branch"] == branch
    assert set(cert) == {"branch", "purity_gap", "trace_gap", "top_gap"}
    assert min(cert["purity_gap"], cert["trace_gap"], cert["top_gap"]) > 0
    if run == "fig2d":
        assert cert["purity_gap"] < 1e-5
    if branch == "closed_form":
        return
    # a damped certificate's gaps are no wider than the full run's records
    # leave; band 0 stepped alone has the full run's trace bytes
    top_limit = float(rho0.matrix[-1, -1].real) + TOP_LEVEL_TOLERANCE
    trace_gap = TRACE_TOLERANCE - np.abs(full.trace - 1.0).max()
    assert cert["purity_gap"] <= 1.0 + TRACE_TOLERANCE - full.purity.max()
    assert cert["trace_gap"] <= trace_gap
    if branch == "stepped_band0":
        assert cert["trace_gap"] == trace_gap
    assert cert["top_gap"] <= top_limit - float(rho0.matrix[-1, -1].real)


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
        runs.append(rk4_evolve(ctx.liouvillian, ctx.rho0, 2.0,
                               dt=default_dt(ctx.liouvillian, ctx.rho0)))
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


# ---------------------------------------------------------------------------
# the band child of the damped path


TRAJECTORY_FIELDS = ("times", "a_expect", "n_expect", "trace", "purity", "final")


def assert_same_trajectory(got, want):
    for name in TRAJECTORY_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def damped_case(d):
    """A damped cubic ladder at dim d, a random mixed state and the largest step."""
    L = make_liouvillian(d, b=B2, k=3, gamma=2e-3)
    return L, _mixed(np.random.default_rng(d), d), 0.1 / L.omega_max()


def test_band_split_takes_the_largest_bands_up_to_the_share():
    from revivals.lindblad import BAND_CHILD_SHARE, _band_split

    for d in range(2, 80):
        k = _band_split(d)
        cost = (d - np.arange(d)) ** 2 / np.sum((d - np.arange(d)) ** 2)
        assert 2 <= k <= d
        assert cost[1:k - 1].sum() < BAND_CHILD_SHARE
        assert cost[1:k].sum() >= BAND_CHILD_SHARE or k == d


@needs_fork
@pytest.mark.parametrize("d", [2, 5, 12, 44])
def test_band_split_does_not_change_the_bytes(monkeypatch, forks, d):
    # the band child takes bands 1..k-1 for every k, forked and in the
    # caller's process; at k = d the caller's purity sum has no rows to add
    from revivals import lindblad

    L, rho0, dt = damped_case(d)
    t_final = (2 * BLOCK_STEPS + 44) * dt
    runs = {}
    for k in range(2, d + 1):
        monkeypatch.setattr(lindblad, "_band_split", lambda d, k=k: k)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            runs[k, cpus] = rk4_evolve(L, rho0, t_final, dt=dt)
    assert len(forks) == d - 1
    assert set(forks) == {1}
    no_child_left()
    want = runs[d, 1]
    assert len(want) == 2 * BLOCK_STEPS + 45
    for got in runs.values():
        assert_same_trajectory(got, want)


@needs_fork
@pytest.mark.parametrize("ngroups", [1, 2, 3, 8, 100])
@pytest.mark.parametrize("d", [2, 5, 44, 60])
def test_band_groups_deal_every_band_once(monkeypatch, forks, d, ngroups):
    # with ngroups usable CPUs, the caller and at most one band child share
    # a damped dim-d run's bands: every band comes out as the stage-wise
    # loop makes it
    L, rho0, dt = damped_case(d)
    t_final = 2 * BLOCK_STEPS * dt
    set_cpus(monkeypatch, ngroups)
    got = rk4_evolve(L, rho0, t_final, dt=dt)
    assert len(forks) == (ngroups > 1)
    no_child_left()
    want = reference_rk4(L, rho0, t_final, dt)
    for name in TRAJECTORY_FIELDS[1:]:
        err = np.abs(getattr(got, name) - getattr(want, name)).max()
        assert err <= 1e-12, (name, err)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_band_child_ignores_overflow(monkeypatch, forks, cpus):
    # the band products overflow from the first step; the block loop's
    # np.errstate holds in the band child's process too, so with warnings
    # as errors the trace gate still names the failure, forked or not
    L = make_liouvillian(12, gamma=1e-3)
    huge = [1e200 * m for m in L.band_generators()]
    monkeypatch.setattr(L, "band_generators", lambda: huge)
    set_cpus(monkeypatch, cpus)
    rho0 = density_from_pure(coherent_state(L.space, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StabilityError, match=r"^trace drifted to nan at t=0\.01;"):
            rk4_evolve(L, rho0, 3 * BLOCK_STEPS * 0.01, dt=0.01)
    assert len(forks) == cpus - 1
    no_child_left()


@needs_fork
def test_failed_damped_run_reaps_its_band_child(monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    # fig2b at dim 60, on the old automatic step, fails in the first block
    ctx = resolve(replace(load_preset("fig2b").config, dim=60, dt=UNSTABLE_DT[60]))
    with pytest.raises(StabilityError) as failed:
        evolve(ctx)
    assert str(failed.value) == ("purity 1.0000409021160646 outside (0, 1] at "
                                 "t=2.62155; reduce dt")
    no_child_left()
    # thermal pumping fills the top level in the second block
    L = make_liouvillian(6, b=0.0, gamma=2e-3, n_thermal=3.0, full=True)
    rho0 = density_from_pure(fock_state(FockSpace(6), 0))
    with pytest.raises(TruncationError) as failed:
        rk4_evolve(L, rho0, 400.0, dt=0.05)
    assert float(failure_time(failed)) > BLOCK_STEPS * 0.05
    assert forks == [1, 1]
    no_child_left()


@needs_fork
def test_band_child_that_exits_at_once_raises_oserror(monkeypatch):
    set_cpus(monkeypatch, 2)
    children_exit_at_once(monkeypatch, 3)
    from revivals.lindblad import _band_split

    L, rho0, dt = damped_case(12)
    with pytest.raises(OSError) as failed:
        rk4_evolve(L, rho0, 300 * dt, dt=dt)
    assert str(failed.value) == (f"the band child propagating bands 1..{_band_split(12) - 1} "
                                 f"sent 0 of {32 * BLOCK_STEPS} bytes")
    no_child_left()


@needs_fork
def test_band_child_inside_a_slice_but_not_beside_a_thread(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    L, rho0, dt = damped_case(12)
    alone = rk4_evolve(L, rho0, 300 * dt, dt=dt)
    assert len(forks) == 1

    def run(i):
        # the band forks of this slice's process, the child's too
        before = len(forks)
        traj = rk4_evolve(L, rho0, 300 * dt, dt=dt)
        return len(forks) - before, traj

    # a slice sees the affinity mask, so the run in each forks a band child
    done = run_slices(run, 2, "two runs")
    assert len(forks) == 3  # the second slice's child, the first's band child
    assert [n for n, _ in done] == [1, 1]
    no_child_left()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        beside = rk4_evolve(L, rho0, 300 * dt, dt=dt)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert len(forks) == 3
    no_child_left()
    for traj in [traj for _, traj in done] + [beside]:
        assert_same_trajectory(traj, alone)


def seeded_case(seed):
    """Dim 2-10, ladder order 1-3, b over 1e-4..1e-1, a random mixed state,
    and in turn no damping, gamma over 1e-4..1e-1, a thermal bath and a
    thermal bath under the full equation; the step count sits at one
    block edge or at 32 blocks."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    L = make_liouvillian(int(rng.integers(2, 11)), b=float(10 ** rng.uniform(-4, -1)),
                         k=int(rng.integers(1, 4)),
                         gamma=0.0 if kind == 0 else float(10 ** rng.uniform(-4, -1)),
                         n_thermal=float(rng.uniform(0.5, 10.0)) if kind >= 2 else 0.0,
                         full=kind == 3)
    # populations that fall off by a random rate up the ladder, so that a
    # hot bath under the full equation may overfill the top level
    w = np.exp(-rng.uniform(0.0, 1.5) * np.arange(L.space.dim))
    rho = w[:, None] * random_density(rng, L.space.dim) * w[None, :]
    rho0 = DensityMatrix(L.space, rho / np.trace(rho).real)
    nsteps = int(rng.choice([127, 128, 129, 4095, 4096, 4097]))
    dt = float(rng.uniform(0.2, 1.0)) * 0.1 / L.omega_max()
    return L, rho0, nsteps * dt, dt


def near_gate_case(seed):
    """A coherent state at dim 40-60, on a Kerr or cubic ladder, under
    damping over 1e-4..1e-2 with no bath, a thermal bath, or a thermal bath
    under the full equation, in turn. The step puts the fastest band's
    phase per step at 2.6-3.1, which brackets RK4's stability edge on the
    imaginary axis (2 sqrt 2), unless dt * Omega_max = 0.1 caps it first;
    the run lasts two to six blocks."""
    rng = np.random.default_rng(seed)
    kind, k = seed % 3, int(rng.integers(2, 4))
    b = float(10 ** (rng.uniform(-4, -2.5) if k == 2 else rng.uniform(-5, -3.5)))
    L = make_liouvillian(int(rng.integers(40, 61)), b=b, k=k,
                         gamma=float(10 ** rng.uniform(-4, -2)),
                         n_thermal=float(rng.uniform(0.05, 0.5)) if kind else 0.0,
                         full=kind == 2)
    rho0 = density_from_pure(coherent_state(L.space, complex(*rng.uniform(-2.5, 2.5, 2))))
    fastest = max(np.abs(diag.imag).max() for diag in L.band_diagonals()[1:])
    dt = min(float(rng.uniform(2.6, 3.1)) / fastest, 0.1 / L.omega_max())
    nsteps = int(rng.choice([2 * BLOCK_STEPS + 1, 4 * BLOCK_STEPS, 6 * BLOCK_STEPS - 1]))
    return L, rho0, nsteps * dt, dt


def outcome(run):
    try:
        return run()
    except (StabilityError, TruncationError) as exc:
        return exc


@needs_fork
@pytest.mark.parametrize("seed", range(40))
def test_rk4_matches_stage_loop_on_seeded_configs(monkeypatch, seed):
    L, rho0, t_final, dt = seeded_case(seed)
    runs = []
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        runs.append(outcome(lambda: rk4_evolve(L, rho0, t_final, dt=dt)))
    want = outcome(lambda: reference_rk4(L, rho0, t_final, dt))
    if isinstance(want, Exception):
        # the same gate fails at the same sample
        for got in runs:
            assert type(got) is type(want), got
            assert failure_time(got) == failure_time(want)
        return
    forked, in_process = runs
    assert isinstance(forked, Trajectory) and isinstance(in_process, Trajectory)
    assert_same_trajectory(forked, in_process)
    np.testing.assert_array_equal(forked.times, want.times)
    for name in TRAJECTORY_FIELDS[1:]:
        err = np.abs(getattr(forked, name) - getattr(want, name)).max()
        assert err <= 1e-11, (name, err)


@needs_fork
@pytest.mark.parametrize("seed", range(60))
def test_amplitude_only_matches_the_full_run_on_seeded_configs(monkeypatch, seed):
    # both certificates decide against the full run: a run the full path fails
    # fails the same way with the flag, and a run it finishes gives the same
    # times and <a>, with the other records empty where the flagged run was
    # certified and equal to the full run's where it fell back. Seeds 40-59
    # are near-gate cases: some raise, some certify and some fall back
    L, rho0, t_final, dt = seeded_case(seed) if seed < 40 else near_gate_case(seed)
    full = outcome(lambda: rk4_evolve(L, rho0, t_final, dt=dt))
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        flagged = outcome(lambda: rk4_evolve(L, rho0, t_final, dt=dt, amplitude_only=True))
        if isinstance(full, Exception):
            assert (type(flagged), str(flagged)) == (type(full), str(full))
            continue
        assert isinstance(flagged, Trajectory), flagged
        assert flagged.times.tobytes() == full.times.tobytes()
        assert flagged.a_expect.tobytes() == full.a_expect.tobytes()
        if flagged.purity.size:
            assert_same_trajectory(flagged, full)
        else:
            for name in ("n_expect", "trace", "final"):
                assert getattr(flagged, name).size == 0, name
