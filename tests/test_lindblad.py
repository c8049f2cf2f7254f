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
from revivals.lindblad import (AMPLITUDE_CHUNK_BLOCKS, BLOCK_STEPS, CERTIFICATE_MARGIN,
                               CHUNK_BLOCKS, TOP_LEVEL_TOLERANCE, TRACE_TOLERANCE,
                               Trajectory, _rk4_step, default_dt, expect_a_raw,
                               expect_n_raw, to_bands)
from revivals.runner import evolve, resolve

from conftest import (ALPHA, B1, B2, OMEGA0, children_exit_at_once, fock_state,
                      needs_fork, no_child_left, random_density, random_hermitian,
                      refuse_certificates, set_cpus)


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


def per_block_diagonal_blocks(diags, x0, dt, nsamples):
    """The undamped block generator with one block per loop pass.

    diags are the diagonals of the band generators. The observables of each
    block are vector-matrix products of its start state with the table of
    r^j; the chunked generator must give their bytes.
    """
    d = len(diags)
    nb = BLOCK_STEPS
    x = np.concatenate(x0)
    p = _rk4_step(np.concatenate(diags), dt)
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


def per_block_amplitude_blocks(gens, x0, dt, nsamples):
    """The damped amplitude-only block generator with one block per loop pass
    and one band at a time for bands 2..D-1.

    Bands 0 and 1 run through the same block products, and each block is
    read on its own samples; the chunked generator must give the bytes of
    <a>, the trace, sum(x_0^2) and the top level, and the bound up to
    ``_rounding``. Band q >= 2 runs unpadded, its g_q from
    nu(A) = sqrt(||A||_1 ||A||_inf) of R_q, R_q^2, ..., R_q^(B/2).
    """
    from revivals.lindblad import (PREFIX_BLOCKS, _abs2, _band_states, _powers, _ring,
                                   _squares)

    d = len(gens)
    nb = BLOCK_STEPS
    nblocks = -(-nsamples // nb)
    nexact = min(nblocks, PREFIX_BLOCKS)
    exact = np.zeros(nexact * nb)
    starts = np.zeros(nblocks)
    for m, x in zip(gens[2:], x0[2:]):
        powers = list(_squares(_rk4_step(m, dt)))
        for i, block in enumerate(_band_states([powers], [x], nexact, _ring([x], complex))):
            exact[i * nb:(i + 1) * nb] += _abs2(block)
        nu = [np.sqrt(np.abs(p).sum(axis=0).max() * np.abs(p).sum(axis=1).max())
              for p in powers[:-1]]
        g = np.prod(np.maximum(1.0, nu)) ** 2
        ys = _band_states([_squares(powers[-1])], [x], -(-nblocks // nb), _ring([x], complex))
        for i, y in zip(range(0, nblocks, nb), ys):
            n = min(nb, nblocks - i)
            starts[i:i + n] += g * _abs2(y[:, :n])
    sqrt_n = np.sqrt(np.arange(1.0, d))
    pops = _band_states(_powers(gens[:1], dt), x0[:1], nblocks, _ring(x0[:1], float))
    ones = _band_states(_powers(gens[1:2], dt), x0[1:2], nblocks, _ring(x0[1:2], complex))
    for i, pop, x1 in zip(range(nblocks), pops, ones):
        k0 = i * nb
        count = min(nb, nsamples - k0)
        pop, x1 = pop[:, :count], x1[:, :count]
        low = np.einsum("ij,ij->j", pop, pop)
        bound = low + 2.0 * _abs2(x1)
        if i < nexact:
            bound += 2.0 * exact[k0:k0 + count]
        else:
            bound = np.full(count, bound.max() + 2.0 * starts[i])
        yield sqrt_n @ x1, pop.sum(axis=0), low, bound, pop[-1]


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

    diags, x0 = L.band_diagonals(), to_bands(np.asarray(rho0.matrix))
    got = drain(lindblad._diagonal_blocks(diags, x0, dt, nsamples))
    want = drain(per_block_diagonal_blocks(diags, x0, dt, nsamples))
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


# rk4_evolve(amplitude_only=True) on a damped run: bands 0 and 1 in full, the
# purity bounded from the other bands' block starts past an exact prefix

DAMPED_AMPLITUDE_RUNS = {
    "fig2b": dict(name="fig2b"),
    "fig2d": dict(name="fig2d"),
    "fig8-n1": dict(name="fig8", state_n=1),
    "fig8-n10": dict(name="fig8", state_n=10),
}


@pytest.mark.parametrize("run", list(DAMPED_AMPLITUDE_RUNS))
def test_damped_amplitude_only_gives_the_full_runs_amplitude_bytes(run):
    L, rho0, t_final, dt = preset_run(**DAMPED_AMPLITUDE_RUNS[run])
    full = rk4_evolve(L, rho0, t_final, dt)
    flagged = rk4_evolve(L, rho0, t_final, dt, amplitude_only=True)
    assert flagged.times.tobytes() == full.times.tobytes()
    assert flagged.a_expect.tobytes() == full.a_expect.tobytes()
    # certified: the records that read the other bands stay empty
    for name in ("n_expect", "trace", "purity", "final"):
        assert getattr(flagged, name).size == 0, name


@pytest.mark.parametrize("run", ["fig2b", "fig2d", "fig8-n10"])
def test_damped_purity_bound_holds_the_full_runs_purity(run):
    # every block the certificate passes bounds the full run's own purity
    # record from above, up to the rounding the certificate allows: fig2d's
    # far bands decay toward the vacuum until the bound meets the purity. The
    # exact prefix sums the purity in another order, so there the bound is
    # the purity up to that rounding. The trace and <a> are the full run's.
    # fig2d is the tight case: its purity returns toward 1, and it ends about
    # 1e-6 inside the gate
    from revivals.lindblad import PREFIX_BLOCKS, _amplitude_blocks, _rounding

    L, rho0, t_final, dt = preset_run(**DAMPED_AMPLITUDE_RUNS[run])
    full = rk4_evolve(L, rho0, t_final, dt)
    nsamples, d = len(full), L.space.dim
    rounding = _rounding(nsamples, d)
    limit = (1.0 + TRACE_TOLERANCE - CERTIFICATE_MARGIN) / (1.0 + rounding)
    blocks = _amplitude_blocks(L.band_generators(), to_bands(rho0.matrix), full.times[1],
                               nsamples)
    k0, headroom = 0, []
    for a, trace, low, bound, top in blocks:
        blk = slice(k0, k0 + len(a))
        purity = full.purity[blk]
        prefix = np.arange(k0, k0 + len(a)) // BLOCK_STEPS < PREFIX_BLOCKS
        assert np.all(bound <= limit), k0
        assert np.all((np.abs(bound - purity) <= rounding * purity)[prefix]), k0
        assert np.all((bound * (1.0 + rounding) >= purity)[~prefix]), k0
        assert np.all(low <= purity), k0
        assert trace.tobytes() == full.trace[blk].tobytes()
        assert a.tobytes() == full.a_expect[blk].tobytes()
        headroom.append(1.0 + TRACE_TOLERANCE - bound.max())
        k0 += len(a)
    assert k0 == nsamples
    if run == "fig2d":
        assert 0.5e-6 < headroom[-1] < 1.5e-6


AMPLITUDE_CHUNK = AMPLITUDE_CHUNK_BLOCKS * BLOCK_STEPS


@pytest.mark.parametrize("nsamples", [
    1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, AMPLITUDE_CHUNK - 1, AMPLITUDE_CHUNK,
    AMPLITUDE_CHUNK + 1, 2 * AMPLITUDE_CHUNK + 77])
@pytest.mark.parametrize("d", [2, 3, 14, 40])
def test_chunked_amplitude_blocks_match_per_block_loop(d, nsamples):
    # dim 2 has no band past 1, dim 3 one group of band 2 alone; at dim 14
    # the groups stack 5 and 7 padded bands, and at dim 40 bands 2..7 fill
    # a group each
    from revivals.lindblad import _amplitude_blocks, _band_groups, _rounding

    L, rho0, _ = damped_case(d)
    dt = 2.0 ** math.floor(math.log2(0.1 / L.omega_max()))  # t_final / dt is exact
    gens, x0 = L.band_generators(), to_bands(rho0.matrix)
    assert [g.stop - g.start for g in _band_groups(d)][:6] == {
        2: [], 3: [1], 14: [5, 7], 40: [1] * 6}[d]

    def drain(blocks):
        # <a>, trace, sum(x_0^2), purity bound, top level
        cols = [[] for _ in range(5)]
        for values in blocks:
            for col, v in zip(cols, values):
                col.append(np.array(v))
        return [np.concatenate(c) for c in cols]

    with one_blas_thread():
        got = drain(_amplitude_blocks(gens, x0, dt, nsamples))
        want = drain(per_block_amplitude_blocks(gens, x0, dt, nsamples))
    assert len(got[0]) == nsamples
    for name, g, w in zip(("a", "trace", "low", "bound", "top"), got, want):
        if name == "bound":
            assert np.all(np.abs(g - w) <= _rounding(nsamples, d) * w), name
        else:
            assert g.tobytes() == w.tobytes(), name
    if nsamples == 1:
        return  # rk4_evolve takes at least one step
    full = rk4_evolve(L, rho0, (nsamples - 1) * dt, dt=dt)
    flagged = rk4_evolve(L, rho0, (nsamples - 1) * dt, dt=dt, amplitude_only=True)
    assert flagged.purity.size == 0  # certified
    assert flagged.a_expect.tobytes() == full.a_expect.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("dim", [56, 60])
def test_damped_amplitude_only_falls_back_to_the_full_runs_error(dim):
    # the automatic step leaves fig2b's far bands unstable at these dims: the
    # exact prefix's purity fails, and the full run names the first failing sample
    L, rho0, t_final, dt = preset_run("fig2b", dim=dim)
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
    # the automatic step leaves fig2a's far bands unstable at these dims: the
    # closed-form purity fails, and the full run names the first failing sample
    L, rho0, t_final, dt = preset_run("fig2a", dim=dim)
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
                                   top_limit))
    assert verdicts == [False, True]


def test_damped_amplitude_keeps_the_margin_inside_the_purity_gate(monkeypatch):
    # one block of stand-in records whose purity bound sits near the gate,
    # with its rounding allowance; the trace, sum(x_0^2) and top level pass
    from revivals import lindblad

    nsamples, d = 3, 2
    verdicts = []
    for inside in NEAR_GATE:
        bound = (1.0 + TRACE_TOLERANCE - inside) / (1.0 + lindblad._rounding(nsamples, d))
        block = (np.ones(nsamples, dtype=complex), np.ones(nsamples), np.full(nsamples, 0.5),
                 np.full(nsamples, bound), np.zeros(nsamples))
        monkeypatch.setattr(lindblad, "_amplitude_blocks", lambda *args: iter([block]))
        verdicts.append(lindblad._damped_amplitude(
            [None] * d, None, 0.1, 0.1 * np.arange(nsamples), 0.5,
            np.empty(nsamples, dtype=complex)))
    assert verdicts == [False, True]


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
    # fig2b at dim 60 fails in the first block
    ctx = resolve(replace(load_preset("fig2b").config, dim=60))
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
@pytest.mark.parametrize("seed", range(40))
def test_amplitude_only_matches_the_full_run_on_seeded_configs(monkeypatch, seed):
    # both certificates decide against the full run: a run the full path fails
    # fails the same way with the flag, and a run it finishes gives the same
    # times and <a>, with the other records empty where the flagged run was
    # certified and equal to the full run's where it fell back
    L, rho0, t_final, dt = seeded_case(seed)
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
