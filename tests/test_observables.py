import numpy as np
import pytest

from revivals import coherent_state, density_from_pure, displaced_number_state
from revivals.lindblad import expect_a_raw, expect_n_raw

from conftest import ALPHA, fock_state


def test_coherent_amplitude_expectation(space30):
    rho = density_from_pure(coherent_state(space30, ALPHA))
    assert expect_a_raw(rho.matrix) == pytest.approx(ALPHA, abs=1e-10)


def test_number_state_amplitude_is_zero(space30):
    rho = density_from_pure(fock_state(space30, 6))
    assert expect_a_raw(rho.matrix) == 0.0


def test_displaced_number_photon_number(space30):
    rho = density_from_pure(displaced_number_state(space30, ALPHA, 3))
    assert expect_n_raw(rho.matrix) == pytest.approx(abs(ALPHA) ** 2 + 3, abs=1e-9)


def test_purity_decreases_across_revivals(space30):
    # coarse monotonicity: purity sampled at successive revival instants falls
    # in the dephasing-dominated regime gamma * t << 1 (at strong damping the
    # state re-purifies toward the vacuum instead)
    import math
    from revivals import DampingSpec, build_hamiltonian, build_liouvillian, rk4_evolve

    h = build_hamiltonian(space30, 0.15 * math.pi / 2, 0.005, 2)
    L = build_liouvillian(h, DampingSpec(gamma=1e-4))
    rho0 = density_from_pure(coherent_state(space30, ALPHA))
    t_rev = 2 * math.pi / 0.005
    traj = rk4_evolve(L, rho0, 1.55 * t_rev)
    samples = []
    for k in (1, 2, 3):
        idx = int(np.argmin(np.abs(traj.times - k * t_rev / 2)))
        samples.append(traj.purity[idx])
    assert samples[0] > samples[1] > samples[2]
    assert samples[0] < 1.0
