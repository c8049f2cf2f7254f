import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from revivals import (DampingSpec, FockSpace, build_hamiltonian, coherent_state,
                      damped_linear_expect_a, diagonal_h_fock_sum_expect_a,
                      displaced_number_state, displacement_matrix_element,
                      kerr_expect_a_closed_form, superoperator_evolve)
from revivals.reference import _genlaguerre

from conftest import ALPHA, B1, B2, OMEGA0, fock_state


def test_damped_linear_at_zero():
    assert damped_linear_expect_a(ALPHA, OMEGA0, 1e-3, 0.0, 0.0) == ALPHA


def test_damped_linear_gamma_zero_preserves_modulus():
    for t in (0.0, 17.3, 400.0):
        assert abs(damped_linear_expect_a(ALPHA, OMEGA0, 0.0, 0.0, t)) == pytest.approx(
            abs(ALPHA), rel=1e-15)


def test_damped_linear_fifteen_periods():
    # 15 classical periods of the bare oscillator = 400 a.u.
    t = 15 * 2 * math.pi / OMEGA0
    assert t == pytest.approx(400.0, abs=1e-12)
    value = damped_linear_expect_a(ALPHA, OMEGA0, 1e-3, 0.0, t)
    assert abs(value) == pytest.approx(1.5555884308481653, rel=1e-14)


def test_damped_linear_thermal_rate():
    v = damped_linear_expect_a(ALPHA, OMEGA0, 1e-3, 1.5, 100.0)
    assert abs(v) == pytest.approx(abs(ALPHA) * math.exp(-0.5 * 1e-3 * 2.5 * 100.0),
                                   rel=1e-14)


@pytest.mark.parametrize("full", [False, True])
def test_superoperator_two_level_thermal_decay(full):
    # two levels, downward rate g = gamma (N+1), upward u = gamma N with the
    # full equation (the truncated a a+ annihilates level 1): the population
    # relaxes to u / (g + u) at rate g + u, the coherence turns at the level
    # spacing w and decays at half that rate
    gamma, n_th, t, w = 2e-3, 0.5, 300.0, 0.3
    g, u = gamma * (n_th + 1.0), (gamma * n_th if full else 0.0)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = superoperator_evolve(np.array([0.0, w]), DampingSpec(gamma, n_th, full),
                               rho0, t)
    p1 = u / (g + u) + (0.5 - u / (g + u)) * math.exp(-(g + u) * t)
    assert rho[1, 1].real == pytest.approx(p1, rel=1e-12)
    assert rho[1, 0] == pytest.approx(0.5 * np.exp(-(1j * w + 0.5 * (g + u)) * t),
                                      rel=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_kerr_at_zero():
    assert kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, 0.0) == ALPHA


def test_kerr_full_revival_modulus():
    t = math.pi / B1  # t_rev / 2
    assert abs(kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, t)) == pytest.approx(
        abs(ALPHA), rel=1e-12)


def test_kerr_mid_collapse():
    t = math.pi / (2 * B1)  # t_rev / 4
    expected = abs(ALPHA) * math.exp(abs(ALPHA) ** 2 * (math.cos(math.pi) - 1.0))
    assert expected == pytest.approx(0.0013904245958728982, rel=1e-12)
    assert abs(kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, t)) == pytest.approx(
        expected, rel=1e-10)


def test_kerr_modulus_periodicity():
    ts = np.linspace(0, 200.0, 50)
    period = math.pi / B1
    a0 = np.abs(kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, ts))
    a1 = np.abs(kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, ts + period))
    np.testing.assert_allclose(a0, a1, atol=1e-12)


def test_fock_sum_reduces_to_linear():
    space = FockSpace(30)
    h = build_hamiltonian(space, OMEGA0, 0.0, 2)
    state = coherent_state(space, ALPHA)
    for t in (0.0, 3.7, 120.0):
        assert diagonal_h_fock_sum_expect_a(state, h, t) == pytest.approx(
            ALPHA * np.exp(-1j * OMEGA0 * t), abs=1e-10)


def test_fock_sum_matches_kerr_closed_form():
    space = FockSpace(40)
    h = build_hamiltonian(space, OMEGA0, B1, 2)
    state = coherent_state(space, ALPHA)
    for t in (0.0, 57.0, 311.0, 628.3, 1256.6):
        assert diagonal_h_fock_sum_expect_a(state, h, t) == pytest.approx(
            complex(kerr_expect_a_closed_form(ALPHA, OMEGA0, B1, t)), abs=1e-12)


def test_fock_sum_super_revival_displaced():
    # at t_sr all nonlinear phases are 2 pi integers; only the common linear
    # e^{-i w0 t} phase remains, so the rotating-frame value returns exactly
    space = FockSpace(34)
    h = build_hamiltonian(space, OMEGA0, B2, 3)
    state = displaced_number_state(space, ALPHA, 1)
    t_sr = 2 * math.pi / B2
    rotated = diagonal_h_fock_sum_expect_a(state, h, t_sr) * np.exp(1j * OMEGA0 * t_sr)
    assert rotated == pytest.approx(diagonal_h_fock_sum_expect_a(state, h, 0.0),
                                    abs=1e-10)


def test_fock_sum_number_state_is_zero():
    space = FockSpace(12)
    h = build_hamiltonian(space, OMEGA0, B2, 3)
    state = fock_state(space, 5)
    for t in (0.0, 1.0, 99.0):
        assert diagonal_h_fock_sum_expect_a(state, h, t) == 0.0


def test_displacement_element_ground():
    assert displacement_matrix_element(0, 0, ALPHA) == pytest.approx(
        0.1644744565771549, rel=1e-14)


def test_displacement_element_identity_at_zero():
    for m in range(4):
        for n in range(4):
            want = 1.0 if m == n else 0.0
            assert displacement_matrix_element(m, n, 0.0) == pytest.approx(want, abs=0)


def test_displacement_element_column_norm():
    for n in range(6):
        total = sum(abs(displacement_matrix_element(m, n, ALPHA)) ** 2
                    for m in range(61))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_displacement_element_symmetry():
    for (m, n) in [(0, 3), (2, 5), (1, 7)]:
        direct = displacement_matrix_element(m, n, ALPHA)
        via_symmetry = np.conj(displacement_matrix_element(n, m, -ALPHA))
        assert direct == pytest.approx(complex(via_symmetry), rel=1e-13)


def test_displacement_element_overflow_guard():
    with pytest.raises(OverflowError):
        displacement_matrix_element(171, 0, ALPHA)


@pytest.mark.parametrize("n,k", [(0, 0), (1, 2), (5, 0), (12, 3), (40, 7)])
def test_genlaguerre_recurrence_against_scipy(n, k):
    for x in (0.0, 0.5, 3.61, 10.0):
        assert _genlaguerre(n, k, x) == pytest.approx(
            float(eval_genlaguerre(n, k, x)), rel=1e-10, abs=1e-10)
