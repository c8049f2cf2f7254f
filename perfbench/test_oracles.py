"""The benchmark's own oracles against the program's reference functions.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_oracles.py``.
"""

import math

import numpy as np
import pytest

from revivals.fock import FockSpace, displaced_number_state
from revivals.hamiltonian import build_hamiltonian
from revivals.reference import (damped_linear_expect_a, diagonal_h_fock_sum_expect_a,
                                kerr_expect_a_closed_form)

import oracles

OMEGA0 = 0.15 * math.pi / 2
ALPHA = -1.9
T = np.linspace(0.0, 2764.6, 401)


@pytest.mark.parametrize("gamma", [0.0, 1e-14])
def test_damped_kerr_reduces_to_undamped_kerr(gamma):
    got = oracles.damped_kerr_expect_a(ALPHA, OMEGA0, 0.005, gamma, T)
    want = kerr_expect_a_closed_form(ALPHA, OMEGA0, 0.005, T)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize("b", [0.0, 1e-13])
def test_damped_kerr_reduces_to_damped_linear(b):
    got = oracles.damped_kerr_expect_a(ALPHA, OMEGA0, b, 1e-3, T)
    want = damped_linear_expect_a(ALPHA, OMEGA0, 1e-3, 0.0, T)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize("k,dim,n", [(3, 44, 1), (3, 44, 4), (3, 44, 10), (2, 30, 0)])
def test_band1_matches_fock_sum_undamped(k, dim, n):
    space = FockSpace(dim)
    h = build_hamiltonian(space, OMEGA0, 0.005, k)
    psi = displaced_number_state(space, ALPHA, n)
    for t in (0.0, 37.5, 209.4, 268.1):
        got = oracles.band1_expect_a(dim, OMEGA0, 0.005, k, 0.0, ALPHA, n, t)
        assert abs(got - diagonal_h_fock_sum_expect_a(psi, h, t)) <= 1e-9


@pytest.mark.parametrize("gamma", [1e-4, 8e-3])
def test_band1_damping_matches_damped_kerr(gamma):
    # two independent derivations of the damped Kerr amplitude agree
    for t in (0.0, 150.0, 1382.3, 2764.6):
        got = oracles.band1_expect_a(30, OMEGA0, 0.005, 2, gamma, ALPHA, 0, t)
        want = oracles.damped_kerr_expect_a(ALPHA, OMEGA0, 0.005, gamma, t)
        assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("dim,n,tol", [(44, 0, 1e-12), (44, 1, 1e-12), (44, 10, 1e-6),
                                       (30, 0, 1e-8)])
def test_displaced_amplitudes_match_program_state(dim, n, tol):
    # the program exponentiates a truncated generator, whose top levels carry
    # a truncation error that grows with n and shrinks with dim
    got = oracles.displaced_amplitudes(dim, ALPHA, n)
    want = displaced_number_state(FockSpace(dim), ALPHA, n).amplitudes
    assert np.max(np.abs(got - want)) <= tol
