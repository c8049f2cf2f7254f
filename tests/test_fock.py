import math

import numpy as np
import pytest

from revivals import (DensityMatrix, DomainError, FockSpace, TruncationError,
                      TruncationWarning, coherent_state, density_from_pure,
                      displaced_number_state)
from revivals.fock import PureState, annihilation_op, core_levels, displacement_op
from revivals.reference import displacement_matrix_element

from conftest import ALPHA, fock_state


def test_space_requires_two_levels():
    with pytest.raises(DomainError):
        FockSpace(1)


def test_annihilation_smallest_dim():
    a = annihilation_op(FockSpace(2))
    np.testing.assert_array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_sqrt_rule():
    a = annihilation_op(FockSpace(4))
    assert a[2, 3] == pytest.approx(1.7320508075688772, abs=0)
    # only the first superdiagonal is populated
    assert np.count_nonzero(a) == 3


def test_truncated_commutator():
    # oracle: direct matrix multiplication at small dim
    space = FockSpace(4)
    a = annihilation_op(space)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(4, dtype=complex)
    expected[3, 3] = -3.0
    np.testing.assert_allclose(comm, expected, atol=0)


@pytest.mark.parametrize("dim", [2, 5, 30])
def test_number_equals_creation_times_annihilation(dim):
    space = FockSpace(dim)
    a = annihilation_op(space)
    prod = a.conj().T @ a
    np.testing.assert_allclose(prod, np.diag(np.arange(dim)), atol=1e-15)


def test_displacement_zero_is_identity():
    d = displacement_op(FockSpace(8), 0.0)
    np.testing.assert_allclose(d, np.eye(8), atol=1e-14)


def test_displacement_first_column_is_poisson():
    # oracle: c_n = e^{-|a|^2/2} a^n / sqrt(n!); truncation distortion is
    # confined to the top levels at dim = 30
    dim = 30
    col = displacement_op(FockSpace(dim), ALPHA)[:, 0]
    n = np.arange(dim)
    expected = (math.exp(-abs(ALPHA) ** 2 / 2)
                * np.array([ALPHA**k / math.sqrt(math.factorial(k)) for k in n]))
    np.testing.assert_allclose(col[:21], expected[:21], atol=1e-12)
    np.testing.assert_allclose(col, expected, atol=1e-8)
    assert col[0].real == pytest.approx(0.1644744565771549, abs=1e-12)
    assert col[1].real == pytest.approx(-0.3125014674965943, abs=1e-12)


def test_displacement_matches_laguerre_oracle():
    dmat = displacement_op(FockSpace(40), ALPHA)
    for m in range(11):
        for n in range(11):
            assert dmat[m, n] == pytest.approx(
                displacement_matrix_element(m, n, ALPHA), abs=1e-9)


def test_displacement_inverse_on_core_levels():
    space = FockSpace(30)
    k = core_levels(ALPHA)
    prod = (displacement_op(space, ALPHA)
            @ displacement_op(space, -ALPHA))
    np.testing.assert_allclose(prod[:k, :k], np.eye(k), atol=1e-8)


def test_displacement_operator_stays_unitary_when_truncated():
    # the exponentiated generator is unitary at any dim; quality enforcement
    # lives in the state constructors
    d = displacement_op(FockSpace(6), ALPHA)
    np.testing.assert_allclose(d.conj().T @ d, np.eye(6), atol=1e-13)


def test_coherent_vacuum():
    c = coherent_state(FockSpace(5), 0.0).amplitudes
    np.testing.assert_allclose(c, [1, 0, 0, 0, 0], atol=1e-15)


def test_coherent_mean_photon_number(space30):
    c = coherent_state(space30, ALPHA).amplitudes
    n_mean = float(np.sum(np.arange(30) * np.abs(c) ** 2))
    assert n_mean == pytest.approx(abs(ALPHA) ** 2, abs=1e-10)


def test_coherent_annihilation_eigenvalue(space30):
    c = coherent_state(space30, ALPHA).amplitudes
    a_expect = c.conj() @ annihilation_op(space30) @ c
    assert a_expect == pytest.approx(ALPHA, abs=1e-10)


def test_coherent_poisson_populations(space30):
    c = coherent_state(space30, ALPHA).amplitudes
    aa = abs(ALPHA) ** 2
    for n in range(30):
        p = abs(c[n]) ** 2
        if p > 1e-14:
            expected = math.exp(-aa) * aa**n / math.factorial(n)
            assert p == pytest.approx(expected, abs=1e-10)


def test_coherent_truncation_error_small_dim():
    with pytest.raises(TruncationError):
        coherent_state(FockSpace(8), ALPHA)


def test_displaced_number_reduces_to_coherent(space30):
    np.testing.assert_allclose(
        displaced_number_state(space30, ALPHA, 0).amplitudes,
        coherent_state(space30, ALPHA).amplitudes, atol=0)


def test_displaced_number_zero_alpha_is_fock():
    st = displaced_number_state(FockSpace(8), 0.0, 4)
    np.testing.assert_allclose(st.amplitudes, fock_state(FockSpace(8), 4).amplitudes,
                               atol=1e-14)


def test_displaced_number_mean(space30):
    c = displaced_number_state(space30, ALPHA, 2).amplitudes
    n_mean = float(np.sum(np.arange(30) * np.abs(c) ** 2))
    assert n_mean == pytest.approx(abs(ALPHA) ** 2 + 2, abs=1e-9)


def test_displaced_number_index_error(space30):
    with pytest.raises(IndexError):
        displaced_number_state(space30, ALPHA, 30)


def test_tail_population_warns():
    c = np.zeros(6, dtype=complex)
    c[0] = math.sqrt(1 - 1e-8)
    c[5] = math.sqrt(1e-8)
    with pytest.warns(TruncationWarning):
        PureState(FockSpace(6), c)


def test_density_from_pure_vacuum():
    rho = density_from_pure(fock_state(FockSpace(4), 0)).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(rho, expected)


def test_density_from_pure_invariants(space30):
    rho = density_from_pure(coherent_state(space30, ALPHA))
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    # purity and spectrum of a projector
    assert np.vdot(rho.matrix, rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    eig = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert eig[-1] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(eig[:-1], 0.0, atol=1e-10)
    assert eig[0] >= -1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_states_reject_non_finite_entries(bad):
    c = np.zeros(4, dtype=complex)
    c[0] = 1.0
    c[2] = bad
    with pytest.raises(DomainError):
        PureState(FockSpace(4), c)
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    for where in [(0, 0), (2, 2), (1, 2)]:
        m = rho.copy()
        m[where] = bad
        m[where[::-1]] = bad
        with pytest.raises(DomainError):
            DensityMatrix(FockSpace(4), m)
