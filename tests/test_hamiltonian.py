import math

import numpy as np
import pytest

from revivals import (DomainError, Timescales, build_hamiltonian, default_n0,
                      modulus_revival_period, timescales_closed_form)
from revivals.hamiltonian import classical_period

from conftest import ALPHA, B1, B2, OMEGA0


def timescales_finite_difference(h, n0):
    """Timescales from central-difference derivatives of the energy array.

    The reference for the closed forms: the stencils are exact on the
    polynomial parts they resolve (second difference of a quadratic, third
    difference of a cubic), so t_rev for k = 2 and t_sr for k = 3 match the
    closed forms to machine precision.
    """
    e = h.energies
    if not 2 <= n0 <= h.space.dim - 3:
        raise IndexError(f"n0={n0} outside stencil range 2..{h.space.dim - 3}")
    d1 = (e[n0 + 1] - e[n0 - 1]) / 2.0
    d2 = e[n0 + 1] - 2.0 * e[n0] + e[n0 - 1]
    d3 = (e[n0 + 2] - 2.0 * e[n0 + 1] + 2.0 * e[n0 - 1] - e[n0 - 2]) / 2.0
    if d1 <= 0:
        raise DomainError("non-increasing ladder: no classical period")
    scale = abs(h.omega0)
    if abs(d2) < 1e-14 * scale:
        raise DomainError("second difference vanishes: no finite revival time")
    t_sr = None if abs(d3) < 1e-14 * scale else 2 * math.pi / (d3 / 6.0)
    return Timescales(t_cl=2 * math.pi / d1, t_rev=2 * math.pi / (d2 / 2.0),
                      t_sr=t_sr, n0=n0)


def test_linear_ladder_spacing(space30):
    h = build_hamiltonian(space30, OMEGA0, 0.0, 2)
    np.testing.assert_allclose(h.energies, 0.23561944901923448 * np.arange(30),
                               rtol=0, atol=1e-15)


def test_quadratic_second_difference(space30):
    h = build_hamiltonian(space30, OMEGA0, B1, 2)
    assert h.energies[2] - 2 * h.energies[1] == pytest.approx(2 * B1, abs=1e-15)


def test_cubic_direct_value(space30):
    h = build_hamiltonian(space30, OMEGA0, B2, 3)
    assert h.energies[3] == pytest.approx(3 * OMEGA0 + 27 * B2, abs=1e-15)


def test_strictly_increasing(space30):
    for k in (1, 2, 3):
        h = build_hamiltonian(space30, OMEGA0, 0.01, k)
        assert np.all(np.diff(h.energies) > 0)


def test_unsupported_order(space30):
    with pytest.raises(DomainError):
        build_hamiltonian(space30, OMEGA0, B1, 4)


def test_closed_form_quadratic(space30):
    h = build_hamiltonian(space30, OMEGA0, B1, 2)
    ts = timescales_closed_form(h, 4)
    assert ts.t_rev == pytest.approx(1256.6370614359173, rel=1e-15)
    assert ts.t_cl == pytest.approx(2 * math.pi / (OMEGA0 + 2 * B1 * 4), rel=1e-15)
    assert ts.t_sr is None


def test_closed_form_cubic(space30):
    h = build_hamiltonian(space30, OMEGA0, B2, 3)
    ts = timescales_closed_form(h, 4)
    assert ts.t_sr == pytest.approx(1256.6370614359173, rel=1e-15)
    assert ts.t_cl == pytest.approx(2 * math.pi / (OMEGA0 + 3 * B2 * 16), rel=1e-15)
    # the quoted theoretical revival times for n0 = 1..4
    expected = [418.8790204786391, 209.43951023931956,
                139.62634015954637, 104.71975511965978]
    for n0, want in zip((1, 2, 3, 4), expected):
        assert timescales_closed_form(h, n0).t_rev == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n0", [1, 4, 17])
def test_classical_period_per_order(space30, n0):
    # the same floating-point operations as the per-order forms, bit for bit
    per_order = {1: OMEGA0 + B1, 2: OMEGA0 + 2 * B1 * n0, 3: OMEGA0 + 3 * B1 * n0**2}
    for k, e1 in per_order.items():
        assert classical_period(build_hamiltonian(space30, OMEGA0, B1, k), n0) == 2 * math.pi / e1


def test_closed_form_rejects_zero_b(space30):
    h = build_hamiltonian(space30, OMEGA0, 0.0, 2)
    with pytest.raises(DomainError):
        timescales_closed_form(h, 4)


def test_finite_difference_matches_closed_form(space30):
    h2 = build_hamiltonian(space30, OMEGA0, B1, 2)
    fd = timescales_finite_difference(h2, 4)
    cf = timescales_closed_form(h2, 4)
    assert fd.t_rev == pytest.approx(cf.t_rev, rel=1e-12)
    assert fd.t_cl == pytest.approx(cf.t_cl, rel=1e-12)  # central diff exact on n^2
    assert fd.t_sr is None

    h3 = build_hamiltonian(space30, OMEGA0, B2, 3)
    fd3 = timescales_finite_difference(h3, 2)
    cf3 = timescales_closed_form(h3, 2)
    assert fd3.t_sr == pytest.approx(cf3.t_sr, rel=1e-12)
    assert fd3.t_rev == pytest.approx(cf3.t_rev, rel=1e-12)


def test_finite_difference_rejects_linear(space30):
    h = build_hamiltonian(space30, OMEGA0, 0.0, 2)
    with pytest.raises(DomainError):
        timescales_finite_difference(h, 4)


def test_finite_difference_stencil_range(space30):
    h = build_hamiltonian(space30, OMEGA0, B1, 2)
    with pytest.raises(IndexError):
        timescales_finite_difference(h, 1)
    with pytest.raises(IndexError):
        timescales_finite_difference(h, 28)


def test_revival_time_inverse_in_b(space30, rng):
    # t_rev * b = 2 pi across log-uniform b
    for b in 10 ** rng.uniform(-5, 1, size=20):
        h = build_hamiltonian(space30, OMEGA0, float(b), 2)
        assert timescales_closed_form(h, 4).t_rev * b == pytest.approx(
            2 * math.pi, rel=1e-12)


def test_cubic_t_rev_scales_inverse_n0(space30):
    h = build_hamiltonian(space30, OMEGA0, B2, 3)
    products = [timescales_closed_form(h, n0).t_rev * n0 for n0 in range(1, 9)]
    np.testing.assert_allclose(products, products[0], rtol=1e-12)


def test_hamiltonian_commutes_with_number(space30):
    h = np.diag(build_hamiltonian(space30, OMEGA0, B2, 3).energies)
    n = np.diag(np.arange(space30.dim))
    assert np.abs(h @ n - n @ h).max() == 0.0


def test_default_n0():
    assert default_n0(ALPHA) == 4
    assert default_n0(ALPHA, 3) == 7
    assert default_n0(0.1) == 1  # floors at 1


def test_modulus_revival_period(space30):
    h2 = build_hamiltonian(space30, OMEGA0, B1, 2)
    assert modulus_revival_period(h2) == pytest.approx(math.pi / B1, rel=1e-15)
    h3 = build_hamiltonian(space30, OMEGA0, B2, 3)
    assert modulus_revival_period(h3) == pytest.approx(math.pi / (3 * B2), rel=1e-15)
    h0 = build_hamiltonian(space30, OMEGA0, 0.0, 2)
    assert modulus_revival_period(h0) is None
