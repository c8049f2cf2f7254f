"""csvtext.format_rows against Python's per-value '%.17g', byte for byte."""

import numpy as np
import pytest

from revivals import runner
from revivals.config import load_preset
from revivals.csvtext import _FALLBACK, _decimal, format_rows


def reference(columns) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in zip(*columns)).encode()


def assert_same_text(values, n_cols=7):
    values = np.asarray(values, np.float64)
    values = np.concatenate([values, np.full(-len(values) % n_cols, 0.5)])
    columns = list(values.reshape(-1, n_cols).T)
    got, want = format_rows(columns), reference(columns)
    if got != want:
        wrong = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(wrong)} rows differ, first {wrong[:3]}")


def test_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 2 ** 64, 120_000, np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) > 100_000 and (values < 0).any() and (values > 0).any()
    assert_same_text(values)


def test_every_decade():
    rng = np.random.default_rng(19)
    size = 200_000
    values = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-9, 20, size)
    assert_same_text(values * rng.choice([-1.0, 1.0], size))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-9, 19)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_same_text(np.concatenate([values, -values]))


def test_log_uniform_values_down_to_1e_22():
    rng = np.random.default_rng(22)
    size = 1_000_000
    values = 10.0 ** rng.uniform(-22.0, -6.0, size) * rng.choice([-1.0, 1.0], size)
    assert_same_text(values)
    # only near-ties, if any, keep '%.17g'
    assert (_decimal(values)[1] == _FALLBACK).sum() <= 10


def test_powers_of_ten_within_two_ulps_down_to_1e_22():
    powers = np.array([float(f"1e{k}") for k in range(-23, -4)])
    values = [powers]
    for toward in (0.0, np.inf):
        near = powers
        for _ in range(2):
            near = np.nextafter(near, toward)
            values.append(near)
    values = np.concatenate(values)
    assert_same_text(np.concatenate([values, -values]))


def test_ties_below_1e_6_keep_percent_format():
    # x * 10**k is a half-integer only for x = m * 2**-(k + 1), m odd, and
    # 17 digits only at k = 23 and 24 (5**k / 2 < 10**17): the scaled sum is
    # inexact there, so each tie keeps '%.17g', and its neighbours do not
    ties = np.array([m * 2.0 ** -(k + 1) for k in (23, 24) for m in range(1, 40, 2)
                     if 1e16 <= m * 5 ** k / 2 < 1e17])
    assert len(ties) == 9
    assert np.all(_decimal(ties)[1] == _FALLBACK)
    near = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
    assert not np.any(_decimal(near)[1] == _FALLBACK)
    values = np.concatenate([ties, near])
    assert_same_text(np.concatenate([values, -values]))


@pytest.mark.parametrize("value", [
    1234567890123456.75,    # ties of the 17th digit, which round to even:
    1234567890123455.25,    # up above, down here
    0.09999999999999999,    # log10 rounds up to -1
    9.9999999999999995e-07,  # the float nearest 1e-6, just below it
    0.99999999999999989,    # rounds up to a carry at 17 digits
    0.0, -0.0, 5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan,
])
def test_edge_values(value):
    assert_same_text([value, -value], n_cols=2)
    assert_same_text([value], n_cols=1)


def test_damped_trajectory_with_many_small_values():
    traj = runner.evolve(runner.resolve(load_preset("fig2d").config))
    columns = [traj.times, traj.a_expect.real, traj.a_expect.imag, np.abs(traj.a_expect),
               traj.n_expect, traj.trace, traj.purity]
    values = np.array(columns).ravel()
    small = np.abs(values)
    # the d.ddde-0X layout below 1e-4 shows, also below 1e-6, where only
    # near-ties would keep '%.17g': here only the time 0 does
    assert (small < 1e-4).sum() > 10_000 and (small < 1e-6).sum() > 1_000
    assert np.array_equal(values[_decimal(values)[1] == _FALLBACK], [0.0])
    assert format_rows(columns) == reference(columns)
