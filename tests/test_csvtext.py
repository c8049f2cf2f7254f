"""csvtext.format_rows against Python's per-value '%.17g', byte for byte."""

import numpy as np
import pytest

from revivals import runner
from revivals.config import load_preset
from revivals.csvtext import format_rows


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
    small = np.abs(np.array(columns))
    # the d.ddde-0X layout below 1e-4, and the fallback below 1e-6, both show
    assert (small < 1e-4).sum() > 10_000 and (small < 1e-6).sum() > 1_000
    assert format_rows(columns) == reference(columns)
