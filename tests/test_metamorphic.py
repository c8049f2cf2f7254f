"""Relations between runs that hold without any oracle.

One damped and one undamped panel of each ladder (fig2: quadratic, fig4:
cubic) runs through ``runner.resolve`` and ``runner.evolve`` as shipped and
once more with a transformed config:

* Scaling. Doubling omega0, b and gamma doubles the generator exactly, and
  the default step halves exactly with it; with t_final halved the run takes
  the same steps with the same h*M_q, so <a> is bit-identical and every
  time is exactly halved.
* Phase. The ladder is diagonal and the jump operators change the level by
  one, so a phase on alpha multiplies <a> by that phase and leaves the
  purity alone; both agree up to rounding.
"""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from revivals.config import load_preset
from revivals.lindblad import default_dt
from revivals.runner import evolve, resolve

PANELS = ("fig2a", "fig2b", "fig4a", "fig4b")


@pytest.fixture(scope="module", params=PANELS)
def shipped(request):
    config = load_preset(request.param).config
    ctx = resolve(config)
    return config, ctx, evolve(ctx)


def test_doubled_rates_on_halved_time_give_identical_amplitudes(shipped):
    config, ctx, traj = shipped
    scaled = replace(config, omega0=2 * config.omega0, b=2 * config.b,
                     gamma=2 * config.gamma, t_final=config.t_final / 2,
                     dt=config.dt / 2)
    scaled_ctx = resolve(scaled)
    assert (default_dt(scaled_ctx.liouvillian, scaled_ctx.rho0)
            == default_dt(ctx.liouvillian, ctx.rho0) / 2)
    got = evolve(scaled_ctx)
    np.testing.assert_array_equal(got.times, traj.times / 2)
    np.testing.assert_array_equal(got.a_expect, traj.a_expect)


def test_phase_of_alpha_leaves_modulus_and_purity(shipped):
    config, _, traj = shipped
    alpha = config.alpha * cmath.exp(0.7j)
    got = evolve(resolve(replace(config, alpha_re=alpha.real, alpha_im=alpha.imag)))
    np.testing.assert_array_equal(got.times, traj.times)
    assert np.abs(np.abs(got.a_expect) - np.abs(traj.a_expect)).max() <= 1e-13
    assert np.abs(got.purity - traj.purity).max() <= 1e-13
