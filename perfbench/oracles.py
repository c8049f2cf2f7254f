"""Reference values the benchmark checks the program's outputs against.

Built apart from the propagator: the damped-Kerr closed form (Milburn &
Holmes, PRL 56, 2237 (1986)) and the band-1 exponential of the damped
ladder (Briegel & Englert, PRA 47, 3311 (1993)) construct their own energy
ladders and generators. The scan oracle borrows from the program only its
step rule, to sample on the same grid, and its classifier.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import scipy.linalg

from revivals import analysis, fock, hamiltonian, lindblad, reference


def damped_kerr_expect_a(alpha: complex, omega0: float, b: float, gamma: float, t):
    """<a>(t) of a coherent state on the ladder omega0*n + b*n^2, zero temperature.

        <a> = alpha e^{-(i(omega0+b) + gamma/2) t}
                    exp(-|alpha|^2 2ib (1 - e^{-(gamma+2ib) t}) / (gamma + 2ib))

    Reduces to the undamped Kerr form as gamma -> 0 and to the damped
    linear oscillator as b -> 0. Needs gamma + b > 0.
    """
    t = np.asarray(t, dtype=float)
    z = gamma + 2j * b
    phase = np.exp(-(1j * (omega0 + b) + 0.5 * gamma) * t)
    return alpha * phase * np.exp(-abs(alpha) ** 2 * 2j * b * -np.expm1(-z * t) / z)


def band1_generator(dim: int, omega0: float, b: float, k: int, gamma: float) -> np.ndarray:
    """Upper-bidiagonal generator of x_m = rho_{m+1,m}, m = 0..dim-2.

    With a diagonal Hamiltonian and downward-only damping,
        dx_m/dt = (-i(E_{m+1}-E_m) - gamma(2m+1)/2) x_m
                  + gamma sqrt((m+1)(m+2)) x_{m+1},
    and x_{dim-2} has no partner above the truncated top level.
    """
    m = np.arange(dim - 1, dtype=float)
    spacing = omega0 + b * ((m + 1) ** k - m**k)
    gen = np.diag(-1j * spacing - 0.5 * gamma * (2 * m + 1))
    i = np.arange(dim - 2)
    gen[i, i + 1] = gamma * np.sqrt((i + 1.0) * (i + 2.0))
    return gen


def displaced_amplitudes(dim: int, alpha: complex, n: int) -> np.ndarray:
    """<m|D(alpha)|n> for m = 0..dim-1 from the Laguerre closed form, renormalized."""
    c = np.array([reference.displacement_matrix_element(m, n, alpha) for m in range(dim)])
    return c / np.linalg.norm(c)


def band1_expect_a(dim: int, omega0: float, b: float, k: int, gamma: float,
                   alpha: complex, n: int, t: float) -> complex:
    """<a>(t) = sum_m sqrt(m+1) x_m(t) with x(t) = expm(M t) x(0) for |alpha, n>."""
    c = displaced_amplitudes(dim, alpha, n)
    x0 = c[1:] * np.conj(c[:-1])
    x = scipy.linalg.expm(band1_generator(dim, omega0, b, k, gamma) * t) @ x0
    return complex(np.dot(np.sqrt(np.arange(1, dim)), x))


def cubic_revival_time(b: float) -> float:
    """First full revival of the cubic ladder, 2 pi / (6 b), the same for every n."""
    return 2 * math.pi / (6 * b)


def scan_point_oracle(b: float, k: int, alpha: complex, omega0: float, dim: int):
    """Classification of the exact undamped amplitude at one scan point.

    Uses the horizon and time step that ``analysis.scan_nonlinearity`` uses,
    the Kerr closed form (k = 2) or the Fock sum (k = 3) for <a>(t), and the
    program's own envelope and classifier, so a mismatch points at the
    propagation, not at the classifier.
    """
    space = fock.FockSpace(dim)
    h = hamiltonian.build_hamiltonian(space, omega0, b, k)
    pred = hamiltonian.timescales_closed_form(h, hamiltonian.default_n0(alpha))
    if k == 2:
        horizon = min(analysis.SCAN_HORIZON_QUADRATIC,
                      analysis.SCAN_SPAN_FACTOR_QUADRATIC * pred.t_rev)
    else:
        horizon = min(analysis.SCAN_HORIZON_CUBIC,
                      analysis.SCAN_SPAN_FACTOR_CUBIC * pred.t_sr)
    psi = fock.coherent_state(space, alpha)
    dt = lindblad.default_dt(lindblad.build_liouvillian(h, lindblad.DampingSpec()),
                             fock.density_from_pure(psi))
    nsteps = max(1, math.ceil(horizon / dt - 1e-12))
    times = np.arange(nsteps + 1) * (horizon / nsteps)
    if k == 2:
        a = reference.kerr_expect_a_closed_form(alpha, omega0, b, times)
    else:
        # in slices: the whole (times x levels) phase table would outgrow the
        # propagation whose peak memory the benchmark reports
        a = np.concatenate([reference.diagonal_h_fock_sum_expect_a(psi, h, times[i:i + 4096])
                            for i in range(0, len(times), 4096)])
    env = analysis.envelope_from_series(times, np.abs(a), pred.t_cl)
    cfg = replace(analysis.DEFAULT_THRESHOLDS, linear_classical_period=2 * math.pi / omega0)
    report = analysis.detect_revivals(env, pred, cfg, damped=False, require_full_span=False)
    return report.classification
