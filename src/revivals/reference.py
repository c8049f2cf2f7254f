"""Independent analytic oracles for tests and acceptance checks.

Nothing here touches the propagator machinery; these are closed-form or
brute-force series evaluations used to cross-check it, and the dense
superoperator exponential of the whole master equation. They intentionally
do not reuse the operator constructors either: independence is the point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch
from .fock import PureState
from .hamiltonian import DiagonalHamiltonian
from .lindblad import DampingSpec

MAX_LAGUERRE_INDEX = 170


def damped_linear_expect_a(alpha: complex, omega0: float, gamma: float,
                           n_thermal: float, t):
    """<a>(t) for the damped linear oscillator: alpha e^{-i w0 t} e^{-g(N+1)t/2}.

    Exact solution of the downward-only master equation with no nonlinearity.
    Accepts scalar or array t.
    """
    rate = 0.5 * gamma * (n_thermal + 1.0)
    return alpha * np.exp(-(1j * omega0 + rate) * np.asarray(t))


def kerr_expect_a_closed_form(alpha: complex, omega0: float, b1: float, t):
    """<a>(t) for the undamped Kerr ladder omega0*n + b1*n^2, coherent input.

    Summing the coherent Fock series with level phases e^{-iE_n t} gives
        <a> = sum_n |alpha|^2n e^{-|alpha|^2}/n! * alpha e^{-i(omega0+b1)t}
                 * e^{-2 i b1 n t}
            = alpha e^{-i(omega0+b1)t} exp(|alpha|^2 (e^{-2 i b1 t} - 1)).
    """
    t = np.asarray(t)
    aa = abs(alpha) ** 2
    return alpha * np.exp(-1j * (omega0 + b1) * t) * np.exp(aa * (np.exp(-2j * b1 * t) - 1.0))


def diagonal_h_fock_sum_expect_a(state: PureState, h: DiagonalHamiltonian, t):
    """Brute-force <a>(t) for any pure state under a diagonal ladder, gamma = 0.

    <a> = sum_n  conj(c_n) c_{n+1} sqrt(n+1) e^{-i(E_{n+1}-E_n) t}
    """
    if state.space.dim != h.space.dim:
        raise DimensionMismatch(
            f"state dim {state.space.dim} vs hamiltonian dim {h.space.dim}")
    c = state.amplitudes
    n = np.arange(len(c) - 1)
    weights = np.conj(c[:-1]) * c[1:] * np.sqrt(n + 1.0)
    de = h.energies[1:] - h.energies[:-1]
    t = np.asarray(t)
    phases = np.exp(-1j * np.multiply.outer(t, de))
    return phases @ weights if t.ndim else complex(np.dot(phases, weights))


def superoperator(energies: np.ndarray, damping: DampingSpec) -> np.ndarray:
    """Dense D^2 x D^2 generator of the master equation on column-major vec(rho).

    vec(A X B) = (B^T kron A) vec(X), so with the dissipator
    D[c] rho = c rho c+ - {c+c, rho}/2 the generator is
        -i (I kron H - H^T kron I) + gamma (N+1) D[a] (+ gamma N D[a+]),
    the upward term only with ``full_equation``.
    """
    d = len(energies)
    eye = np.eye(d)
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    h = np.diag(energies).astype(complex)

    def dissipator(c: np.ndarray) -> np.ndarray:
        cdc = c.conj().T @ c
        return np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))

    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    m += damping.gamma * (damping.n_thermal + 1.0) * dissipator(a)
    if damping.full_equation:
        m += damping.gamma * damping.n_thermal * dissipator(a.conj().T)
    return m


def superoperator_evolve(energies: np.ndarray, damping: DampingSpec,
                         rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(L t) rho0 for a raw D x D array, L = ``superoperator(energies, damping)``.

    The exponential is scipy's scaling-and-squaring Pade; its cost grows as
    D^6, so keep D small. The result is returned as computed: not
    renormalized, not symmetrized.
    """
    import scipy.linalg  # only this oracle needs scipy; runs never import it

    d = len(energies)
    prop = scipy.linalg.expm(superoperator(energies, damping) * t)
    return (prop @ np.asarray(rho0).reshape(-1, order="F")).reshape((d, d), order="F")


def _genlaguerre(n: int, k: int, x: float) -> float:
    # three-term recurrence in degree at fixed order k
    if n == 0:
        return 1.0
    lm1, l = 1.0, 1.0 + k - x
    for m in range(1, n):
        lm1, l = l, ((2 * m + 1 + k - x) * l - (m + k) * lm1) / (m + 1)
    return l


def displacement_matrix_element(m: int, n: int, alpha: complex) -> complex:
    """<m|D(alpha)|n> from the associated-Laguerre closed form.

    For m >= n:  sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2);
    for m < n the symmetry <m|D(alpha)|n> = conj(<n|D(-alpha)|m>) applies.
    Factorial ratios go through log-gamma to stay finite.
    """
    if m < 0 or n < 0:
        raise ValueError("levels must be non-negative")
    if m > MAX_LAGUERRE_INDEX or n > MAX_LAGUERRE_INDEX:
        raise OverflowError(
            f"levels above {MAX_LAGUERRE_INDEX} lose precision in the factorial ratio")
    if m < n:
        return complex(np.conj(displacement_matrix_element(n, m, -alpha)))
    aa = abs(alpha) ** 2
    log_ratio = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1))
    lag = _genlaguerre(n, m - n, aa)
    return math.exp(log_ratio - aa / 2.0) * alpha ** (m - n) * lag
