"""Diagonal system Hamiltonians omega0*n + b*n^k and their characteristic times.

Atomic units with hbar = 1 throughout. The three Taylor timescales follow
from the derivatives of the energy ladder at a central level n0:

    t_cl = 2*pi / E'        t_rev = 2*pi / (E''/2)        t_sr = 2*pi / (E'''/6)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import FockSpace

SUPPORTED_ORDERS = (1, 2, 3)


@dataclass(frozen=True)
class DiagonalHamiltonian:
    space: FockSpace
    omega0: float
    b: float
    k: int
    energies: np.ndarray


@dataclass(frozen=True)
class Timescales:
    """Characteristic times; t_sr is None when the third derivative vanishes."""

    t_cl: float
    t_rev: float | None
    t_sr: float | None
    n0: int


def build_hamiltonian(space: FockSpace, omega0: float, b: float, k: int) -> DiagonalHamiltonian:
    """Energy ladder E_n = omega0*n + b*n^k for n = 0..dim-1; every E_n finite."""
    # written as not (in range) so that NaN fails too
    if not 0 < omega0 < math.inf:
        raise DomainError(f"omega0 must be positive and finite, got {omega0}")
    if k not in SUPPORTED_ORDERS:
        raise DomainError(f"nonlinearity order k={k} unsupported; use one of {SUPPORTED_ORDERS}")
    if not 0 <= b < math.inf:
        raise DomainError(f"nonlinearity strength must be >= 0 and finite, got {b}")
    top = space.dim - 1  # the largest energy; a float product overflows to inf
    if not math.isfinite(omega0 * top + b * top**k):
        raise DomainError(f"energy ladder overflows at b={b:g}, dim={space.dim}")
    n = np.arange(space.dim, dtype=float)
    energies = omega0 * n + b * n**k
    e = np.ascontiguousarray(energies)
    e.setflags(write=False)
    return DiagonalHamiltonian(space, float(omega0), float(b), int(k), e)


def default_n0(alpha: complex, state_n: int = 0) -> int:
    """Expansion center: the rounded mean photon number |alpha|^2 + n."""
    return max(1, round(abs(alpha) ** 2 + state_n))


def classical_period(h: DiagonalHamiltonian, n0: int) -> float:
    """t_cl = 2*pi / E'(n0) = 2*pi / (omega0 + k*b*n0^(k-1))."""
    return 2 * math.pi / (h.omega0 + h.k * h.b * n0 ** (h.k - 1))


def timescales_closed_form(h: DiagonalHamiltonian, n0: int) -> Timescales:
    """Exact timescales of the polynomial ladder evaluated at center n0."""
    if h.b <= 0:
        raise DomainError("no finite revival time for b = 0")
    if n0 < 1:
        raise DomainError(f"n0 must be >= 1, got {n0}")
    b = h.b
    if h.k == 2:
        return Timescales(t_cl=classical_period(h, n0),
                          t_rev=2 * math.pi / b, t_sr=None, n0=n0)
    if h.k == 3:
        return Timescales(t_cl=classical_period(h, n0),
                          t_rev=2 * math.pi / (3 * b * n0),
                          t_sr=2 * math.pi / b, n0=n0)
    raise DomainError(f"k={h.k} has a linear ladder: no collapse/revival structure")


def modulus_revival_period(h: DiagonalHamiltonian) -> float | None:
    """Period of |<a>(t)| for any state evolving under this ladder, or None.

    Level spacings are E_{n+1}-E_n = omega0 + b*d_n with integer
    d_n = (n+1)^k - n^k. Only spacing differences affect the modulus, and
    these are b*(d_n - d_0) with a common integer divisor g, so |<a>| is
    exactly periodic with period 2*pi/(b*g). For k = 2 this gives t_rev/2
    (g = 2); for k = 3 it gives t_sr/6 (g = 6), the full-revival time that
    is independent of the displaced-state index.
    """
    if h.b <= 0 or h.k == 1:
        return None
    d = [(n + 1) ** h.k - n**h.k for n in range(h.space.dim - 1)]
    g = 0
    for dn in d[1:]:
        g = math.gcd(g, dn - d[0])
    if g == 0:
        return None
    return 2 * math.pi / (h.b * g)
