"""Truncated Fock-space representation of a single bosonic mode.

Everything is dense and double precision: the workloads here never exceed a
few tens of levels, where dense linear algebra beats any sparse bookkeeping.
All value types are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, TruncationError, TruncationWarning

#: Highest-level population above which state constructors warn.
TAIL_TOLERANCE = 1e-10

#: Renormalization correction above which state constructors fail.
RENORM_TOLERANCE = 1e-10

#: Unitarity defect allowed for the displacement operator on its core levels.
UNITARITY_TOLERANCE = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockSpace:
    """A truncated mode with levels 0..dim-1."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError(f"Fock space needs dim >= 2, got {self.dim}")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the Fock levels."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.amplitudes, dtype=complex)
        if c.shape != (self.space.dim,):
            raise DimensionMismatch(
                f"state length {c.shape} does not match dim {self.space.dim}"
            )
        norm2 = float(np.sum(np.abs(c) ** 2))
        if abs(norm2 - 1.0) > 1e-12:
            raise DomainError(f"state norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        tail = float(abs(c[-1]) ** 2)
        if tail >= TAIL_TOLERANCE:
            warnings.warn(
                f"top Fock level holds population {tail:.3e}; "
                "increase dim for a trustworthy truncation",
                TruncationWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "amplitudes", _readonly(c))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace density matrix. Positivity is checked on demand."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise DimensionMismatch(
                f"density matrix shape {m.shape} does not match dim {self.space.dim}"
            )
        herm = float(np.abs(m - m.conj().T).max())
        if herm > 1e-12:
            raise DomainError(f"density matrix not Hermitian: defect {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise DomainError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def annihilation_op(space: FockSpace) -> np.ndarray:
    """Lowering operator: <n-1|a|n> = sqrt(n)."""
    d = space.dim
    m = np.zeros((d, d), dtype=complex)
    n = np.arange(1, d)
    m[n - 1, n] = np.sqrt(n)
    return m


def _displacement_matrix(space: FockSpace, alpha: complex) -> np.ndarray:
    # exp(alpha a+ - alpha* a) through the Hermitian eigendecomposition of
    # i*(alpha a+ - alpha* a); keeps the result numerically unitary.
    a = annihilation_op(space)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def core_levels(alpha: complex) -> int:
    """Number of low levels on which displacement quality is enforced."""
    return max(2, math.ceil(abs(alpha) ** 2 + 3 * abs(alpha)))


def displacement_op(space: FockSpace, alpha: complex) -> np.ndarray:
    """Displacement operator D(alpha) on the truncated space.

    Unitary up to truncation leakage; raises TruncationError when the
    unitarity defect on the lowest core_levels(alpha) levels exceeds
    UNITARITY_TOLERANCE.
    """
    m = _displacement_matrix(space, alpha)
    k = min(core_levels(alpha), space.dim)
    defect = np.abs((m.conj().T @ m)[:k, :k] - np.eye(k))
    worst = float(defect.max())
    if worst > UNITARITY_TOLERANCE:
        raise TruncationError(
            f"displacement unitarity defect {worst:.3e} on lowest {k} levels; "
            f"dim={space.dim} is too small for alpha={alpha}"
        )
    return m


def _renormalized_column(space: FockSpace, alpha: complex, n: int) -> PureState:
    col = displacement_op(space, alpha)[:, n]
    norm = float(np.linalg.norm(col))
    if abs(1.0 - norm) > RENORM_TOLERANCE:
        raise TruncationError(
            f"displaced state renormalization correction {abs(1.0 - norm):.3e} "
            f"exceeds {RENORM_TOLERANCE:g}; increase dim"
        )
    col = col / norm
    # The exponentiated truncated generator stays exactly unitary, so lost
    # tail mass folds back into the retained levels; the top-level population
    # is the honest truncation signal and is a hard error for constructors.
    tail = float(abs(col[-1]) ** 2)
    if tail >= TAIL_TOLERANCE:
        raise TruncationError(
            f"top Fock level holds population {tail:.3e} >= {TAIL_TOLERANCE:g}; "
            f"dim={space.dim} is too small for alpha={alpha}, n={n}"
        )
    return PureState(space, col)


def coherent_state(space: FockSpace, alpha: complex) -> PureState:
    """|alpha> = D(alpha)|0>, renormalized after truncation."""
    return _renormalized_column(space, alpha, 0)


def displaced_number_state(space: FockSpace, alpha: complex, n: int) -> PureState:
    """|alpha, n> = D(alpha)|n>, renormalized after truncation."""
    if not 0 <= n < space.dim:
        raise IndexError(f"level n={n} outside 0..{space.dim - 1}")
    return _renormalized_column(space, alpha, n)


def fock_state(space: FockSpace, n: int) -> PureState:
    if not 0 <= n < space.dim:
        raise IndexError(f"level n={n} outside 0..{space.dim - 1}")
    c = np.zeros(space.dim, dtype=complex)
    c[n] = 1.0
    return PureState(space, c)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """rho = |psi><psi|."""
    return DensityMatrix(psi.space, np.outer(psi.amplitudes, psi.amplitudes.conj()))
