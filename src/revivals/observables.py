"""Expectation values and state diagnostics recorded along trajectories."""

from __future__ import annotations

import numpy as np

from .fock import DensityMatrix


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def expect_a_raw(rho: np.ndarray) -> complex:
    # Tr(a rho) reduces to the first subdiagonal; O(dim) per call.
    d = rho.shape[0]
    return complex(np.dot(np.sqrt(np.arange(1, d)), np.diagonal(rho, offset=-1)))


def expect_n_raw(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return float(np.dot(np.arange(d), np.diagonal(rho).real))
