"""Expectation values of a density matrix given as an array."""

from __future__ import annotations

import numpy as np


def expect_a_raw(rho: np.ndarray) -> complex:
    # Tr(a rho) reduces to the first subdiagonal; O(dim) per call.
    d = rho.shape[0]
    return complex(np.dot(np.sqrt(np.arange(1, d)), np.diagonal(rho, offset=-1)))


def expect_n_raw(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return float(np.dot(np.arange(d), np.diagonal(rho).real))
