"""Lindblad generator and time propagation for a damped nonlinear mode.

Two propagators share one generator:

* ``rk4_evolve`` - fixed-step classic Runge-Kutta. Because the Hamiltonian
  is diagonal and the jump operators are ladder operators, the generator
  never mixes diagonal bands of rho: band q, x_q[m] = rho[m+q, m], evolves
  on its own under a (D-q) x (D-q) matrix M_q (the damping-basis structure
  of Briegel & Englert, PRA 47, 3311 (1993)). For a time-independent linear
  generator one RK4 step is exactly the matrix polynomial
  R_q = I + hM_q + (hM_q)^2/2 + (hM_q)^3/6 + (hM_q)^4/24, so the step is
  evaluated as that matrix, and samples come out in blocks of BLOCK_STEPS
  steps as matrix products with powers of R_q. The steps, the time grid and
  the recorded values are those of the stage-wise RK4 loop, up to rounding;
  only the order of the floating-point operations differs. The upper
  triangle is the conjugate of the lower bands, so the propagated state is
  Hermitian by construction.
* ``expm_propagate`` - dense exponential of the D^2 x D^2 superoperator,
  restricted to small dimensions. It exists to cross-check the RK4 path.

The superoperator uses column-major vectorization: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (DimensionError, DimensionMismatch, DomainError,
                     StabilityError, TruncationError)
from .fock import DensityMatrix, FockSpace
from .hamiltonian import DiagonalHamiltonian
# expect_a_raw is not called here; the benchmark's tracer patches both names
# on this module, so they stay importable from it
from .observables import ObservableRecord, expect_a_raw, expect_n_raw  # noqa: F401

#: Trace drift treated as an integration failure; purity above 1 by more
#: than this is one too.
TRACE_TOLERANCE = 1e-6

#: Top-level population treated as truncation overflow during evolution.
TOP_LEVEL_TOLERANCE = 1e-6

#: Trace tolerance for stored snapshots.
SNAPSHOT_TOLERANCE = 1e-8

#: Steps per block of samples in ``rk4_evolve``; a power of two.
BLOCK_STEPS = 128


@dataclass(frozen=True)
class DampingSpec:
    """Bath parameters of the master equation.

    full_equation selects the variant that keeps the upward thermal term
    gamma*N (a+ rho a - {a a+, rho}/2); with it off, only the downward
    channel gamma*(N+1) acts, matching the optical-frequency regime where
    energy flows exclusively into the environment.
    """

    gamma: float = 0.0
    n_thermal: float = 0.0
    full_equation: bool = False

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if self.n_thermal < 0:
            raise DomainError(f"n_thermal must be >= 0, got {self.n_thermal}")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major vec."""
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def to_bands(rho: np.ndarray) -> list[np.ndarray]:
    """Lower diagonal bands x_q[m] = rho[m+q, m], q = 0..D-1; band 0 real."""
    d = rho.shape[0]
    return [np.diagonal(rho).real.copy()] + [np.diagonal(rho, -q).copy()
                                             for q in range(1, d)]


class Liouvillian:
    """Generator of the master equation for one (Hamiltonian, damping) pair."""

    def __init__(self, hamiltonian: DiagonalHamiltonian, damping: DampingSpec):
        self.space: FockSpace = hamiltonian.space
        self.hamiltonian = hamiltonian
        self.damping = damping
        d = self.space.dim
        e = hamiltonian.energies
        n = np.arange(d, dtype=float)
        g_down = damping.gamma * (damping.n_thermal + 1.0)
        # diagonal part: unitary phases plus anticommutator decay
        diag = -1j * (e[:, None] - e[None, :]) - 0.5 * g_down * (n[:, None] + n[None, :])
        self._upward = damping.full_equation and damping.n_thermal > 0
        if self._upward:
            g_up = damping.gamma * damping.n_thermal
            aad = n + 1.0
            aad[-1] = 0.0  # truncated a a+ annihilates the top level
            diag = diag - 0.5 * g_up * (aad[:, None] + aad[None, :])
            self._w_up = g_up * np.sqrt(np.outer(n[1:], n[1:]))
        self._diag = diag
        self._w_down = g_down * np.sqrt(np.outer(n[:-1] + 1.0, n[:-1] + 1.0))
        self._matrix: np.ndarray | None = None

    def apply(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """drho/dt for a raw D x D array; O(D^2) elementwise work."""
        out = np.multiply(self._diag, rho, out=out)
        out[:-1, :-1] += self._w_down * rho[1:, 1:]
        if self._upward:
            out[1:, 1:] += self._w_up * rho[:-1, :-1]
        return out

    def band_generators(self) -> list[np.ndarray]:
        """M_q with d x_q/dt = M_q x_q for each band of ``to_bands``.

        The coefficients are those of ``apply``: the diagonal of M_q is band
        q of the elementwise part, the downward jump couples x_q[m] to
        x_q[m+1] and the upward one to x_q[m-1]. M_0 is real.
        """
        d = self.space.dim
        gens = []
        for q in range(d):
            m = np.diag(np.diagonal(self._diag, -q))
            if q < d - 1:
                m += np.diag(np.diagonal(self._w_down, -q), 1)
                if self._upward:
                    m += np.diag(np.diagonal(self._w_up, -q), -1)
            gens.append(m.real.copy() if q == 0 else m)
        return gens

    @property
    def matrix(self) -> np.ndarray:
        """Dense D^2 x D^2 superoperator (built lazily, column-vectorized)."""
        if self._matrix is None:
            d = self.space.dim
            eye = np.eye(d)
            n = np.arange(d, dtype=float)
            a = np.zeros((d, d), dtype=complex)
            a[np.arange(d - 1), np.arange(1, d)] = np.sqrt(n[1:])
            ad = a.conj().T
            h = np.diag(self.hamiltonian.energies).astype(complex)
            m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
            g_down = self.damping.gamma * (self.damping.n_thermal + 1.0)
            nd = ad @ a
            m += g_down * (np.kron(a.conj(), a)
                           - 0.5 * (np.kron(eye, nd) + np.kron(nd.T, eye)))
            if self.damping.full_equation and self.damping.n_thermal > 0:
                g_up = self.damping.gamma * self.damping.n_thermal
                aad = a @ ad
                m += g_up * (np.kron(ad.conj(), ad)
                             - 0.5 * (np.kron(eye, aad) + np.kron(aad.T, eye)))
            self._matrix = m
        return self._matrix

    def omega_max(self) -> float:
        """Fastest phase plus decay scale, used for step-size control."""
        e = self.hamiltonian.energies
        decay = self.damping.gamma * (self.damping.n_thermal + 1.0) * self.space.dim
        return float(e[-1] - e[-2]) + decay


def build_liouvillian(h: DiagonalHamiltonian, d: DampingSpec) -> Liouvillian:
    return Liouvillian(h, d)


@dataclass
class Trajectory:
    """Observable time series plus optional decimated state snapshots."""

    times: np.ndarray
    a_expect: np.ndarray
    n_expect: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    herm_defect: np.ndarray
    states: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def record(self, i: int) -> ObservableRecord:
        return ObservableRecord(
            t=float(self.times[i]), a_expect=complex(self.a_expect[i]),
            n_expect=float(self.n_expect[i]), trace=float(self.trace[i]),
            purity=float(self.purity[i]), herm_defect=float(self.herm_defect[i]))

    def __len__(self) -> int:
        return len(self.times)


def default_dt(L: Liouvillian, rho0: DensityMatrix) -> float:
    """Step size keeping dt * Omega_max <= 0.1 and >= 200 steps per T_cl.

    T_cl is evaluated at the wave packet's own center, the rounded mean
    photon number of the initial state.
    """
    h = L.hamiltonian
    n0 = max(1, round(expect_n_raw(rho0.matrix)))
    if h.k == 2:
        e1 = h.omega0 + 2 * h.b * n0
    elif h.k == 3:
        e1 = h.omega0 + 3 * h.b * n0**2
    else:
        e1 = h.omega0 + h.b
    t_cl = 2 * math.pi / e1
    return min(0.1 / L.omega_max(), t_cl / 200.0)


def _rk4_step_matrix(m: np.ndarray, dt: float) -> np.ndarray:
    """I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24: one RK4 step of dx/dt = M x."""
    hm = dt * m
    eye = np.eye(len(m), dtype=m.dtype)
    r = eye + hm / 4.0
    for k in (3.0, 2.0, 1.0):
        r = eye + (hm / k) @ r
    return r


def _first_failure(times: np.ndarray, trace: np.ndarray, purity: np.ndarray,
                   top: np.ndarray, top_limit: float) -> tuple[int, Exception] | None:
    """Index and error of the earliest sample that fails a gate, or None.

    Every gate is written as ``not (value within bounds)`` so that NaN fails.
    At one sample the gates are checked in the order trace, top level, purity.
    """
    bad_trace = ~(np.abs(trace - 1.0) <= TRACE_TOLERANCE)
    bad_top = ~(top <= top_limit)
    bad_purity = ~((purity > 0.0) & (purity <= 1.0 + TRACE_TOLERANCE))
    bad = np.flatnonzero(bad_trace | bad_top | bad_purity)
    if len(bad) == 0:
        return None
    i = int(bad[0])
    if bad_trace[i]:
        return i, StabilityError(f"trace drifted to {float(trace[i])!r} at "
                                 f"t={times[i]:.6g}; reduce dt")
    if bad_top[i]:
        return i, TruncationError(f"top-level population {top[i]:.3e} at "
                                  f"t={times[i]:.6g}; increase dim")
    return i, StabilityError(f"purity {float(purity[i])!r} outside (0, 1] at "
                             f"t={times[i]:.6g}; reduce dt")


def rk4_evolve(L: Liouvillian, rho0: DensityMatrix, t_final: float,
               dt: float = 0.0, record_every: int = 50) -> Trajectory:
    """Propagate rho0 to t_final with classic fixed-step RK4.

    Observables are recorded every step; full states only every
    record_every steps and at the last step (0 disables snapshots). The
    trace is monitored, never renormalized.

    Raises StabilityError when the trace drifts by more than
    TRACE_TOLERANCE, when the purity leaves (0, 1 + TRACE_TOLERANCE] or when
    a snapshot's trace drifts by more than SNAPSHOT_TOLERANCE; raises
    TruncationError when the top-level population grows by more than
    TOP_LEVEL_TOLERANCE (possible only with the full equation at
    n_thermal > 0). NaN fails every gate. The error names the first failing
    time.
    """
    if rho0.space.dim != L.space.dim:
        raise DimensionMismatch(
            f"state dim {rho0.space.dim} vs Liouvillian dim {L.space.dim}")
    if t_final <= 0:
        raise DomainError(f"t_final must be positive, got {t_final}")
    if dt < 0:
        raise DomainError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        dt = default_dt(L, rho0)
    if dt * L.omega_max() > 0.1 + 1e-12:
        raise DomainError(
            f"dt={dt:g} too large: dt*Omega_max = {dt * L.omega_max():.3f} > 0.1")
    nsteps = max(1, math.ceil(t_final / dt - 1e-12))
    dt = t_final / nsteps

    d = L.space.dim
    nsamples = nsteps + 1
    times = np.arange(nsamples) * dt
    a_rec = np.empty(nsamples, dtype=complex)
    n_rec = np.empty(nsamples)
    tr_rec = np.empty(nsamples)
    pur_rec = np.empty(nsamples)
    states: list[tuple[float, np.ndarray]] = []

    # downward-only dissipation cannot grow the top-level population, so
    # only growth beyond the initial value signals truncation overflow
    top_limit = float(rho0.matrix[-1, -1].real) + TOP_LEVEL_TOLERANCE

    # Band 0 lives in a real (D, B) block, bands 1..D-1 stacked row-wise in
    # one complex block, band 1 first; a second pair of blocks takes the
    # next B samples.
    nb = BLOCK_STEPS
    rows = np.concatenate(([0], np.cumsum(np.arange(d - 1, 0, -1))))

    def blocks() -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        diag, off = np.empty((d, nb)), np.empty((rows[-1], nb), dtype=complex)
        return diag, off, [diag] + [off[rows[q - 1]:rows[q]] for q in range(1, d)]

    cur, nxt = blocks(), blocks()
    sqrt_n = np.sqrt(np.arange(1.0, d))
    levels = np.arange(float(d))
    lower = (np.concatenate([np.arange(q, d) for q in range(1, d)]),
             np.concatenate([np.arange(d - q) for q in range(1, d)]))

    # Past a failing sample the values may overflow; the gates report it.
    with np.errstate(over="ignore", invalid="ignore"):
        # first block by doubling: columns [w, 2w) are R^w applied to [0, w)
        powers = []
        for x, x0, m in zip(cur[2], to_bands(np.asarray(rho0.matrix)),
                            L.band_generators()):
            x[:, 0] = x0
            p = _rk4_step_matrix(m, dt)
            width = 1
            while width < nb:
                np.matmul(p, x[:, :width], out=x[:, width:2 * width])
                p = p @ p
                width *= 2
            powers.append(p)  # R^B

        for k0 in range(0, nsamples, nb):
            if k0 > 0:
                for p, x, y in zip(powers, cur[2], nxt[2]):
                    np.matmul(p, x, out=y)
                cur, nxt = nxt, cur
            count = min(nb, nsamples - k0)
            blk = slice(k0, k0 + count)
            pop, off = cur[0][:, :count], cur[1][:, :count]
            sq = np.einsum("ij,ij->j", off.view(np.float64), off.view(np.float64))
            a_rec[blk] = sqrt_n @ off[:d - 1]
            n_rec[blk] = levels @ pop
            tr_rec[blk] = pop.sum(axis=0)
            pur_rec[blk] = np.einsum("ij,ij->j", pop, pop) + 2.0 * (sq[0::2] + sq[1::2])
            failure = _first_failure(times[blk], tr_rec[blk], pur_rec[blk],
                                     pop[-1], top_limit)
            # snapshots are taken up to, not including, the first failing sample
            last_ok = k0 + count if failure is None else k0 + failure[0]
            if record_every > 0:
                marks = list(range(-(-k0 // record_every) * record_every,
                                   k0 + count, record_every))
                if k0 + count == nsamples and nsteps % record_every:
                    marks.append(nsteps)
                for s in marks:
                    if s >= last_ok:
                        break
                    j = s - k0
                    drift = abs(tr_rec[s] - 1.0)
                    if not drift <= SNAPSHOT_TOLERANCE:
                        raise StabilityError(
                            f"snapshot at t={times[s]:.6g} fails integrity: "
                            f"trace drift {drift:.2e}")
                    rho = np.diag(pop[:, j].astype(complex))
                    rho[lower] = off[:, j]
                    rho[lower[::-1]] = off[:, j].conj()
                    states.append((float(times[s]), rho))
            if failure is not None:
                raise failure[1]

    # the lower bands carry the state and the upper triangle is their
    # conjugate, so the Hermiticity defect is zero at every step
    return Trajectory(times=times, a_expect=a_rec, n_expect=n_rec, trace=tr_rec,
                      purity=pur_rec, herm_defect=np.zeros(nsamples), states=states)


#: Largest dimension for which the dense superoperator exponential is allowed.
EXPM_MAX_DIM = 12


def expm_propagate(L: Liouvillian, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """exp(L t) applied to rho0 through the dense superoperator.

    Cross-check path only: limited to dim <= 12 where the D^2 x D^2
    exponential (scaling-and-squaring Pade, via scipy) is cheap.
    """
    if L.space.dim > EXPM_MAX_DIM:
        raise DimensionError(
            f"dense superoperator exponential limited to dim <= {EXPM_MAX_DIM}, "
            f"got {L.space.dim}")
    if rho0.space.dim != L.space.dim:
        raise DimensionMismatch(
            f"state dim {rho0.space.dim} vs Liouvillian dim {L.space.dim}")
    if t == 0.0:
        return rho0
    prop = scipy.linalg.expm(L.matrix * t)
    rho = unvectorize(prop @ vectorize(np.asarray(rho0.matrix)), L.space.dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise StabilityError(f"superoperator exponential drifted trace to {tr!r}")
    return DensityMatrix(L.space, rho / tr)
