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
  steps as matrix products with powers of R_q. Without jump terms
  (gamma = 0) every M_q is diagonal, and so is R_q: the step is then the
  vector r = diag R over the stacked bands, sample j of a block is the
  block-start state times r^j elementwise, and the observables are products
  of the block-start state with one table of r^j. One pass of that loop
  reads the observables of up to CHUNK_BLOCKS blocks in one stacked product,
  one vector-matrix product per block, so the Python work per pass is spread
  over many blocks and the bytes are those of one block at a time. The
  steps, the time grid and the recorded values are those of the stage-wise
  RK4 loop, up to rounding; only the order of the floating-point operations
  differs. The final state's upper triangle is the conjugate of its lower
  bands, so it is Hermitian by construction.

  The damped (dense) path uses one thread per usable CPU
  (``fanout.usable_cpus``). Before it yields a block, it starts the band
  products of the next block on the pool's threads; they write the other
  pair of blocks while the calling thread reads this block's observables
  and the consumer checks the gates. When the consumer draws the next
  block, the calling thread joins in. Every thread takes bands, largest
  first, from one shared iterator, so a band goes to whichever thread comes
  free. Every product still runs on one OpenBLAS thread, so the bytes of
  each band do not depend on the thread count. The first block, the
  observables, the gates and the undamped (diagonal) path run on the
  calling thread.
* ``expm_propagate`` - dense exponential of the D^2 x D^2 superoperator,
  restricted to small dimensions. It exists to cross-check the RK4 path.

This module holds the propagator only; work spread over processes, and
the BLAS thread count, live in ``fanout``.

The superoperator uses column-major vectorization: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, DimensionMismatch, DomainError,
                     StabilityError, TruncationError)
from .fanout import one_blas_thread, usable_cpus
from .fock import DensityMatrix, FockSpace
from .hamiltonian import DiagonalHamiltonian, classical_period

#: Trace drift treated as an integration failure; purity above 1 by more
#: than this is one too.
TRACE_TOLERANCE = 1e-6

#: Top-level population treated as truncation overflow during evolution.
TOP_LEVEL_TOLERANCE = 1e-6

#: Steps per block of samples in ``rk4_evolve``; a power of two.
BLOCK_STEPS = 128

#: Full blocks whose observables one pass of the undamped block loop computes.
CHUNK_BLOCKS = 32


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
        # written as not (in range) so that NaN fails too
        if not 0 <= self.gamma < math.inf:
            raise DomainError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if not 0 <= self.n_thermal < math.inf:
            raise DomainError(f"n_thermal must be >= 0 and finite, got {self.n_thermal}")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major vec."""
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def expect_a_raw(rho: np.ndarray) -> complex:
    """Tr(a rho); it reduces to the first subdiagonal, O(dim) per call."""
    d = rho.shape[0]
    return complex(np.dot(np.sqrt(np.arange(1, d)), np.diagonal(rho, offset=-1)))


def expect_n_raw(rho: np.ndarray) -> float:
    """Tr(a+a rho) of a density-matrix array."""
    d = rho.shape[0]
    return float(np.dot(np.arange(d), np.diagonal(rho).real))


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
    """Observable time series plus the state at the last sample."""

    times: np.ndarray
    a_expect: np.ndarray
    n_expect: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    final: np.ndarray
    # always empty; the benchmark's tracer still reads len(states)
    states: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)


def default_dt(L: Liouvillian, rho0: DensityMatrix) -> float:
    """Step size keeping dt * Omega_max <= 0.1 and >= 200 steps per T_cl.

    T_cl is evaluated at the wave packet's own center, the rounded mean
    photon number of the initial state.
    """
    n0 = max(1, round(expect_n_raw(rho0.matrix)))
    return min(0.1 / L.omega_max(), classical_period(L.hamiltonian, n0) / 200.0)


def _rk4_step(m: np.ndarray, dt: float) -> np.ndarray:
    """I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24: one RK4 step of dx/dt = M x.

    A 1-d m stands for the diagonal matrix diag(m) and gives the diagonal of
    the step, with the same operations as the 2-d form on that diagonal.
    """
    hm = dt * m
    eye, mul = ((np.eye(len(m), dtype=m.dtype), np.matmul) if m.ndim == 2
                else (1.0, np.multiply))
    r = eye + hm / 4.0
    for k in (3.0, 2.0, 1.0):
        r = eye + mul(hm / k, r)
    return r


def _first_failure(times: np.ndarray, trace: np.ndarray, purity: np.ndarray,
                   top: np.ndarray, top_limit: float) -> Exception | None:
    """Error naming the earliest sample that fails a gate, or None.

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
        return StabilityError(f"trace drifted to {float(trace[i])!r} at "
                              f"t={times[i]:.6g}; reduce dt")
    if bad_top[i]:
        return TruncationError(f"top-level population {top[i]:.3e} at "
                               f"t={times[i]:.6g}; increase dim")
    return StabilityError(f"purity {float(purity[i])!r} outside (0, 1] at "
                          f"t={times[i]:.6g}; reduce dt")


def _band_products(jobs) -> None:
    """y = p @ x for each (p, x, y) drawn from jobs, under the block loop's errstate.

    Several threads may draw from one list iterator: its next() runs under
    the GIL, so each job goes to exactly one of them. ``np.errstate`` does
    not carry over into pool threads, so it is set here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for p, x, y in jobs:
            np.matmul(p, x, out=y)


def _deal_bands(jobs: list, pool: ThreadPoolExecutor, threads: int):
    """Start the products of jobs on ``threads - 1`` tasks of pool; return join.

    All draw from one iterator over jobs, so each job goes to whichever
    thread comes free. join() has the calling thread draw what is left, then
    waits for the tasks.
    """
    todo = iter(jobs)
    futures = [pool.submit(_band_products, todo) for _ in range(threads - 1)]

    def join() -> None:
        _band_products(todo)
        for f in futures:
            f.result()
    return join


# Both block generators below yield pieces of consecutive samples: the dense
# one a block of up to BLOCK_STEPS samples, the diagonal one a chunk of up to
# CHUNK_BLOCKS full blocks, or a run's last partial block alone. Each piece is
# the arrays <a>, <n>, trace, purity and top-level population, and last(): the
# bands (band 0, bands 1..D-1 stacked) of the piece's last sample, formed only
# when called (in every block, that cost the undamped scan 4-9%) and valid
# until the next piece is drawn.


def _dense_blocks(gens: list[np.ndarray], x0: list[np.ndarray], dt: float,
                  nsamples: int, pool: ThreadPoolExecutor, threads: int):
    """Blocks as matrix products of the band states with powers of R_q.

    Before a block is yielded, ``threads - 1`` tasks on ``pool`` start the
    next block's band products; the calling thread joins them when the
    consumer draws that block.
    """
    d = len(gens)
    nb = BLOCK_STEPS
    # Band 0 lives in a real (D, B) block, bands 1..D-1 stacked row-wise in
    # one complex block, band 1 first; a second pair of blocks takes the
    # next B samples.
    rows = np.concatenate(([0], np.cumsum(np.arange(d - 1, 0, -1))))

    def blocks() -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        diag, off = np.empty((d, nb)), np.empty((rows[-1], nb), dtype=complex)
        return diag, off, [diag] + [off[rows[q - 1]:rows[q]] for q in range(1, d)]

    cur, nxt = blocks(), blocks()
    # first block by doubling: columns [w, 2w) are R^w applied to [0, w)
    powers = []
    for x, xq, m in zip(cur[2], x0, gens):
        x[:, 0] = xq
        p = _rk4_step(m, dt)
        width = 1
        while width < nb:
            np.matmul(p, x[:, :width], out=x[:, width:2 * width])
            p = p @ p
            width *= 2
        powers.append(p)  # R^B
    sqrt_n = np.sqrt(np.arange(1.0, d))
    levels = np.arange(float(d))
    # the products from cur to nxt, then those back, in turn; band q has
    # D - q rows, so the bands go largest first
    jobs = [[(powers[q], src[2][q], dst[2][q]) for q in range(d)]
            for src, dst in ((cur, nxt), (nxt, cur))]

    for k0 in range(0, nsamples, nb):
        count = min(nb, nsamples - k0)
        more = k0 + nb < nsamples
        if more:
            # they write nxt while the observables below read cur
            join = _deal_bands(jobs[0], pool, threads)
        pop, off = cur[0][:, :count], cur[1][:, :count]
        sq = np.einsum("ij,ij->j", off.view(np.float64), off.view(np.float64))
        yield (sqrt_n @ off[:d - 1], levels @ pop, pop.sum(axis=0),
               np.einsum("ij,ij->j", pop, pop) + 2.0 * (sq[0::2] + sq[1::2]),
               pop[-1], lambda: (pop[:, -1], off[:, -1]))
        if more:
            join()
            jobs.reverse()
            cur, nxt = nxt, cur


def _diagonal_blocks(gens: list[np.ndarray], x0: list[np.ndarray], dt: float,
                     nsamples: int):
    """Blocks as elementwise products of the band states with powers of diag R_q.

    Only valid when every M_q is diagonal: then so is R_q, and sample j of a
    block is x(block start) * r^j with r the stacked diagonals of the R_q.
    A chunk holds up to CHUNK_BLOCKS full blocks; a run's last partial block
    comes alone, against the first ``count`` columns of the table.
    """
    d = len(gens)
    nb = BLOCK_STEPS
    x = np.concatenate(x0)
    p = _rk4_step(np.concatenate([np.diagonal(m) for m in gens]), dt)
    # table[:, j] = r^j, by the same doubling as the dense path; p ends as r^B
    table = np.empty((len(x), nb), dtype=complex)
    table[:, 0] = 1.0
    width = 1
    while width < nb:
        np.multiply(p[:, None], table[:, :width], out=table[:, width:2 * width])
        p = p * p
        width *= 2
    abs2 = table.real ** 2 + table.imag ** 2
    weight = np.full(len(x), 2.0)  # each band q >= 1 also stands for band -q
    weight[:d] = 1.0
    sqrt_n = np.sqrt(np.arange(1.0, d))
    levels = np.arange(float(d))

    def rows(v: np.ndarray, t: np.ndarray) -> np.ndarray:
        # row i of v times t, one vector-matrix product per row: the BLAS
        # call of v[i] @ t, so the bytes do not depend on the chunk size
        return np.matmul(v[:, None, :], t)[:, 0, :].reshape(-1)

    def last() -> tuple[np.ndarray, np.ndarray]:
        v = x * table[:, count - 1]
        return v[:d].real, v[d:]

    nfull, rest = divmod(nsamples, nb)
    chunks = [(b0, min(CHUNK_BLOCKS, nfull - b0), nb)
              for b0 in range(0, nfull, CHUNK_BLOCKS)]
    if rest:
        chunks.append((nfull, 1, rest))
    for b0, nrows, count in chunks:
        t = table[:, :count]
        starts = np.empty((nrows, len(x)), dtype=complex)
        for i in range(nrows):
            if b0 + i > 0:
                x *= p
            starts[i] = x
        pop = starts[:, :d]
        yield (rows(sqrt_n * starts[:, d:2 * d - 1], t[d:2 * d - 1]),
               rows(levels * pop, t[:d]).real,
               rows(pop, t[:d]).real,
               rows(weight * (starts.real ** 2 + starts.imag ** 2), abs2[:, :count]),
               (pop[:, -1:] * t[d - 1]).real.reshape(-1), last)


def rk4_evolve(L: Liouvillian, rho0: DensityMatrix, t_final: float,
               dt: float = 0.0) -> Trajectory:
    """Propagate rho0 to t_final with classic fixed-step RK4.

    Observables are recorded every step, the full state only at the last
    one (``Trajectory.final``). The trace is monitored, never renormalized.
    Every band product runs on one OpenBLAS thread (``one_blas_thread``).
    With damping, the products of independent bands run side by side on a
    thread pool that lives for this call, one thread per usable CPU
    (``usable_cpus``). The next block's products overlap this block's
    observables and gates. The result does not depend on the thread count.
    Undamped runs use the calling thread only.

    Raises StabilityError when the trace drifts by more than
    TRACE_TOLERANCE or when the purity leaves (0, 1 + TRACE_TOLERANCE];
    raises TruncationError when the top-level population grows by more than
    TOP_LEVEL_TOLERANCE (possible only with the full equation at
    n_thermal > 0). NaN fails every gate. The error names the first failing
    time. A DomainError names the step count whose records cannot be allocated.
    """
    if rho0.space.dim != L.space.dim:
        raise DimensionMismatch(
            f"state dim {rho0.space.dim} vs Liouvillian dim {L.space.dim}")
    if not 0 < t_final < math.inf:
        raise DomainError(f"t_final must be positive and finite, got {t_final}")
    if not 0 <= dt < math.inf:
        raise DomainError(f"dt must be >= 0 and finite, got {dt}")
    if dt == 0.0:
        dt = default_dt(L, rho0)
    if dt * L.omega_max() > 0.1 + 1e-12:
        raise DomainError(
            f"dt={dt:g} too large: dt*Omega_max = {dt * L.omega_max():.3f} > 0.1")
    steps = t_final / dt
    try:  # an infinite step count cannot be rounded, a huge one not allocated
        nsteps = max(1, math.ceil(steps - 1e-12))
        dt = t_final / nsteps
        nsamples = nsteps + 1
        times = np.arange(nsamples) * dt
        a_rec, n_rec = np.empty(nsamples, dtype=complex), np.empty(nsamples)
        tr_rec, pur_rec = np.empty(nsamples), np.empty(nsamples)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise DomainError(f"{steps:.6g} steps to t_final={t_final:g}: cannot "
                          f"allocate the records of their samples ({exc})") from exc

    # downward-only dissipation cannot grow the top-level population, so
    # only growth beyond the initial value signals truncation overflow
    top_limit = float(rho0.matrix[-1, -1].real) + TOP_LEVEL_TOLERANCE

    # Past a failing sample the values may overflow; the gates report it.
    # The pool starts its threads on first use and joins them on leaving
    # this block, also on a gate's raise (the products under way when it
    # raises run to their end), so none outlives the call: a pool kept
    # across calls would be inherited, threadless, by forked children, and a
    # live thread would stop ``runner.write_csv`` from forking.
    threads = usable_cpus()
    with np.errstate(over="ignore", invalid="ignore"), one_blas_thread(), \
            ThreadPoolExecutor(max(1, threads - 1)) as pool:
        gens = L.band_generators()
        x0 = to_bands(np.asarray(rho0.matrix))
        # without jump terms (gamma = 0) every M_q is diagonal
        if all(np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)) for m in gens):
            blocks = _diagonal_blocks(gens, x0, dt, nsamples)
        else:
            blocks = _dense_blocks(gens, x0, dt, nsamples, pool, threads)
        k0 = 0
        for a, n, tr, pur, top, last in blocks:
            blk = slice(k0, k0 + len(a))
            a_rec[blk], n_rec[blk], tr_rec[blk], pur_rec[blk] = a, n, tr, pur
            failure = _first_failure(times[blk], tr, pur, top, top_limit)
            if failure is not None:
                raise failure
            k0 += len(a)
        pop, off = last()

    d = L.space.dim
    final = np.diag(pop.astype(complex))
    lower = (np.concatenate([np.arange(q, d) for q in range(1, d)]),
             np.concatenate([np.arange(d - q) for q in range(1, d)]))
    final[lower] = off
    final[lower[::-1]] = off.conj()
    return Trajectory(times=times, a_expect=a_rec, n_expect=n_rec, trace=tr_rec,
                      purity=pur_rec, final=final)


#: Largest dimension for which the dense superoperator exponential is allowed.
EXPM_MAX_DIM = 12


def expm_propagate(L: Liouvillian, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """exp(L t) applied to rho0 through the dense superoperator.

    Cross-check path only: limited to dim <= 12 where the D^2 x D^2
    exponential (scaling-and-squaring Pade, via scipy) is cheap. The
    result is not symmetrized, so a Hermiticity defect above the
    DensityMatrix tolerance (1e-12) raises DomainError.
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
    import scipy.linalg  # only this cross-check needs scipy; keeps it out of CLI start-up

    prop = scipy.linalg.expm(L.matrix * t)
    rho = unvectorize(prop @ vectorize(np.asarray(rho0.matrix)), L.space.dim)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise StabilityError(f"superoperator exponential drifted trace to {tr!r}")
    return DensityMatrix(L.space, rho / tr)
