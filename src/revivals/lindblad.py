"""Lindblad generator and time propagation for a damped nonlinear mode.

``rk4_evolve`` is fixed-step classic Runge-Kutta. Because the Hamiltonian
is diagonal and the jump operators are ladder operators, the generator
never mixes diagonal bands of rho: band q, x_q[m] = rho[m+q, m], evolves
on its own under a (D-q) x (D-q) matrix M_q (the damping-basis structure
of Briegel & Englert, PRA 47, 3311 (1993)). For a time-independent linear
generator one RK4 step is exactly the matrix polynomial
R_q = I + hM_q + (hM_q)^2/2 + (hM_q)^3/6 + (hM_q)^4/24, so the step is
evaluated as that matrix, and samples come out in blocks of BLOCK_STEPS
steps as matrix products with powers of R_q. Without jump terms
(gamma = 0) every M_q is diagonal, and so is R_q: the step is then the
vector r = diag R over the stacked bands, read from the diagonals of the
M_q (``Liouvillian.band_diagonals``) with no M_q built. ``rk4_evolve``
builds a run's step once, r undamped and band 0's R_0 and its squares
damped, and hands it to both of the run's paths, the certificate below and
the full loop. Sample j of a block is the block-start state times r^j
elementwise, and the observables are products of the block-start state
with one table of r^j. One pass of that loop reads the observables of up
to CHUNK_BLOCKS blocks in one stacked product, one vector-matrix product
per block, so the Python work per pass is spread over many blocks and the
bytes are those of one block at a time. The steps, the time grid and the
recorded values are those of the stage-wise RK4 loop, up to rounding; only
the order of the floating-point operations differs. The final state's
upper triangle is the conjugate of its lower bands, so it is Hermitian by
construction.

Every damped path draws its blocks from one block stepper, ``_band_blocks``,
given each band's squares R_q, R_q^2, ..., R_q^BLOCK_STEPS (``_squares``):
the full run's bands in the calling process and the band child, the purity
bound's band groups, band 0 stepped alone and band 1's <a>. The full
(dense) path splits the bands between two processes: one forked band child
propagates the largest complex bands, 1..k-1, and pipes back <a> and its
part of the purity sum per block, while the calling process propagates
band 0 and bands k..D-1, continues that sum and checks the gates. Small
BLAS products on threads of one process contend for the GIL, so the child
is a process, forked by ``fanout.forked_children``. A run of one block,
or one where ``fanout.fork_slices`` allows a single process, draws the
child's records in the calling process. Every product runs on one OpenBLAS
thread, and the child's sum is continued in the order of one sum over all
rows, so the bytes do not depend on the split or on the fork. The module
starts no threads.

<a> reads band 1 alone. So an amplitude-only run (``amplitude_only=True``,
the nonlinearity scan's and every sweep point's) propagates band 1 only,
with the full loop's products and so its bytes, once a certificate shows
that no sample can fail a gate; ``Trajectory.certificate`` names the branch
and the narrowest gap to each gate. Undamped (``_certified``), band 0's
step factor is exactly 1, so the trace and the top level stay put, and the
purity is convex in time, so it peaks at an end. Damped, one purity bound
from block starts (``_purity_parts``) comes first: each band enters
through its exact sum over the first PREFIX_BLOCKS blocks, where the state
may still be pure, and past them through its block starts and the norms of
R_q's powers. Band 0 is one group, bands 1..D-1 stack into zero-padded
groups of up to GROUP_ROWS rows, and each group is one stacked band of the
stepper (``_group_bound``). Where the other gates hold in closed form from
band 0's squares (``_closed_form_gates``) and the bound holds, band 1 is
stepped alone; otherwise band 0 is stepped alone, its gates checked as the
full run checks them and its exact sum(x_0^2) in place of its block-start
part, up to the first block that fails (``_stepped_band0``). A bound kept
CERTIFICATE_MARGIN and the rounding allowance (``_rounding``) inside
1 + TRACE_TOLERANCE cannot fail the purity gate. Any other run (a failing
gate or bound, a value that is not finite) takes the full loop, which
raises what it raises without the flag.

This module holds the propagator only; the fork helpers, and the BLAS
thread count, live in ``fanout``. The dense superoperator that
cross-checks it is built independently in ``reference``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, StabilityError, TruncationError
from .fanout import fork_slices, forked_children, one_blas_thread
from .fock import DensityMatrix, FockSpace
from .hamiltonian import DiagonalHamiltonian, classical_period

#: Trace drift treated as an integration failure; purity above 1 by more
#: than this is one too.
TRACE_TOLERANCE = 1e-6

#: Top-level population treated as truncation overflow during evolution.
TOP_LEVEL_TOLERANCE = 1e-6

#: Growth per step, |r(dt lambda)| - 1, that ``default_dt`` allows any band.
STABLE_GROWTH = 1e-12

#: Steps per block of samples in ``rk4_evolve``; a power of two.
BLOCK_STEPS = 128

#: Full blocks whose observables one pass of the undamped block loop computes.
CHUNK_BLOCKS = 32

#: Distance inside each gate's bound that ``rk4_evolve(amplitude_only=True)``
#: requires of the closed-form values or bounds before it skips the gates' bands.
CERTIFICATE_MARGIN = 1e-12

#: Rows up to which ``_purity_parts`` stacks bands 1..D-1, each zero-padded
#: to its group's largest, into one product (``_band_groups``).
GROUP_ROWS = 128

#: Leading blocks of a damped amplitude-only run whose purity bound sums every
#: band exactly (``_purity_parts``) instead of bounding it from block starts: the
#: state may be pure at t = 0, where a bound of at least the purity cannot stay
#: below 1 + TRACE_TOLERANCE by much. A run whose bound fails past them steps
#: band 0 (``_stepped_band0``) or takes the full path.
PREFIX_BLOCKS = 2

#: Share of the damped band products' cost, (D - q)^2 for band q, that the
#: band child of ``_dense_blocks`` takes; the bytes do not depend on it.
BAND_CHILD_SHARE = 0.7


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

    def apply(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """drho/dt for a raw D x D array; O(D^2) elementwise work."""
        out = np.multiply(self._diag, rho, out=out)
        out[:-1, :-1] += self._w_down * rho[1:, 1:]
        if self._upward:
            out[1:, 1:] += self._w_up * rho[:-1, :-1]
        return out

    def band_diagonals(self) -> list[np.ndarray]:
        """The diagonals of the M_q of ``band_generators``, without building them.

        Band q's is band q of the elementwise part; band 0's is real. With
        gamma = 0 both jump weights are zero, so these are the whole M_q.
        """
        return [np.diagonal(self._diag).real] + [np.diagonal(self._diag, -q)
                                                 for q in range(1, self.space.dim)]

    def band_generators(self) -> list[np.ndarray]:
        """M_q with d x_q/dt = M_q x_q for each band of ``to_bands``.

        The coefficients are those of ``apply``: the diagonal of M_q is band
        q of the elementwise part (``band_diagonals``), the downward jump
        couples x_q[m] to x_q[m+1] and the upward one to x_q[m-1]. M_0 is
        real.
        """
        d = self.space.dim
        gens = []
        for q, diag in enumerate(self.band_diagonals()):
            m = np.diag(diag)
            if q < d - 1:
                m += np.diag(np.diagonal(self._w_down, -q), 1)
                if self._upward:
                    m += np.diag(np.diagonal(self._w_up, -q), -1)
            gens.append(m)
        return gens

    def omega_max(self) -> float:
        """Fastest phase plus decay scale, used for step-size control."""
        e = self.hamiltonian.energies
        decay = self.damping.gamma * (self.damping.n_thermal + 1.0) * self.space.dim
        return float(e[-1] - e[-2]) + decay


def build_liouvillian(h: DiagonalHamiltonian, d: DampingSpec) -> Liouvillian:
    return Liouvillian(h, d)


@dataclass
class Trajectory:
    """Observable time series plus the state at the last sample.

    An amplitude-only run (``rk4_evolve(amplitude_only=True)``) that took
    the band-1 path leaves n_expect, trace, purity and final empty; its
    certificate names the branch that certified it and the narrowest gap to
    each gate (``branch``, ``purity_gap``, ``trace_gap``, ``top_gap``).
    """

    times: np.ndarray
    a_expect: np.ndarray
    n_expect: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    final: np.ndarray
    certificate: dict | None = None
    # always empty; the benchmark's tracer still reads len(states)
    states: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)


def default_dt(L: Liouvillian, rho0: DensityMatrix) -> float:
    """Step size keeping dt * Omega_max <= 0.1 and >= 200 steps per T_cl,
    bisected down to the largest at which |r(dt lambda)| (``_rk4_step``)
    stays within 1 + STABLE_GROWTH for every eigenvalue lambda of every M_q.

    T_cl is evaluated at the wave packet's own center, the rounded mean
    photon number of the initial state. Without the upward term each M_q is
    diagonal or upper bidiagonal, so its diagonal (``band_diagonals``) holds
    the lambda.
    """
    n0 = max(1, round(expect_n_raw(rho0.matrix)))
    dt = min(0.1 / L.omega_max(), classical_period(L.hamiltonian, n0) / 200.0)
    upward = L.damping.full_equation and L.damping.n_thermal > 0
    lam = (np.concatenate([np.linalg.eigvals(m) for m in L.band_generators()]) if upward
           else np.concatenate(L.band_diagonals()))

    def grows(h: float) -> bool:
        return not np.max(np.abs(_rk4_step(lam, h))) <= 1.0 + STABLE_GROWTH

    if grows(dt):
        lo, hi = 0.0, dt
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (lo, mid) if grows(mid) else (mid, hi)
        dt = lo
    return dt


def _rk4_step(m: np.ndarray, dt: float) -> np.ndarray:
    """I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24: one RK4 step of dx/dt = M x.

    A 1-d m stands for the diagonal matrix diag(m) and gives the diagonal of
    the step, with the same operations as the 2-d form on that diagonal. A 3-d
    m is a stack of matrices and gives the stack of their steps.
    """
    hm = dt * m
    eye, mul = ((np.eye(m.shape[-1], dtype=m.dtype), np.matmul) if m.ndim > 1
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


# Both full-run generators below yield pieces of consecutive samples: the
# dense one a block of up to BLOCK_STEPS samples, the diagonal one a chunk of
# up to CHUNK_BLOCKS full blocks, or a run's last partial block alone. Each
# piece is the arrays <a>, <n>, trace, purity and top-level population, and
# last(): the bands (band 0, bands 1..D-1 stacked) of the piece's last
# sample, formed only when called (in every block, that cost the undamped
# scan 4-9%) and valid until the next piece is drawn; the dense one's works
# in a run's last block only, the one that reads the band child's last column.


def _band_split(d: int) -> int:
    """k such that the band child propagates bands 1..k-1, 2 <= k <= D.

    The child takes the largest complex bands, band 1 first, until their
    share of the summed (D - q)^2 reaches BAND_CHILD_SHARE.
    """
    cost = (d - np.arange(d)) ** 2
    share = np.cumsum(cost[1:]) / cost.sum()  # share[i]: bands 1..i+1
    return min(d, 2 + int(np.searchsorted(share, BAND_CHILD_SHARE)))


def _squares(p: np.ndarray):
    """p, p^2, p^4, ..., p^BLOCK_STEPS, each the square of the one before,
    made as they are drawn."""
    yield p
    for _ in range(BLOCK_STEPS.bit_length() - 1):
        p = p @ p
        yield p


def _powers(gens: list[np.ndarray], dt: float):
    """``_squares`` of each generator's RK4 step, made as ``_band_blocks`` draws it."""
    return (_squares(_rk4_step(m, dt)) for m in gens)


def _band_blocks(steps, x0: list[np.ndarray], nsamples: int, buffers: np.ndarray | None = None):
    """(first sample, block[..., :count]) per block of up to BLOCK_STEPS of
    nsamples samples of the bands x0 stacked row-wise: every damped path's
    block stepper.

    steps gives, per band, its step R_q and the squares of it up to R_q^B
    (``_squares``). The first block comes by doubling: columns [w, 2w) are
    R_q^w applied to [0, w). Each later block is R_q^B times the one before,
    written into buffers[i % len(buffers)] (by default two blocks), so a
    block is valid until len(buffers) - 1 more are drawn. A band may be a
    stack of padded bands with stacked steps (``_group_bound``).
    """
    nb = BLOCK_STEPS
    if buffers is None:
        dtype = np.result_type(*x0) if x0 else complex  # no far bands at small D
        buffers = np.empty((2, sum(len(x) for x in x0), nb), dtype=dtype)
    rows = np.cumsum([0] + [len(x) for x in x0])
    bands = [[b[lo:hi] for lo, hi in zip(rows[:-1], rows[1:])] for b in buffers]
    powers = []
    for x, xq, squares in zip(bands[0], x0, steps):
        x[..., 0] = xq
        width = 1
        for p in squares:
            if width < nb:
                np.matmul(p, x[..., :width], out=x[..., width:2 * width])
            width *= 2
        powers.append(p)  # R^B
    ring = len(buffers)
    for i, k0 in enumerate(range(0, nsamples, nb)):
        if i > 0:
            for p, x, y in zip(powers, bands[(i - 1) % ring], bands[i % ring]):
                np.matmul(p, x, out=y)
        yield k0, buffers[i % ring][..., :min(nb, nsamples - k0)]


def _band_child(gens: list[np.ndarray], x0: list[np.ndarray], dt: float, nsamples: int):
    """The band child's part of a damped run, bands 1..k-1, as bytes.

    Per block: <a> from band 1, then the purity sums of the float view of
    these bands' rows (re^2 and im^2 per sample, summed over the rows).
    After the last block: the last column of these bands.
    """
    d = len(x0[0]) + 1  # band 1 has D - 1 entries
    sqrt_n = np.sqrt(np.arange(1.0, d))
    for _, off in _band_blocks(_powers(gens, dt), x0, nsamples):
        v = off.view(np.float64)
        yield (sqrt_n @ off[:d - 1]).tobytes() + np.einsum("ij,ij->j", v, v).tobytes()
    yield off[:, -1].tobytes()


def _dense_blocks(band0: list[np.ndarray], gens: list[np.ndarray], x0: list[np.ndarray],
                  dt: float, nsamples: int):
    """The full damped run's blocks, from the band child's records
    (``_band_child``, bands 1..k-1, ``_band_split``) and the caller's band 0,
    stepped by its squares band0 (``_squares``), and bands k..D-1. The child
    runs in a forked process (``fanout.forked_children``), working ahead
    while the pipe holds its records, where ``fanout.fork_slices`` allows
    more than one slice for the run's blocks, so more than one process and
    more than one block; otherwise the caller draws them itself, and no
    child is forked. The caller continues the child's purity sums row by
    row over its own rows, as the einsum over all rows adds them, so the
    bytes do not depend on k or on the fork.
    """
    d = len(gens)
    nb = BLOCK_STEPS
    k = _band_split(d)
    split = sum(len(x) for x in x0[1:k])  # rows of bands 1..k-1
    child = _band_child(gens[1:k], x0[1:k], dt, nsamples)
    pops = _band_blocks([band0], x0[:1], nsamples)
    owns = _band_blocks(_powers(gens[k:], dt), x0[k:], nsamples)
    levels = np.arange(float(d))
    # row 0 takes the child's sums, the others the squares of own rows
    squares = np.empty((1 + sum(len(x) for x in x0[k:]), 2 * nb))
    what = f"the band child propagating bands 1..{k - 1}"
    tail = None

    def last():
        return pop[:, -1], np.concatenate([tail, own[:, -1]])

    producers = [lambda: child] if fork_slices(-(-nsamples // nb)) > 1 else []
    with forked_children(what, producers) as pipes:
        recv = pipes[0].read if pipes else lambda n: next(child)

        def exactly(n: int) -> bytes:
            data = recv(n)
            if len(data) != n:
                raise OSError(f"{what} sent {len(data)} of {n} bytes")
            return data

        for (k0, pop), (_, own) in zip(pops, owns):
            count = pop.shape[1]
            record = exactly(32 * count)
            sq = squares[:, :2 * count]
            sq[0] = np.frombuffer(record, np.float64, offset=16 * count)
            np.square(own.view(np.float64), out=sq[1:])
            sq = np.add.reduce(sq, axis=0)
            if k0 + nb >= nsamples:
                tail = np.frombuffer(exactly(16 * split), complex)
            yield (np.frombuffer(record, complex, count), levels @ pop, pop.sum(axis=0),
                   np.einsum("ij,ij->j", pop, pop) + 2.0 * (sq[0::2] + sq[1::2]),
                   pop[-1], last)


def _power_table(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """table[:, j] = r^j for j < BLOCK_STEPS, by the doubling of the dense
    path, and r^BLOCK_STEPS, the step factor of one block."""
    nb = BLOCK_STEPS
    table = np.empty((len(r), nb), dtype=complex)
    table[:, 0] = 1.0
    p, width = r, 1
    while width < nb:
        np.multiply(p[:, None], table[:, :width], out=table[:, width:2 * width])
        p = p * p
        width *= 2
    return table, p


def _block_starts(x: np.ndarray, p: np.ndarray, nsamples: int):
    """Chunks (starts, count) of the block starts of an elementwise run: up
    to CHUNK_BLOCKS full blocks of ``count`` = BLOCK_STEPS samples, and a
    run's last partial block alone, with its own count.

    starts[i] is the state at the start of block i of the chunk: x itself at
    block 0 of the run, else the row before times p, written into the row
    by one ``np.multiply``. (``np.multiply.accumulate`` runs another complex
    loop and moves the bytes.) x is left equal to the chunk's last row.
    """
    nb = BLOCK_STEPS
    nfull, rest = divmod(nsamples, nb)
    chunks = [(b0, min(CHUNK_BLOCKS, nfull - b0), nb) for b0 in range(0, nfull, CHUNK_BLOCKS)]
    if rest:
        chunks.append((nfull, 1, rest))
    for b0, nrows, count in chunks:
        starts = np.empty((nrows, len(x)), dtype=complex)
        if b0 > 0:
            np.multiply(x, p, out=starts[0])
        else:
            starts[0] = x
        for i in range(1, nrows):
            np.multiply(starts[i - 1], p, out=starts[i])
        x[...] = starts[-1]
        yield starts, count


def _rows(v: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row i of v times t, one vector-matrix product per row: the BLAS call
    of v[i] @ t, so the bytes do not depend on the chunk size. The rows come
    flat, written into out when given."""
    if out is not None:
        out = out.reshape(len(v), 1, t.shape[1])
    return np.matmul(v[:, None, :], t, out=out)[:, 0, :].reshape(-1)


def _diagonal_blocks(x: np.ndarray, r: np.ndarray, d: int, nsamples: int):
    """Blocks as elementwise products of the band states with powers of diag R_q.

    Only valid when every M_q is diagonal: then so is R_q, and sample j of a
    block is x(block start) * r^j, with x the D bands stacked into one
    complex vector and r the stacked diagonals of the R_q. x is stepped in
    place. A chunk holds up to CHUNK_BLOCKS full blocks; a run's last
    partial block comes alone, against the first ``count`` columns of the
    table.
    """
    table, p = _power_table(r)
    abs2 = table.real ** 2 + table.imag ** 2
    weight = np.full(len(x), 2.0)  # each band q >= 1 also stands for band -q
    weight[:d] = 1.0
    sqrt_n = np.sqrt(np.arange(1.0, d))
    levels = np.arange(float(d))

    def last() -> tuple[np.ndarray, np.ndarray]:
        v = x * table[:, count - 1]
        return v[:d].real, v[d:]

    for starts, count in _block_starts(x, p, nsamples):
        t = table[:, :count]
        pop = starts[:, :d]
        yield (_rows(sqrt_n * starts[:, d:2 * d - 1], t[d:2 * d - 1]),
               _rows(levels * pop, t[:d]).real,
               _rows(pop, t[:d]).real,
               _rows(weight * (starts.real ** 2 + starts.imag ** 2), abs2[:, :count]),
               (pop[:, -1:] * t[d - 1]).real.reshape(-1), last)


def _rounding(nsamples: int, d: int) -> float:
    """Relative rounding allowed between a certified purity and the one the
    block loop computes: 16 (N + 2 BLOCK_STEPS + D^2) eps for N samples."""
    return 16 * (nsamples + 2 * BLOCK_STEPS + d * d) * np.finfo(float).eps


def _certified(x: np.ndarray, r: np.ndarray, d: int, nsamples: int,
               top_limit: float) -> dict | None:
    """The certificate of an undamped run whose every sample is shown in
    closed form to pass every gate (branch "closed_form"), with the gaps to
    the purity, trace and top-level gates; None where that cannot be shown.

    x and r are the stacked bands and step factors of ``_diagonal_blocks``.
    Band 0's factor must be exactly 1.0, so x_0 never changes: the trace
    stays sum(x_0) and the top level x_0[D-1], and band 0's sum(x_0^2) > 0
    bounds the purity below. The purity P(j) = sum_i w_i |x_i|^2 |r_i|^(2j)
    is a positive sum of exponentials in j, so it is convex and its largest
    value is P(0) or P(N). Each check keeps CERTIFICATE_MARGIN inside its
    bound; P(0) and P(N) also keep the rounding of the N step products that
    the block loop makes (``_rounding``). A check that is not finite fails.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(r)) and np.all(r[:d] == 1.0)):
        return None
    pop = x[:d].real
    w = np.full(len(x), 2.0)
    w[:d] = 1.0
    mass = w * (x.real ** 2 + x.imag ** 2)
    ends = max(mass.sum(), np.dot(mass, (r.real ** 2 + r.imag ** 2) ** (nsamples - 1)))
    drift, purity = abs(pop.sum() - 1.0), ends * (1.0 + _rounding(nsamples, d))
    if not (drift <= TRACE_TOLERANCE - CERTIFICATE_MARGIN
            and pop[-1] <= top_limit - CERTIFICATE_MARGIN
            and np.dot(pop, pop) > 0.0
            and purity <= 1.0 + TRACE_TOLERANCE - CERTIFICATE_MARGIN):
        return None
    return {"branch": "closed_form", "purity_gap": float(1.0 + TRACE_TOLERANCE - purity),
            "trace_gap": float(TRACE_TOLERANCE - drift), "top_gap": float(top_limit - pop[-1])}


def _band1_amplitude(x: np.ndarray, r: np.ndarray, d: int, top_limit: float,
                     out: np.ndarray) -> dict | None:
    """<a> of an undamped run into out, from band 1 alone, and its certificate;
    None, with out unspecified, where ``_certified`` fails or <a> is not finite.

    x and r are the stacked bands and step factors of ``_diagonal_blocks``,
    whose operations on band 1 these are, so the bytes are too: the bands
    never mix, and <a> reads band 1 only. Band 1 is stepped in a copy, so x
    is left as it came for the full path.
    """
    cert = _certified(x, r, d, len(out), top_limit)
    if cert is None:
        return None
    x1, r1 = x[d:2 * d - 1].copy(), r[d:2 * d - 1]
    sqrt_n = np.sqrt(np.arange(1.0, d))
    table, p = _power_table(r1)
    k0 = 0
    for starts, count in _block_starts(x1, p, len(out)):
        k1 = k0 + len(starts) * count
        _rows(sqrt_n * starts, table[:, :count], out[k0:k1])
        k0 = k1
    return cert if np.all(np.isfinite(out)) else None


def _abs2(x: np.ndarray) -> np.ndarray:
    """sum_i |x[..., i, j]|^2 for each column j of an array or stack of arrays;
    a complex one is read from its float view, as the band child reads its rows."""
    if not np.iscomplexobj(x):
        return np.einsum("...ij,...ij->...j", x, x)
    v = x.view(np.float64)
    s = np.einsum("...ij,...ij->...j", v, v)
    return s[..., 0::2] + s[..., 1::2]


def _band_groups(d: int) -> list[slice]:
    """Band 0 alone, then bands 1..D-1 in groups of consecutive bands,
    max(1, GROUP_ROWS // size) to a group, size = D - q of its first band q,
    the group's largest."""
    groups, q = [slice(0, 1)], 1
    while q < d:
        n = max(1, GROUP_ROWS // (d - q))
        groups.append(slice(q, min(d, q + n)))
        q += n
    return groups


def _group_bound(squares, x: np.ndarray, exact: np.ndarray, starts: np.ndarray,
                 weight: float) -> None:
    """Add one group's part of the purity bound (``_purity_parts``): weight
    sum |x_q|^2 over the exact prefix's samples to exact, (prefix blocks,
    BLOCK_STEPS), and weight sum g_q |y_q(i)|^2 to starts, per block i.

    x stacks the group's bands, zero-padded to the first, largest, one, and
    squares are those of their stacked steps blockdiag(R_q, 0) (``_squares``),
    whose powers are zero on the padding, exactly: one stacked band of
    ``_band_blocks``. Its first blocks are the prefix; as they draw R, ...,
    R^B, g_q takes max(1, ||p||_1 ||p||_inf) of each power p but R^B. The
    block starts are the samples of a run whose step is R^B, in the same two
    blocks. A group of real bands (band 0's) runs in real arithmetic.
    """
    nb = BLOCK_STEPS
    g, kept = np.ones(len(x)), []

    def noted(squares):
        for k, p in enumerate(squares, 1):
            if k < nb.bit_length():  # every power but R^B
                a = np.abs(p)
                g[:] *= np.maximum(1.0, a.sum(axis=1).max(axis=1) * a.sum(axis=2).max(axis=1))
            yield p
        kept.append(p)

    buffers = np.empty((2, *x.shape, nb), dtype=x.dtype)
    for i, (_, block) in enumerate(_band_blocks([noted(squares)], [x], len(exact) * nb, buffers)):
        exact[i] += weight * _abs2(block).sum(axis=0)
    if len(starts) > len(exact):
        for i, y in _band_blocks([_squares(kept[0])], [x], len(starts), buffers):
            starts[i:i + y.shape[-1]] += weight * (g @ _abs2(y))


def _purity_parts(band0: list[np.ndarray], gens: list[np.ndarray], x0: list[np.ndarray],
                  dt: float, nsamples: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of a damped run's purity bound that band 0 (index 0) and
    bands 1..D-1 (index 1) give, each from block starts past an exact prefix.

    exact[p] is the part's exact sum over the first PREFIX_BLOCKS blocks,
    (prefix blocks, BLOCK_STEPS), and starts[p][i] its bound over block i,
    sum w_q g_q |y_q(i)|^2 with w_0 = 1 and w_q = 2 for q >= 1 (band q also
    stands for band -q). Band 0, whose step R_0 and its squares band0 gives
    (``_squares``), and the groups of ``_band_groups`` run through
    ``_group_bound``.

    The purity is sum_q w_q |x_q|^2. Past the prefix, band q enters through
    its block start y_q(i) = (R_q^B)^i x_q alone. Sample s of block i is
    R_q^s y_q(i), and s < BLOCK_STEPS is a sum of distinct powers of two,
    so |R_q^s y_q(i)|^2 <= g_q |y_q(i)|^2 with
    g_q = prod_{2^k < BLOCK_STEPS} max(1, nu(R_q^(2^k)))^2 and
    nu(A) = sqrt(||A||_1 ||A||_inf), which is at least the spectral norm of
    A. The bound needs neither a normal R_q nor a purity that only falls.
    """
    nblocks = -(-nsamples // BLOCK_STEPS)
    exact = np.zeros((2, min(nblocks, PREFIX_BLOCKS), BLOCK_STEPS))
    starts = np.zeros((2, nblocks))
    _group_bound((p[None] for p in band0), x0[0][None], exact[0], starts[0], 1.0)
    for group in _band_groups(len(gens))[1:]:
        bands = x0[group]
        x = np.zeros((len(bands), len(bands[0])), dtype=np.result_type(*gens[group], *bands))
        m = np.zeros((*x.shape, x.shape[1]), dtype=x.dtype)
        for b, (mq, xq) in enumerate(zip(gens[group], bands)):
            m[b, :len(xq), :len(xq)] = mq
            x[b, :len(xq)] = xq
        step = _rk4_step(m, dt)
        for b, xq in enumerate(bands):
            step[b, len(xq):, len(xq):] = 0.0
        _group_bound(_squares(step), x, exact[1], starts[1], 2.0)
    return exact, starts


def _closed_form_gates(squares: list[np.ndarray], x: np.ndarray, nsamples: int,
                       top_limit: float) -> tuple[float, float] | None:
    """The gaps (trace, top level) to their gates that no sample of a damped
    run can close, read from band 0's start x and the squares R_0, R_0^2,
    ..., R_0^B that its block loop multiplies by (``_squares``); None where
    the trace, top-level or purity-low gate cannot be shown to hold so.

    Sample s of band 0 is x times at most BLOCK_STEPS.bit_length() - 1 of
    the powers below R_0^B and nblocks - 1 of R_0^B. Each product moves the
    sum of a vector v by at most e ||v||_1, e the largest defect of the
    power's column sums from 1, and multiplies ||v||_1 by at most the
    power's ||.||_1; the rounding of the products and sums is inside
    ``_rounding`` times the largest such norm. So the trace drifts from
    sum(x) by at most the sum of those e times the largest ||v||_1. With
    a last row of every power zero off the diagonal, exactly, and a diagonal
    entry of at most 1 there, the top level is x[D-1] times those entries,
    rounded, so it never grows in size; a thermal (upward) term breaks this.
    The trace's drift keeps CERTIFICATE_MARGIN inside TRACE_TOLERANCE, and
    the top level inside top_limit. The purity is then at least
    sum(x_0^2) >= trace^2 / D >= (1 - TRACE_TOLERANCE)^2 / D > 0, so its
    lower gate holds too. A check that is not finite fails.
    """
    d, nb = len(x), BLOCK_STEPS
    nblocks = -(-nsamples // nb)
    if not (np.all(np.isfinite(x)) and all(np.all(np.isfinite(p)) for p in squares)
            and all(np.all(p[-1, :-1] == 0.0) and abs(p[-1, -1]) <= 1.0 for p in squares)):
        return None
    defects = [float(np.abs(p.sum(axis=0) - 1.0).max()) for p in squares]
    norms = [max(1.0, float(np.abs(p).sum(axis=0).max())) for p in squares]
    rounding = _rounding(nsamples, d)
    size = (float(np.abs(x).sum()) * math.prod(norms[:-1]) * norms[-1] ** (nblocks - 1)
            * (1.0 + rounding))  # the largest ||v||_1
    drift = abs(float(x.sum()) - 1.0) + size * (
        sum(defects[:-1]) + (nblocks - 1) * defects[-1] + rounding * max(norms))
    if not (drift <= TRACE_TOLERANCE - CERTIFICATE_MARGIN
            and abs(x[-1]) <= top_limit - CERTIFICATE_MARGIN):
        return None
    return float(TRACE_TOLERANCE - drift), top_limit - abs(float(x[-1]))


def _stepped_band0(squares: list[np.ndarray], x: np.ndarray, times: np.ndarray,
                   top_limit: float, starts: np.ndarray, limit: float
                   ) -> tuple[float, float] | None:
    """Step band 0 alone from x as the full run does, by its squares, and
    check its trace, top level and sum(x_0^2) with ``_first_failure``; the
    gaps (trace, top level) to their gates, or None at the first block where
    a sample fails or, past the prefix, the purity bound exceeds limit.

    starts holds the bound's two parts per block (``_purity_parts``); each
    block's largest sum(x_0^2) takes the place of band 0's (the prefix's
    bound already sums band 0 exactly). No record is kept per sample.
    """
    drift = top = 0.0
    for k0, pop in _band_blocks([squares], [x], len(times)):
        trace, low = pop.sum(axis=0), np.einsum("ij,ij->j", pop, pop)
        if _first_failure(times[k0:k0 + len(low)], trace, low, pop[-1], top_limit) is not None:
            return None
        block = k0 // BLOCK_STEPS
        starts[0, block] = low.max()
        if block >= PREFIX_BLOCKS and not starts[:, block].sum() <= limit:
            return None
        drift, top = max(drift, float(np.abs(trace - 1.0).max())), max(top, float(pop[-1].max()))
    return TRACE_TOLERANCE - drift, top_limit - top


def _damped_amplitude(band0: list[np.ndarray], gens: list[np.ndarray], x0: list[np.ndarray],
                      dt: float, times: np.ndarray, top_limit: float, out: np.ndarray
                      ) -> dict | None:
    """<a> of a damped run into out, from band 1 alone, and its certificate
    (branch, and the gaps to the purity, trace and top-level gates); None,
    with out unspecified, where the certificate fails or <a> is not finite.

    band0 holds band 0's step R_0 and its squares (``_squares``), which the
    bound's band-0 group, the closed-form gates and the stepped band 0
    share with the full path. The purity bound
    (``_purity_parts``), its parts summed, must keep CERTIFICATE_MARGIN and
    ``_rounding`` inside 1 + TRACE_TOLERANCE at every sample, first over the
    prefix. Where the other gates hold in closed form (``_closed_form_gates``)
    and the bound holds past the prefix, the branch is "block_starts";
    otherwise band 0 is stepped alone (``_stepped_band0``, "stepped_band0").
    Only then is band 1 stepped, through the full run's products.
    """
    nsamples, d = len(out), len(gens)
    rounding = _rounding(nsamples, d)
    limit = (1.0 + TRACE_TOLERANCE - CERTIFICATE_MARGIN) / (1.0 + rounding)
    exact, starts = _purity_parts(band0, gens, x0, dt, nsamples)
    prefix = exact.sum(axis=0).reshape(-1)[:nsamples]
    if not np.all(prefix <= limit):
        return None
    branch, gaps = "block_starts", _closed_form_gates(band0, x0[0], nsamples, top_limit)
    if not gaps or not np.all(starts.sum(axis=0)[exact.shape[1]:] <= limit):
        branch = "stepped_band0"
        gaps = _stepped_band0(band0, x0[0], times, top_limit, starts, limit)
        if not gaps:
            return None
    sqrt_n = np.sqrt(np.arange(1.0, d))
    for k0, x1 in _band_blocks(_powers(gens[1:2], dt), x0[1:2], nsamples):
        out[k0:k0 + x1.shape[1]] = sqrt_n @ x1
    if not np.all(np.isfinite(out)):
        return None
    bound = max(prefix.max(), starts.sum(axis=0)[exact.shape[1]:].max(initial=0.0))
    return {"branch": branch, "purity_gap": float(1.0 + TRACE_TOLERANCE - bound * (1 + rounding)),
            "trace_gap": gaps[0], "top_gap": gaps[1]}


def rk4_evolve(L: Liouvillian, rho0: DensityMatrix, t_final: float,
               dt: float = 0.0, *, amplitude_only: bool = False) -> Trajectory:
    """Propagate rho0 to t_final with classic fixed-step RK4.

    Observables are recorded every step, the full state only at the last
    one (``Trajectory.final``). The trace is monitored, never renormalized.
    Every band product runs on one OpenBLAS thread (``one_blas_thread``).
    With damping and more than one block of samples, the largest bands run
    in one band child, forked by ``fanout.forked_children`` where
    ``fanout.fork_slices`` allows it (see ``_dense_blocks``), which is
    killed and reaped before this returns or raises. The result does not
    depend on the fork. Undamped runs, and the rest, use the calling
    process only; no thread is started. Whether a run is undamped is read
    from ``L.damping.gamma == 0``, which zeroes both jump weights: such a
    run reads its step factors from ``L.band_diagonals()`` and builds no
    dense M_q (``band_generators``).

    Raises StabilityError when the trace drifts by more than
    TRACE_TOLERANCE or when the purity leaves (0, 1 + TRACE_TOLERANCE];
    raises TruncationError when the top-level population grows by more than
    TOP_LEVEL_TOLERANCE (possible only with the full equation at
    n_thermal > 0). NaN fails every gate. The error names the first failing
    time. A DomainError names the step count whose records cannot be allocated.

    With ``amplitude_only`` a run whose certificate holds at every sample
    (``_band1_amplitude`` undamped, ``_damped_amplitude`` damped) propagates
    band 1 alone and forks nothing: ``times`` and ``a_expect`` are
    byte-identical to the full run's, ``n_expect``, ``trace``, ``purity``
    and ``final`` are empty, and ``certificate`` is set. An uncertified or
    non-finite run takes the full path, band child included, which raises
    as it would without the flag.
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
    cannot = (f"{steps:.6g} steps to t_final={t_final:g}: cannot allocate the records "
              "of their samples")
    try:  # an infinite step count cannot be rounded, a huge one not allocated
        nsteps = max(1, math.ceil(steps - 1e-12))
        dt = t_final / nsteps
        nsamples = nsteps + 1
        times = np.arange(nsamples) * dt
        a_rec = np.empty(nsamples, dtype=complex)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise DomainError(f"{cannot} ({exc})") from exc

    # downward-only dissipation cannot grow the top-level population, so
    # only growth beyond the initial value signals truncation overflow
    top_limit = float(rho0.matrix[-1, -1].real) + TOP_LEVEL_TOLERANCE
    d = L.space.dim

    # Past a failing sample the values may overflow; the gates report it.
    # Closing the blocks on a gate's raise kills and reaps the band child.
    with np.errstate(over="ignore", invalid="ignore"), one_blas_thread():
        x0 = to_bands(np.asarray(rho0.matrix))
        # gamma = 0 zeroes both jump weights, so every M_q is diagonal;
        # gamma > 0 makes the downward one nonzero. The step is built once,
        # for the certificate and the full path alike
        if L.damping.gamma == 0:
            x, r = np.concatenate(x0), _rk4_step(np.concatenate(L.band_diagonals()), dt)
            cert = amplitude_only and _band1_amplitude(x, r, d, top_limit, a_rec)
            blocks = _diagonal_blocks(x, r, d, nsamples)
        else:
            gens = L.band_generators()
            band0 = list(_squares(_rk4_step(gens[0], dt)))
            cert = amplitude_only and _damped_amplitude(band0, gens, x0, dt, times, top_limit,
                                                        a_rec)
            blocks = _dense_blocks(band0, gens, x0, dt, nsamples)
        if cert:
            return Trajectory(times=times, a_expect=a_rec, n_expect=np.empty(0),
                              trace=np.empty(0), purity=np.empty(0),
                              final=np.empty((0, 0), dtype=complex), certificate=cert)
        try:  # the full loop's other records, which a certified run never holds
            n_rec, tr_rec, pur_rec = (np.empty(nsamples) for _ in range(3))
        except MemoryError as exc:
            raise DomainError(f"{cannot} ({exc})") from exc
        k0 = 0
        with contextlib.closing(blocks):
            for a, n, tr, pur, top, last in blocks:
                blk = slice(k0, k0 + len(a))
                a_rec[blk], n_rec[blk], tr_rec[blk], pur_rec[blk] = a, n, tr, pur
                failure = _first_failure(times[blk], tr, pur, top, top_limit)
                if failure is not None:
                    raise failure
                k0 += len(a)
        pop, off = last()

    final = np.diag(pop.astype(complex))
    lower = (np.concatenate([np.arange(q, d) for q in range(1, d)]),
             np.concatenate([np.arange(d - q) for q in range(1, d)]))
    final[lower] = off
    final[lower[::-1]] = off.conj()
    return Trajectory(times=times, a_expect=a_rec, n_expect=n_rec, trace=tr_rec,
                      purity=pur_rec, final=final)

