"""Experiment execution: evolve, analyze, and write CSV / manifest / plot script.

Output layout per run NAME in the output directory (env REVIVALS_OUT_DIR or
./out):

    NAME.csv            the trajectory table (schema below)
    NAME.manifest.json  resolved parameters, derived scales, analysis summary,
                        stage timings
    NAME_plot.py        standalone matplotlib script reading NAME.csv

CSV bodies are byte-identical across runs of the same config; only the
manifest carries timestamps. ``write_csv`` formats a run's rows, and
``run_sweep`` runs its points, in slices of forked processes (``fanout``);
neither the bytes nor the rows depend on the slice count.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (ClassifierThresholds, FirstRevival, RevivalReport,
                       detect_revivals, extract_envelope, first_revival_peak)
from .config import ExperimentConfig
from .csvtext import format_rows
from .errors import ConfigError, RevivalsError
from .fanout import (fork_slice, fork_slices, forked_children, one_blas_thread,
                     run_slices)
from .fock import (DensityMatrix, FockSpace, coherent_state, density_from_pure,
                   displaced_number_state)
from .hamiltonian import (Timescales, build_hamiltonian, default_n0,
                          modulus_revival_period, timescales_closed_form)
from .lindblad import DampingSpec, Liouvillian, Trajectory, build_liouvillian, rk4_evolve

CSV_HEADER = "t,re_a,im_a,abs_a,n_expect,trace,purity"

SWEEP_HEADER = ("param_value,classification,n_revivals,first_revival_t,"
                "first_revival_amp,predicted_t_rev,predicted_t_sr")

SWEEP_AXES = ("gamma", "b", "state_n")

#: Rows formatted per write in ``write_csv``.
CSV_CHUNK_ROWS = 1024


def _out_dir(out_dir: Path | None) -> Path:
    """out_dir, else REVIVALS_OUT_DIR, else ./out; created if missing."""
    if out_dir is None:
        out_dir = os.environ.get("REVIVALS_OUT_DIR", "out")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


@dataclass(frozen=True)
class RunContext:
    """Config resolved into model objects and derived scales."""

    config: ExperimentConfig
    liouvillian: Liouvillian
    rho0: DensityMatrix
    n0: int
    predicted: Timescales | None
    period: float | None          # modulus-revival period, None for b = 0 / k = 1
    window: float                 # envelope window (t_cl, or 2 pi / omega0 for b = 0)


def resolve(config: ExperimentConfig) -> RunContext:
    config.require_valid()
    space = FockSpace(config.dim)
    h = build_hamiltonian(space, config.omega0, config.b, config.nonlinearity_order)
    damping = DampingSpec(gamma=config.gamma, n_thermal=config.n_thermal,
                          full_equation=config.full_equation)
    n0 = default_n0(config.alpha, config.state_n)
    if config.b > 0 and config.nonlinearity_order in (2, 3):
        predicted = timescales_closed_form(h, n0)
        window = predicted.t_cl
    else:
        predicted = None
        window = 2 * math.pi / config.omega0
    L = build_liouvillian(h, damping)
    rho0 = density_from_pure(
        coherent_state(space, config.alpha) if config.state_n == 0
        else displaced_number_state(space, config.alpha, config.state_n))
    return RunContext(config=config, liouvillian=L, rho0=rho0, n0=n0,
                      predicted=predicted, period=modulus_revival_period(h),
                      window=window)


def evolve(ctx: RunContext, amplitude_only: bool = False) -> Trajectory:
    """RK4 run of the resolved model at the config's dt (0: ``rk4_evolve``'s
    automatic step); runs record observables, not states. ``amplitude_only``
    is ``rk4_evolve``'s: <a> alone where the gates are certified."""
    return rk4_evolve(ctx.liouvillian, ctx.rho0, ctx.config.t_final, dt=ctx.config.dt,
                      amplitude_only=amplitude_only)


@dataclass(frozen=True)
class AnalysisSummary:
    report: RevivalReport
    first_revival: FirstRevival | None


def analyze(ctx: RunContext, traj: Trajectory) -> AnalysisSummary:
    env = extract_envelope(traj, ctx.window)
    thresholds = ClassifierThresholds(
        linear_classical_period=2 * math.pi / ctx.config.omega0)
    report = detect_revivals(env, ctx.predicted, thresholds,
                             damped=ctx.config.gamma > 0, require_full_span=False)
    first = None
    if ctx.period is not None and traj.times[-1] >= 1.1 * ctx.period:
        first = first_revival_peak(env, ctx.period)
    return AnalysisSummary(report=report, first_revival=first)


def _solve(config: ExperimentConfig, timing: dict, amplitude_only: bool = False
           ) -> tuple[RunContext, Trajectory, AnalysisSummary]:
    """resolve, evolve (passing ``amplitude_only``) and analyze config, through
    the module globals that the benchmark's tracer wraps; timing gets the
    seconds of each finished stage."""
    clock = time.perf_counter()

    def lap(stage: str, result):
        nonlocal clock
        now = time.perf_counter()
        timing[stage], clock = now - clock, now
        return result

    ctx = lap("resolve_s", resolve(config))
    traj = lap("evolve_s", evolve(ctx, amplitude_only=amplitude_only))
    return ctx, traj, lap("analyze_s", analyze(ctx, traj))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, traj: Trajectory) -> None:
    """The trajectory table, formatted in contiguous slices of its rows.

    One slice per process from ``fanout.fork_slices``, of whole
    CSV_CHUNK_ROWS chunks. The calling process formats the first slice and
    streams it to the file chunk by chunk; forked children
    (``fanout.fork_slice``) format the others, whose bytes follow in order.
    Every child is reaped before this returns or raises. A child that fails
    raises OSError; a failed child or write leaves no CSV.
    """
    data = [traj.times, traj.a_expect.real, traj.a_expect.imag, np.abs(traj.a_expect),
            traj.n_expect, traj.trace, traj.purity]

    def formatted(starts):
        # the bytes of _fmt per value; the chunks bound the temporaries
        for k in starts:
            yield format_rows([c[k:k + CSV_CHUNK_ROWS] for c in data])

    starts = range(0, len(traj.times), CSV_CHUNK_ROWS)
    n = max(1, min(fork_slices(), len(starts)))
    bounds = [len(starts) * i // n for i in range(n + 1)]
    fh = open(path, "wb")
    try:
        with fh, forked_children(f"{path.name}: the processes formatting CSV "
                                 f"slices 2..{n}") as children:
            # a list, so that each child formats its whole slice while the
            # parent formats the first, not waiting on a pipe read only after
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(fork_slice(lambda lo=lo, hi=hi: list(formatted(starts[lo:hi]))))
            fh.write((CSV_HEADER + "\n").encode())
            for text in formatted(starts[:bounds[1]]):
                fh.write(text)
            for _, pipe in children:
                shutil.copyfileobj(pipe, fh)
    except BaseException:
        path.unlink()
        raise


PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render {name}: generated plot script, reads the run CSV next to it."""
import numpy as np
import matplotlib.pyplot as plt

data = np.genfromtxt("{csv}", delimiter=",", names=True)
fig, ax = plt.subplots(figsize=(9, 4))
for column, style in {series!r}:
    ax.plot(data["t"], data[column], label=column, **style)
ax.set_xlabel("t (a.u.)")
ax.set_ylabel("amplitude expectation")
ax.set_title({title!r})
ax.legend()
fig.tight_layout()
fig.savefig("{name}.png", dpi=150)
print("wrote {name}.png")
'''


#: (CSV column, matplotlib line style) of each plotted series
PLOT_SERIES = [("re_a", {"lw": 0.6}), ("abs_a", {"lw": 1.0, "alpha": 0.7})]


def write_plot_script(path: Path, name: str, csv_name: str, title: str) -> None:
    path.write_text(PLOT_TEMPLATE.format(name=name, csv=csv_name,
                                         series=PLOT_SERIES, title=title),
                    encoding="utf-8")


def _write_manifest(out: Path, name: str, body: dict, t_wall: float) -> Path:
    """NAME.manifest.json: name, version, body, wall time since t_wall, timestamp."""
    manifest = {"name": name, "version": __version__, **body,
                "wall_time_s": time.perf_counter() - t_wall,
                "timestamp_utc": datetime.now(timezone.utc).isoformat()}
    path = out / f"{name}.manifest.json"
    # NumPy scalars and arrays; np.float64 is a float and needs no conversion
    path.write_text(json.dumps(manifest, indent=2, default=lambda x: x.tolist()) + "\n",
                    encoding="utf-8")
    return path


@dataclass(frozen=True)
class RunResult:
    name: str
    trajectory: Trajectory
    summary: AnalysisSummary
    csv_path: Path
    manifest_path: Path
    plot_path: Path


def run_experiment(config: ExperimentConfig, name: str = "run",
                   out_dir: Path | None = None) -> RunResult:
    """Evolve one configuration and write its CSV, manifest and plot script."""
    out = _out_dir(out_dir)
    t_wall = time.perf_counter()
    # seconds per stage; write_s is the CSV and the plot script, csv_s the
    # CSV alone, while the manifest's own write falls in wall_time_s
    timing = {}
    ctx, traj, summary = _solve(config, timing)
    t_analyzed = time.perf_counter()
    csv_path = out / f"{name}.csv"
    write_csv(csv_path, traj)
    timing["csv_s"] = time.perf_counter() - t_analyzed
    plot_path = out / f"{name}_plot.py"
    write_plot_script(plot_path, name, csv_path.name,
                      config.comment or f"{name}: k={config.nonlinearity_order}, "
                      f"b={config.b}, gamma={config.gamma}")
    timing["write_s"] = time.perf_counter() - t_analyzed
    pred = ctx.predicted
    report = summary.report
    manifest_path = _write_manifest(out, name, {
        "config": config.to_dict(),
        "resolved": {
            "dt": traj.times[1],  # the step taken
            "steps": len(traj) - 1,
            "n0": ctx.n0,
            "t_cl": pred.t_cl if pred else 2 * math.pi / config.omega0,
            "t_rev": pred.t_rev if pred else None,
            "t_sr": pred.t_sr if pred else None,
            "modulus_revival_period": ctx.period,
            "envelope_window": ctx.window,
        },
        "analysis": {
            "classification": report.classification.value,
            "revival_times": report.revival_times,
            "revival_amplitudes": report.revival_amplitudes,
            "collapse_intervals": report.collapse_intervals,
            "first_revival": (None if summary.first_revival is None else
                              {"t": summary.first_revival.t,
                               "amplitude": summary.first_revival.amplitude}),
        },
        "outputs": {"csv": csv_path.name, "plot_script": plot_path.name},
        "timing": timing,
    }, t_wall)
    return RunResult(name=name, trajectory=traj, summary=summary,
                     csv_path=csv_path, manifest_path=manifest_path,
                     plot_path=plot_path)


# ---------------------------------------------------------------------------
# sweeps

def _predicted_columns(config: ExperimentConfig, axis: str) -> tuple[float, float]:
    """(predicted_t_rev, predicted_t_sr) for a sweep row.

    state_n sweeps on the cubic ladder report t_rev at center n = state_n,
    the convention under which the theoretical times scale as 1/n.
    """
    if config.b <= 0 or config.nonlinearity_order not in (2, 3):
        return (math.nan, math.nan)
    h = build_hamiltonian(FockSpace(config.dim), config.omega0, config.b,
                          config.nonlinearity_order)
    if axis == "state_n" and config.nonlinearity_order == 3 and config.state_n >= 1:
        n0 = config.state_n
    else:
        n0 = default_n0(config.alpha, config.state_n)
    ts = timescales_closed_form(h, n0)
    return (ts.t_rev if ts.t_rev is not None else math.nan,
            ts.t_sr if ts.t_sr is not None else math.nan)


def _sweep_point(args: tuple[ExperimentConfig, str, float]) -> tuple[dict, dict]:
    """The point's row, and the seconds of each of its stages that finished;
    a RevivalsError lands in the row, any other error is raised.

    A row reads <a> alone, so the point runs amplitude-only; its row's
    ``path`` names the path its run took (see ``run_sweep``)."""
    base, axis, value = args
    config = replace(base, **{axis: int(value) if axis == "state_n" else value})
    row = {"param_value": value, "classification": "", "n_revivals": 0,
           "first_revival_t": math.nan, "first_revival_amp": math.nan,
           "predicted_t_rev": math.nan, "predicted_t_sr": math.nan}
    timing = {}
    try:
        row["predicted_t_rev"], row["predicted_t_sr"] = _predicted_columns(config, axis)
        _, traj, summary = _solve(config, timing, amplitude_only=True)
        # manifest only, like the error; an amplitude-only run records no purity
        row["path"] = "amplitude_only" if traj.purity.size == 0 else "full"
        row["classification"] = summary.report.classification.value
        row["n_revivals"] = int(len(summary.report.revival_times))
        if summary.first_revival is not None:
            row["first_revival_t"] = summary.first_revival.t
            row["first_revival_amp"] = summary.first_revival.amplitude
    except RevivalsError as exc:
        row["classification"] = f"ERROR:{type(exc).__name__}"
        row["error"] = str(exc)  # manifest only; the CSV keeps the type
    return row, timing


@dataclass(frozen=True)
class SweepResult:
    rows: list[dict]
    csv_path: Path
    manifest_path: Path


def run_sweep(base: ExperimentConfig, axis: str, values, name: str = "sweep",
              out_dir: Path | None = None) -> SweepResult:
    """One run per value along axis; emits the summary CSV.

    ``values`` is any iterable of numbers, read once; an empty one raises
    ConfigError, as do non-integer values on the ``state_n`` axis.

    The points run in slices (``fanout.run_slices``), one per usable CPU
    and point at most, all on one BLAS thread (``fanout.one_blas_thread``).
    Each point runs ``rk4_evolve(amplitude_only=True)``: a row reads <a>
    alone. A damped point whose gates that path certifies forks nothing; one
    it cannot certify runs the full path, band child included. The rows do
    not depend on the slice count or the path. A point's model or config
    error (a RevivalsError) lands in its row; any other error, such as a
    failed forked child's OSError, fails the sweep with the error of the
    smallest failing point, and leaves no CSV. The manifest's rows add the
    path each point's run took (``path``: amplitude_only or full) and the
    seconds of each finished stage of a point (``timing``: resolve_s,
    evolve_s, analyze_s); the CSV adds neither.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = [float(v) for v in values]  # read once: values may be an iterator
    if not values:
        raise ConfigError("sweep values must be one or more numbers, got none")
    if axis == "state_n" and not all(v.is_integer() for v in values):
        raise ConfigError(f"state_n sweep values must be integers, got {values}")
    base.require_valid()
    out = _out_dir(out_dir)
    t_wall = time.perf_counter()
    jobs = [(base, axis, v) for v in values]
    # through the module globals, which the benchmark's tracer wraps
    with one_blas_thread():
        points = run_slices(lambda i: _sweep_point(jobs[i]), len(jobs), f"sweep of {axis}")
    rows = [row for row, _ in points]
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                _fmt(r["param_value"]), r["classification"], str(r["n_revivals"]),
                _fmt(r["first_revival_t"]), _fmt(r["first_revival_amp"]),
                _fmt(r["predicted_t_rev"]), _fmt(r["predicted_t_sr"]),
            ]) + "\n")
    manifest_path = _write_manifest(out, name, {
        "axis": axis, "values": values,
        "base_config": base.to_dict(),
        "rows": [{**row, "timing": timing} for row, timing in points],
        "outputs": {"csv": csv_path.name},
    }, t_wall)
    return SweepResult(rows=rows, csv_path=csv_path, manifest_path=manifest_path)
