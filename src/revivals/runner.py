"""Experiment execution: evolve, analyze, and write CSV / manifest / plot script.

Output layout per run NAME in the output directory (env REVIVALS_OUT_DIR or
./out):

    NAME.csv            the trajectory table (schema below)
    NAME.manifest.json  resolved parameters, derived scales, analysis summary
    NAME_plot.py        standalone matplotlib script reading NAME.csv

CSV bodies are byte-identical across runs of the same config; only the
manifest carries timestamps.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (ClassifierThresholds, Envelope, FirstRevival, RevivalReport,
                       detect_revivals, extract_envelope, first_revival_peak)
from .config import CSV_COLUMNS, ExperimentConfig
from .errors import ConfigError
from .fock import (DensityMatrix, FockSpace, coherent_state, density_from_pure,
                   displaced_number_state)
from .hamiltonian import (DiagonalHamiltonian, Timescales, build_hamiltonian,
                          default_n0, modulus_revival_period, timescales_closed_form)
from .lindblad import (DampingSpec, Liouvillian, Trajectory, build_liouvillian,
                       default_dt, rk4_evolve)

CSV_HEADER = "t,re_a,im_a,abs_a,n_expect,trace,purity"

SWEEP_HEADER = ("param_value,classification,n_revivals,first_revival_t,"
                "first_revival_amp,predicted_t_rev,predicted_t_sr")

SWEEP_AXES = ("gamma", "b", "state_n")


def default_out_dir() -> Path:
    return Path(os.environ.get("REVIVALS_OUT_DIR", "out"))


@dataclass(frozen=True)
class RunContext:
    """Config resolved into model objects and derived scales."""

    config: ExperimentConfig
    hamiltonian: DiagonalHamiltonian
    damping: DampingSpec
    liouvillian: Liouvillian
    rho0: DensityMatrix
    dt: float
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
    rho0 = initial_density(config)
    dt = config.dt if config.dt > 0 else default_dt(L, rho0)
    return RunContext(config=config, hamiltonian=h, damping=damping, liouvillian=L,
                      rho0=rho0, dt=dt, n0=n0, predicted=predicted,
                      period=modulus_revival_period(h), window=window)


def initial_density(config: ExperimentConfig):
    space = FockSpace(config.dim)
    psi = (coherent_state(space, config.alpha) if config.state_n == 0
           else displaced_number_state(space, config.alpha, config.state_n))
    return density_from_pure(psi)


def evolve(ctx: RunContext, record_every: int) -> Trajectory:
    """RK4 run of the resolved model; snapshots every record_every steps (0: none)."""
    return rk4_evolve(ctx.liouvillian, ctx.rho0, ctx.config.t_final,
                      dt=ctx.dt, record_every=record_every)


@dataclass(frozen=True)
class AnalysisSummary:
    envelope: Envelope
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
    return AnalysisSummary(envelope=env, report=report, first_revival=first)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, traj: Trajectory, outputs=CSV_COLUMNS) -> None:
    cols = {
        "re_a": traj.a_expect.real,
        "im_a": traj.a_expect.imag,
        "abs_a": np.abs(traj.a_expect),
        "n_expect": traj.n_expect,
        "trace": traj.trace,
        "purity": traj.purity,
    }
    selected = [c for c in CSV_COLUMNS if c in outputs]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(selected) + "\n")
        data = [traj.times] + [cols[c] for c in selected]
        for row in zip(*data):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def write_plot_script(path: Path, name: str, csv_name: str, title: str,
                      outputs=CSV_COLUMNS) -> None:
    series = [(c, {"lw": 0.6} if c == "re_a" else {"lw": 1.0, "alpha": 0.7})
              for c in ("re_a", "abs_a") if c in outputs]
    series = series or [(c, {"lw": 0.8}) for c in outputs[:1]]
    path.write_text(PLOT_TEMPLATE.format(name=name, csv=csv_name,
                                         series=series, title=title),
                    encoding="utf-8")


def _json_safe(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_json_safe(v) for v in x]
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    return x


@dataclass(frozen=True)
class RunResult:
    name: str
    config: ExperimentConfig
    trajectory: Trajectory
    summary: AnalysisSummary
    csv_path: Path
    manifest_path: Path
    plot_path: Path


def run_experiment(config: ExperimentConfig, name: str = "run",
                   out_dir: Path | None = None) -> RunResult:
    """Evolve one configuration and write its CSV, manifest and plot script."""
    out = Path(out_dir) if out_dir is not None else default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    t_wall = time.perf_counter()
    ctx = resolve(config)
    traj = evolve(ctx, config.record_every)
    summary = analyze(ctx, traj)
    csv_path = out / f"{name}.csv"
    write_csv(csv_path, traj, config.outputs)
    plot_path = out / f"{name}_plot.py"
    write_plot_script(plot_path, name, csv_path.name,
                      config.comment or f"{name}: k={config.nonlinearity_order}, "
                      f"b={config.b}, gamma={config.gamma}",
                      outputs=config.outputs)
    pred = ctx.predicted
    manifest = {
        "name": name,
        "version": __version__,
        "config": config.to_dict(),
        "resolved": {
            "dt": ctx.dt,
            "steps": len(traj) - 1,
            "n0": ctx.n0,
            "t_cl": pred.t_cl if pred else 2 * math.pi / config.omega0,
            "t_rev": pred.t_rev if pred else None,
            "t_sr": pred.t_sr if pred else None,
            "modulus_revival_period": ctx.period,
            "envelope_window": ctx.window,
        },
        "analysis": {
            "classification": summary.report.classification.value,
            "revival_times": _json_safe(summary.report.revival_times),
            "revival_amplitudes": _json_safe(summary.report.revival_amplitudes),
            "collapse_intervals": _json_safe(summary.report.collapse_intervals),
            "first_revival": (None if summary.first_revival is None else
                              {"t": summary.first_revival.t,
                               "amplitude": summary.first_revival.amplitude}),
        },
        "outputs": {"csv": csv_path.name, "plot_script": plot_path.name},
        "wall_time_s": time.perf_counter() - t_wall,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = out / f"{name}.manifest.json"
    manifest_path.write_text(json.dumps(_json_safe(manifest), indent=2) + "\n",
                             encoding="utf-8")
    return RunResult(name=name, config=config, trajectory=traj, summary=summary,
                     csv_path=csv_path, manifest_path=manifest_path,
                     plot_path=plot_path)


# ---------------------------------------------------------------------------
# sweeps

def _apply_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "gamma":
        return replace(config, gamma=float(value))
    if axis == "b":
        return replace(config, b=float(value))
    if axis == "state_n":
        return replace(config, state_n=int(value))
    raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


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


def _sweep_point(args: tuple[dict, str, float]) -> dict:
    config_dict, axis, value = args
    config = _apply_axis(ExperimentConfig(**config_dict), axis, value)
    t_rev, t_sr = _predicted_columns(config, axis)
    row = {"param_value": value, "classification": "", "n_revivals": 0,
           "first_revival_t": math.nan, "first_revival_amp": math.nan,
           "predicted_t_rev": t_rev, "predicted_t_sr": t_sr}
    try:
        ctx = resolve(config)
        # sweep rows read only <a>(t): no snapshots
        traj = evolve(ctx, record_every=0)
        summary = analyze(ctx, traj)
        row["classification"] = summary.report.classification.value
        row["n_revivals"] = int(len(summary.report.revival_times))
        if summary.first_revival is not None:
            row["first_revival_t"] = summary.first_revival.t
            row["first_revival_amp"] = summary.first_revival.amplitude
    except Exception as exc:  # per-point failures land in the row
        row["classification"] = f"ERROR:{type(exc).__name__}"
    return row


def _one_blas_thread() -> None:
    """Pool-worker initializer: one OpenBLAS thread per worker process.

    The propagator's matrix products run through BLAS. The workers already
    fill the cores, and an OpenBLAS thread pool in each of them spins
    against the others' (70x slower on 2 cores with 4 workers). The library
    is found among the loaded ones; where there is none, this does nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                break


@dataclass(frozen=True)
class SweepResult:
    rows: list[dict]
    csv_path: Path
    manifest_path: Path


def run_sweep(base: ExperimentConfig, axis: str, values, parallel: int = 1,
              name: str = "sweep", out_dir: Path | None = None) -> SweepResult:
    """One run per value along axis; emits the summary CSV.

    Points are independent; results do not depend on the parallelism degree.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    base.require_valid()
    out = Path(out_dir) if out_dir is not None else default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    t_wall = time.perf_counter()
    base_dict = base.to_dict()
    base_dict["outputs"] = tuple(base_dict["outputs"])
    jobs = [(base_dict, axis, float(v)) for v in values]
    if parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=parallel,
                                 initializer=_one_blas_thread) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                _fmt(r["param_value"]), r["classification"], str(r["n_revivals"]),
                _fmt(r["first_revival_t"]), _fmt(r["first_revival_amp"]),
                _fmt(r["predicted_t_rev"]), _fmt(r["predicted_t_sr"]),
            ]) + "\n")
    manifest = {
        "name": name, "version": __version__, "axis": axis,
        "values": [float(v) for v in values], "parallel": parallel,
        "base_config": base.to_dict(), "rows": rows,
        "outputs": {"csv": csv_path.name},
        "wall_time_s": time.perf_counter() - t_wall,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = out / f"{name}.manifest.json"
    manifest_path.write_text(json.dumps(_json_safe(manifest), indent=2) + "\n",
                             encoding="utf-8")
    return SweepResult(rows=rows, csv_path=csv_path, manifest_path=manifest_path)
