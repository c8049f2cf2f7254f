"""Runs one workload's rounds in a process of its own and checks every output.

Started by run.py, never by hand. Prints ``ready`` once set-up is done
(imports, preset loading), then, unless ``--setup-only``, runs whole rounds
until ``--seconds`` have passed and prints one JSON line with the round wall
times, the operation counts, the check messages and, with ``--trace 1``,
the per-layer metrics of the traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import revivals
from revivals import analysis, cli
from revivals.config import load_preset

import oracles
import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Largest deviations accepted against the oracles. Each sits above the
#: deviation the program shows at its automatic step (README.md lists the
#: measured values) and far below the differences the checks must catch.
KERR_A_TOL = 5e-5           # |<a> - damped Kerr closed form|, fig2 panels
N_DECAY_RTOL = 1e-9         # |<n> - |alpha|^2 e^{-gamma t}| / |alpha|^2
TRACE_TOL = 1e-6            # |trace - 1|
BAND1_TOL = 1e-5            # |first-revival amplitude - band-1 oracle|, fig8
REVIVAL_TIME_RTOL = 0.05    # fig8 first-revival time vs 2 pi / (6 b), n <= 4
SCAN_STEP = 0.2001          # one 5-per-decade grid step in log10

FIG2_EXPECTED = {"fig2a": "REGULAR_REVIVALS", "fig2b": "DAMPED_REVIVALS",
                 "fig2c": "DAMPED_REVIVALS", "fig2d": "NO_REVIVALS"}


def call_cli(argv: list[str]) -> int:
    """cli.main with its progress lines kept off this process's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Round:
    """Outcome of one round: per-operation failures and check messages."""

    def __init__(self, operations: int):
        self.operations = operations
        self.failed: set[int] = set()
        self.wrong = False
        self.messages: list[str] = []

    def raised(self, op: int, what: str) -> None:
        self.failed.add(op)
        self.messages.append(f"op {op} raised: {what}")

    def check(self, op: int, ok: bool, what: str) -> None:
        if not ok:
            self.failed.add(op)
            self.wrong = True
            self.messages.append(f"op {op} failed check: {what}")


class FigureKerrDamping:
    """fig2a-d: Kerr ladder, dim 30, gamma in {0, 1e-4, 1e-3, 8e-3}, full record path."""

    def __init__(self, rng: random.Random, load, work: Path):
        self.panels = list(FIG2_EXPECTED)
        rng.shuffle(self.panels)
        self.configs = {p: load(p).config for p in self.panels}
        self.operations = len(self.panels)

    def run(self, work: Path):
        codes = {}
        for p in self.panels:
            try:
                codes[p] = call_cli(["preset", p, "--out-dir", str(work)])
            except Exception as exc:  # an operation that raises is counted, not fatal
                codes[p] = exc
        return codes

    def check(self, codes, work: Path, rnd: Round) -> None:
        for op, p in enumerate(self.panels):
            if codes[p] != 0:
                rnd.raised(op, f"{p}: {codes[p]!r}")
                continue
            c = self.configs[p]
            path = work / f"{p}.csv"
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip()
            rnd.check(op, header == "t,re_a,im_a,abs_a,n_expect,trace,purity",
                      f"{p}: CSV header {header!r}")
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            t, a = data[:, 0], data[:, 1] + 1j * data[:, 2]
            n, tr, pur = data[:, 4], data[:, 5], data[:, 6]
            rnd.check(op, bool(np.all(np.isfinite(data))), f"{p}: non-finite values")
            exact = oracles.damped_kerr_expect_a(c.alpha, c.omega0, c.b, c.gamma, t)
            err = float(np.max(np.abs(a - exact)))
            rnd.check(op, err <= KERR_A_TOL, f"{p}: <a> off the damped-Kerr form by {err:.3g}")
            n0 = abs(c.alpha) ** 2
            err = float(np.max(np.abs(n - n0 * np.exp(-c.gamma * t)))) / n0
            rnd.check(op, err <= N_DECAY_RTOL, f"{p}: <n> off n0 e^(-gamma t) by {err:.3g}")
            err = float(np.max(np.abs(tr - 1.0)))
            rnd.check(op, err <= TRACE_TOL, f"{p}: trace off 1 by {err:.3g}")
            rnd.check(op, bool(np.all((pur > 0) & (pur <= 1))),
                      f"{p}: purity outside (0, 1]: [{pur.min()!r}, {pur.max()!r}]")
            manifest = json.loads((work / f"{p}.manifest.json").read_text(encoding="utf-8"))
            got = manifest["analysis"]["classification"]
            rnd.check(op, got == FIG2_EXPECTED[p], f"{p}: classified {got}")


class SweepDisplacedN:
    """fig8 sweep over n = 1, one seeded n in 2..9, and 10; serial CLI sweep."""

    def __init__(self, rng: random.Random, load, work: Path):
        self.config = load("fig8").config
        self.values = [1, rng.randint(2, 9), 10]
        rng.shuffle(self.values)
        self.operations = len(self.values)
        self.config_path = work / "fig8_base.json"
        self.config_path.write_text(self.config.to_json(), encoding="utf-8")

    def run(self, work: Path):
        try:
            return call_cli(["sweep", str(self.config_path), "--axis", "state_n",
                             "--values", ",".join(map(str, self.values)),
                             "--name", "fig8", "--out-dir", str(work)])
        except Exception as exc:
            return exc

    def check(self, code, work: Path, rnd: Round) -> None:
        if code != 0:
            for op in range(self.operations):
                rnd.raised(op, f"sweep: {code!r}")
            return
        c = self.config
        with open(work / "fig8.csv", encoding="utf-8", newline="") as fh:
            rows = {int(float(r["param_value"])): r for r in csv.DictReader(fh)}
        prev_amp = math.inf
        for n in sorted(self.values):
            op = self.values.index(n)
            cls = rows[n]["classification"]
            t, amp = float(rows[n]["first_revival_t"]), float(rows[n]["first_revival_amp"])
            t_rev = float(rows[n]["predicted_t_rev"])
            if cls.startswith("ERROR"):
                rnd.raised(op, f"n={n}: {cls}")
                continue
            rnd.check(op, amp < prev_amp, f"n={n}: amplitude {amp!r} not below {prev_amp!r}")
            prev_amp = amp
            want = 2 * math.pi / (3 * c.b * n)
            rnd.check(op, math.isclose(t_rev, want, rel_tol=1e-12),
                      f"n={n}: predicted_t_rev {t_rev!r} != 2pi/(3bn) = {want!r}")
            if n <= 4:
                dev = abs(t / oracles.cubic_revival_time(c.b) - 1.0)
                rnd.check(op, dev <= REVIVAL_TIME_RTOL,
                          f"n={n}: first revival at {t!r}, {dev:.3g} off 2pi/(6b)")
            exact = abs(oracles.band1_expect_a(c.dim, c.omega0, c.b, c.nonlinearity_order,
                                               c.gamma, c.alpha, n, t))
            rnd.check(op, abs(amp - exact) <= BAND1_TOL,
                      f"n={n}: amplitude {amp!r} vs band-1 {exact!r}")


class ScanOnsetOffset:
    """Undamped b scan, both ladders, at the grid points that bracket the
    documented onset and offset."""

    DOCUMENTED = {2: ("fig2a", 2e-4, 1.0), 3: ("fig4a", 4e-4, 0.06)}

    def __init__(self, rng: random.Random, load, work: Path):
        grid = analysis.log_grid(1e-5, 10.0, per_decade=5)
        self.ladders = []
        for k, (preset, onset, offset) in self.DOCUMENTED.items():
            bs = [float(b) for doc in (onset, offset) for b in self._bracket(grid, doc)]
            rng.shuffle(bs)
            self.ladders.append((k, load(preset).config, bs, onset, offset))
        rng.shuffle(self.ladders)
        self.operations = sum(len(bs) for _, _, bs, _, _ in self.ladders)

    @staticmethod
    def _bracket(grid, value):
        """The grid point nearest value and the one below it."""
        i = int(np.argmin(np.abs(np.log10(grid / value))))
        return grid[i - 1], grid[i]

    def run(self, work: Path):
        scans = []
        for k, c, bs, _, _ in self.ladders:
            try:
                scans.append(analysis.scan_nonlinearity(
                    bs, k=k, alpha=c.alpha, omega0=c.omega0, dim=c.dim))
            except Exception as exc:
                scans.append(exc)
        return scans

    def check(self, scans, work: Path, rnd: Round) -> None:
        op0 = 0
        for (k, c, bs, onset, offset), scan in zip(self.ladders, scans):
            ops = range(op0, op0 + len(bs))
            op0 += len(bs)
            if isinstance(scan, Exception):
                for op in ops:
                    rnd.raised(op, f"k={k}: {scan!r}")
                continue
            for edge, got, doc in (("onset", scan.b_onset, onset),
                                   ("offset", scan.b_offset, offset)):
                ok = got is not None and abs(math.log10(got / doc)) <= SCAN_STEP
                for op in ops:
                    rnd.check(op, ok, f"k={k}: {edge} {got!r} not within a step of {doc}")
            for pt in scan.points:
                op = ops[bs.index(pt.b)]
                want = oracles.scan_point_oracle(pt.b, k, c.alpha, c.omega0, c.dim)
                rnd.check(op, pt.classification is want,
                          f"k={k} b={pt.b:.4g}: {pt.classification.value}, oracle {want.value}")


WORKLOADS = {
    "figure_kerr_damping": FigureKerrDamping,
    "sweep_displaced_n": SweepDisplacedN,
    "scan_onset_offset": ScanOnsetOffset,
}


def run_rounds(wl, seconds: float, work: Path, tally: dict, tracer=None) -> list[float]:
    """Whole rounds until seconds have passed; returns each round's timed wall."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        rdir = work / f"round{len(walls)}"
        rdir.mkdir()
        if tracer is not None:
            tracer.begin_round()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.run(rdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(time.perf_counter() - t0)
        rnd = Round(wl.operations)
        try:
            wl.check(out, rdir, rnd)
        except Exception as exc:  # e.g. an output file the program did not write
            for op in range(wl.operations):
                rnd.check(op, False, f"check raised {exc!r}")
        shutil.rmtree(rdir)
        tally["attempted"] += rnd.operations
        tally["failed"] += len(rnd.failed)
        tally["wrong"] = tally["wrong"] or rnd.wrong
        tally["messages"].extend(rnd.messages)
    return walls


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    load_s = []

    def load(name):
        t0 = time.perf_counter()
        spec = load_preset(name)
        load_s.append(time.perf_counter() - t0)
        return spec

    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](random.Random(args.seed), load, work)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tally = {"attempted": 0, "failed": 0, "wrong": False, "messages": []}
        walls = run_rounds(wl, args.seconds, work, tally)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layers = None
        if tracer is not None:
            traced = run_rounds(wl, args.seconds, work, tally, tracer)
            per_round = [tracing.layer_metrics(spans) for spans in tracer.rounds()]
            values = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
            values["config.load_s"] = sum(load_s)
            values["trace.wall_s"] = statistics.median(traced)
            values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
            layers = {k: {"value": values[k], "unit": u} for k, u in tracing.UNITS.items()}
            tracer.write(str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "attempted": tally["attempted"], "failed": tally["failed"],
        "correct": not tally["wrong"], "walls": walls, "peak_rss_mb": peak_kb * 1024 / 1e6,
        "layers": layers, "messages": tally["messages"][:50],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "revivals": revivals.__version__},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
