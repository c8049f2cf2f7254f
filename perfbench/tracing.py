"""Spans around the program's public functions, recorded from outside it.

Each wrapped function is patched where its caller looks it up: ``runner``,
``analysis`` and ``lindblad`` import names directly, so the module that
calls a name gets the wrapper, not the module that defines it.

Coarse calls (a preset panel, one propagation, one envelope) become spans
with a name, start, end, parent and trajectory id. Calls made once or more
per time step (``Liouvillian.apply`` and the per-step observables) would
give millions of spans per run, so they are aggregated into their enclosing
span as a call count and total time instead.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from revivals import analysis, cli, lindblad, runner


@dataclass
class Span:
    name: str
    index: int
    start: float
    end: float = 0.0
    parent: int | None = None
    traj: int | None = None
    leaves: dict[str, list] = field(default_factory=dict)
    children_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - sum(v[1] for v in self.leaves.values())


# (module, attribute, span name, starts a trajectory)
SPAN_POINTS = [
    (cli, "main", "cli", False),
    (cli, "load_preset", "config.load", False),
    (cli, "load_config", "config.load", False),
    (cli, "run_experiment", "runner.run_experiment", True),
    (cli, "run_sweep", "runner.run_sweep", False),
    (runner, "_sweep_point", "runner.sweep_point", True),
    (runner, "resolve", "runner.resolve", False),
    (runner, "evolve", "runner.evolve", False),
    (runner, "analyze", "runner.analyze", False),
    (runner, "coherent_state", "fock.state", False),
    (runner, "displaced_number_state", "fock.state", False),
    (runner, "build_liouvillian", "lindblad.build", False),
    (runner, "rk4_evolve", "lindblad.evolve", False),
    (runner, "extract_envelope", "analysis.envelope", False),
    (runner, "detect_revivals", "analysis.detect", False),
    (runner, "first_revival_peak", "analysis.first_revival", False),
    (runner, "write_csv", "runner.csv", False),
    (runner, "write_plot_script", "runner.plot_script", False),
    (analysis, "scan_nonlinearity", "analysis.scan", False),
    (analysis, "_evolve_amplitude", "analysis.evolve_amplitude", True),
    (analysis, "coherent_state", "fock.state", False),
    (analysis, "displaced_number_state", "fock.state", False),
    (analysis, "build_liouvillian", "lindblad.build", False),
    (analysis, "rk4_evolve", "lindblad.evolve", False),
    (analysis, "extract_envelope", "analysis.envelope", False),
    (analysis, "detect_revivals", "analysis.detect", False),
]

# (module or class, attribute, leaf name)
LEAF_POINTS = [
    (lindblad.Liouvillian, "apply", "lindblad.apply"),
    (lindblad, "expect_a_raw", "observables"),
    (lindblad, "expect_n_raw", "observables"),
]


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patched name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._traj: int | None = None
        self._round_starts: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, new_traj: bool) -> Span:
        if new_traj:
            self._traj = 0 if self._traj is None else self._traj + 1
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, len(self.spans), time.perf_counter(), parent=parent,
                    traj=self._traj)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children_s += span.duration

    def _span_wrapper(self, fn, name: str, new_traj: bool):
        def wrapper(*args, **kwargs):
            span = self.open(name, new_traj)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self._annotate(span, result, args)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter

        def record(key: str, dt: float) -> None:
            leaf = stack[-1].leaves.get(key)
            if leaf is None:
                leaf = stack[-1].leaves[key] = [0, 0.0]
            leaf[0] += 1
            leaf[1] += dt

        if name != "lindblad.apply":
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                record(name, clock() - t0)
                return result
            return wrapper

        def apply_wrapper(L, rho, *args, **kwargs):
            t0 = clock()
            result = fn(L, rho, *args, **kwargs)
            dt = clock() - t0
            # keyed by (dim, upward term) so flops and bytes follow from sizes
            upward = int(L.damping.full_equation and L.damping.n_thermal > 0)
            record(f"{name}:{rho.shape[0]}:{upward}", dt)
            return result

        return apply_wrapper

    def _annotate(self, span: Span, result, args) -> None:
        """Counts computed from a call's result, kept on its span."""
        if span.name == "lindblad.evolve":
            span.info["steps"] = len(result) - 1
            span.info["snapshots"] = len(result.states)
            span.info["snapshot_bytes"] = sum(s.nbytes for _, s in result.states)
        elif span.name == "analysis.envelope":
            span.info["windows"] = len(result.values)
        elif span.name == "runner.csv":
            span.info["rows"] = len(args[1])
            span.info["bytes"] = os.path.getsize(args[0])

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, new_traj in SPAN_POINTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span_wrapper(fn, name, new_traj))
        for owner, attr, name in LEAF_POINTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._leaf_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_round(self) -> None:
        """Marks where a round's spans start; trajectory ids restart at 0."""
        self._traj = None
        self._round_starts.append(len(self.spans))

    def rounds(self) -> list[list[Span]]:
        bounds = self._round_starts + [len(self.spans)]
        return [self.spans[a:b] for a, b in zip(bounds, bounds[1:])]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.index, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "traj": s.traj,
                                     "leaves": s.leaves, **s.info}) + "\n")


def apply_cost(dim: int, upward: bool) -> tuple[int, int]:
    """(flops, bytes) of one ``Liouvillian.apply`` on a dim x dim complex array.

    out = diag * rho is 6 flops per element, reading two complex arrays and
    writing one; each ladder term adds a real-times-complex product and a
    complex add (4 flops) over (dim-1)^2 elements, reading one real and two
    complex arrays and writing one complex array.
    """
    full, sub = dim * dim, (dim - 1) * (dim - 1)
    terms = 2 if upward else 1
    return 6 * full + terms * 4 * sub, 48 * full + terms * 56 * sub


#: Every per-layer metric with its unit. config.load_s and the trace.*
#: entries come from the worker; layer_metrics computes the rest.
UNITS = {
    "config.load_s": "s", "runner.resolve_s": "s", "fock.states": "count",
    "fock.state_s": "s", "lindblad.builds": "count", "lindblad.build_s": "s",
    "lindblad.evolve_s": "s", "lindblad.steps": "count", "lindblad.step_us": "us",
    "lindblad.apply_calls": "count", "lindblad.apply_s": "s",
    "lindblad.apply_flops": "count", "lindblad.apply_bytes": "bytes",
    "lindblad.snapshots": "count", "lindblad.snapshot_mb": "MB",
    "observables.calls": "count", "observables.s": "s",
    "analysis.envelope_s": "s", "analysis.windows": "count", "analysis.detect_s": "s",
    "analysis.first_revival_s": "s", "analysis.scan_self_s": "s",
    "runner.csv_s": "s", "runner.csv_rows": "count", "runner.csv_bytes": "bytes",
    "runner.write_other_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one round's spans."""
    m = {k: 0.0 for k in UNITS if k != "config.load_s" and not k.startswith("trace.")}
    m["lindblad.evolve_incl_s"] = 0.0
    for s in spans:
        for key, (count, secs) in s.leaves.items():
            if key.startswith("lindblad.apply"):
                _, dim, upward = key.split(":")
                flops, nbytes = apply_cost(int(dim), upward == "1")
                m["lindblad.apply_calls"] += count
                m["lindblad.apply_s"] += secs
                m["lindblad.apply_flops"] += count * flops
                m["lindblad.apply_bytes"] += count * nbytes
            else:
                m["observables.calls"] += count
                m["observables.s"] += secs
        if s.name == "runner.resolve":
            m["runner.resolve_s"] += s.self_s
        elif s.name == "fock.state":
            m["fock.states"] += 1
            m["fock.state_s"] += s.duration
        elif s.name == "lindblad.build":
            m["lindblad.builds"] += 1
            m["lindblad.build_s"] += s.duration
        elif s.name == "lindblad.evolve":
            m["lindblad.evolve_s"] += s.self_s
            m["lindblad.evolve_incl_s"] += s.duration
            m["lindblad.steps"] += s.info["steps"]
            m["lindblad.snapshots"] += s.info["snapshots"]
            # snapshots of one trajectory are alive together; trajectories are not
            m["lindblad.snapshot_mb"] = max(m["lindblad.snapshot_mb"],
                                            s.info["snapshot_bytes"] / 1e6)
        elif s.name == "analysis.envelope":
            m["analysis.envelope_s"] += s.duration
            m["analysis.windows"] += s.info["windows"]
        elif s.name == "analysis.detect":
            m["analysis.detect_s"] += s.duration
        elif s.name == "analysis.first_revival":
            m["analysis.first_revival_s"] += s.duration
        elif s.name == "analysis.scan":
            m["analysis.scan_self_s"] += s.self_s
        elif s.name == "runner.csv":
            m["runner.csv_s"] += s.duration
            m["runner.csv_rows"] += s.info["rows"]
            m["runner.csv_bytes"] += s.info["bytes"]
        elif s.name in ("runner.run_experiment", "runner.run_sweep"):
            m["runner.write_other_s"] += s.self_s
        elif s.name == "runner.plot_script":
            m["runner.write_other_s"] += s.duration
        elif s.name == "cli":
            m["cli.self_s"] += s.self_s
    steps = m["lindblad.steps"]
    m["lindblad.step_us"] = 1e6 * m.pop("lindblad.evolve_incl_s") / steps
    return m
