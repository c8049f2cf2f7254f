"""The benchmark's tracer still finds every function it patches.

``perfbench/tracing.py`` wraps named functions of ``runner``, ``analysis``
and ``lindblad``; a renamed or removed one makes ``install`` fail, and a
workload whose propagation no longer passes through ``rk4_evolve`` leaves
``lindblad.steps`` at zero, which ``layer_metrics`` cannot divide by.
"""

import sys
from pathlib import Path

from revivals import analysis, runner
from revivals.config import load_preset

from conftest import ALPHA, OMEGA0

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_covers_scan_and_sweep_point(tmp_path):
    # one round each, so that the scan's own spans must count its steps
    tracer = tracing.Tracer()
    tracer.begin_round()
    tracer.install()
    try:
        scan = analysis.scan_nonlinearity([1.0], k=2, alpha=ALPHA, omega0=OMEGA0)
        tracer.begin_round()
        sweep = runner.run_sweep(load_preset("fig8").config, "state_n", [2],
                                 name="fig8", out_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert len(scan.points) == 1 and not sweep.rows[0]["classification"].startswith("ERROR")
    for spans in tracer.rounds():
        m = tracing.layer_metrics(spans)
        assert m["lindblad.steps"] > 0
        # one state, one Liouvillian and no snapshots per trajectory
        assert m["fock.states"] == 1
        assert m["lindblad.builds"] == 1
        assert m["lindblad.snapshots"] == 0
