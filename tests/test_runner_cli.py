import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from revivals import ConfigError, DomainError, cli, fanout, lindblad, runner
from revivals.cli import EXIT_CONFIG, EXIT_OUTPUT, main
from revivals.config import config_from_dict, load_preset
from revivals.lindblad import Trajectory, _band_split
from revivals.runner import (CSV_CHUNK_ROWS, CSV_HEADER, SWEEP_HEADER, run_experiment,
                             run_sweep, write_csv)

from conftest import (ALPHA, OMEGA0, UNSTABLE_DT, children_exit_at_once, needs_fork,
                      no_child_left, refuse_certificates, set_cpus)


def small_config(**over):
    base = dict(dim=30, omega0=OMEGA0, alpha_re=ALPHA, alpha_im=0.0,
                nonlinearity_order=2, b=0.0, gamma=1e-3, t_final=60.0, dt=0.05)
    base.update(over)
    return config_from_dict(base)


def test_run_experiment_writes_artifacts(tmp_path):
    result = run_experiment(small_config(), name="demo", out_dir=tmp_path)
    text = result.csv_path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + 1201  # header + steps + initial sample
    first = text[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(ALPHA, abs=1e-12)
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["analysis"]["classification"] == "NO_COLLAPSE"
    assert manifest["resolved"]["dt"] == 0.05
    assert manifest["config"]["gamma"] == 1e-3
    assert result.plot_path.exists()
    assert "demo.csv" in result.plot_path.read_text()


def test_run_manifest_times_each_stage(tmp_path):
    result = run_experiment(small_config(), name="timed", out_dir=tmp_path)
    manifest = json.loads(result.manifest_path.read_text())
    timing = manifest["timing"]
    assert sorted(timing) == ["analyze_s", "csv_s", "evolve_s", "resolve_s", "write_s"]
    assert all(v >= 0.0 for v in timing.values())
    # csv_s is the CSV's part of write_s, which adds the plot script
    assert timing["csv_s"] <= timing["write_s"]
    assert sum(timing.values()) - timing["csv_s"] <= manifest["wall_time_s"]
    # how close the run came to the trace and purity gates, from its records
    traj, fidelity = result.trajectory, manifest["fidelity"]
    assert fidelity["trace_drift"] == float(np.abs(traj.trace - 1.0).max())
    assert (fidelity["purity_min"], fidelity["purity_max"]) == (traj.purity.min(), traj.purity.max())
    assert 0.0 < fidelity["purity_min"] <= fidelity["purity_max"] <= 1.0 + 1e-6


def test_run_manifest_reports_the_undamped_purity_drift(tmp_path):
    # fig3b is undamped, so its purity should stay 1; RK4's phase error on its
    # far bands lets it drift to 0.9906, and the manifest shows it
    result = run_experiment(load_preset("fig3b").config, name="fig3b", out_dir=tmp_path)
    fidelity = json.loads(result.manifest_path.read_text())["fidelity"]
    assert fidelity["purity_min"] == pytest.approx(0.9906, abs=5e-5)
    assert 1.0 - 1e-15 <= fidelity["purity_max"] <= 1.0 + 1e-15
    assert fidelity["trace_drift"] <= 1e-14


@pytest.mark.parametrize("name,low,high", [
    # fig2a is undamped: RK4's far-band phase error leaves final with a
    # negative eigenvalue (-0.0164); fig2d's damping keeps it a state
    ("fig2a", -math.inf, -0.01), ("fig2d", -1e-12, math.inf)], ids=["fig2a", "fig2d"])
def test_run_manifest_reports_the_final_states_smallest_eigenvalue(tmp_path, name, low, high):
    result = run_experiment(load_preset(name).config, name=name, out_dir=tmp_path)
    got = json.loads(result.manifest_path.read_text())["fidelity"]["min_eigenvalue"]
    assert got == float(np.linalg.eigvalsh(result.trajectory.final)[0])
    assert low <= got < high


def test_run_outputs_full_precision(tmp_path):
    result = run_experiment(small_config(), name="p", out_dir=tmp_path)
    row = result.csv_path.read_text().splitlines()[5].split(",")
    # 17 significant digits survive a parse round trip
    for cell in row:
        assert float(cell) == float(f"{float(cell):.17g}")
    assert any(len(c.split(".")[-1].rstrip("0")) > 10 for c in row[1:3])


def test_run_deterministic_bodies(tmp_path):
    a = run_experiment(small_config(), name="a", out_dir=tmp_path)
    b = run_experiment(small_config(), name="b", out_dir=tmp_path)
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()


def test_sweep_degenerate_matches_run(tmp_path):
    cfg = small_config(nonlinearity_order=2, b=0.005, t_final=80.0)
    run_result = run_experiment(cfg, name="single", out_dir=tmp_path)
    sweep = run_sweep(cfg, "b", [0.005], name="sw", out_dir=tmp_path)
    lines = sweep.csv_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[0]) == 0.005
    assert row[1] == run_result.summary.report.classification.value
    assert float(row[5]) == pytest.approx(2 * math.pi / 0.005, rel=1e-12)


#: (config overrides, axis, values) of a damped sweep and of an undamped one
SWEEPS = {"damped": (dict(b=0.005, t_final=20.0), "gamma", [0.0, 1e-3, 2e-3]),
          "undamped": (dict(b=0.005, gamma=0.0, t_final=20.0), "b", [0.005, 0.01, 0.02])}

#: slices of each sweep per usable CPU count: one per CPU and point, damped or not
SLICES = {(1, "damped"): 1, (2, "damped"): 2, (4, "damped"): 3,
          (1, "undamped"): 1, (2, "undamped"): 2, (4, "undamped"): 3}


def sweep_of(kind: str, tmp_path, name: str = "w"):
    over, axis, values = SWEEPS[kind]
    return run_sweep(small_config(**over), axis, values, name=name, out_dir=tmp_path)


def band_forks(monkeypatch) -> list:
    """The pid of the caller at each band child it forks, beside the ``forks`` fixture."""
    made = []
    fork = lindblad.fork_slice

    def fork_band(produce):
        made.append(os.getpid())
        return fork(produce)

    monkeypatch.setattr(lindblad, "fork_slice", fork_band)
    return made


@needs_fork
def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    for kind in SWEEPS:
        got = []
        for cpus in (1, 2, 4):
            set_cpus(monkeypatch, cpus)
            sweep = sweep_of(kind, tmp_path, name=f"{kind}{cpus}")
            # repr, since a row's nan is not equal to itself
            got.append((repr(sweep.rows), sweep.csv_path.read_bytes()))
        no_child_left()
        assert got[1] == got[0] and got[2] == got[0], kind


@needs_fork
@pytest.mark.parametrize("points", [1, 2, 64])
@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_sweep_forks_at_most_one_slice_per_point_and_cpu(tmp_path, monkeypatch, forks,
                                                          cpus, points):
    # an undamped sweep runs one slice per usable CPU, but never more
    # slices than points; the caller runs slice 1 and forks the others
    cfg = small_config(b=0.005, gamma=0.0, t_final=20.0)
    values = [0.005 * (1 + k / points) for k in range(points)]
    set_cpus(monkeypatch, 1)
    serial = run_sweep(cfg, "b", values, name="s", out_dir=tmp_path)
    assert forks == []
    set_cpus(monkeypatch, cpus)
    bands = band_forks(monkeypatch)
    sweep = run_sweep(cfg, "b", values, name="w", out_dir=tmp_path)
    assert bands == []
    assert len(forks) == min(cpus, points) - 1
    assert set(forks) <= {1}
    no_child_left()
    assert repr(sweep.rows) == repr(serial.rows)


@needs_fork
@pytest.mark.parametrize("kind", ["damped", "undamped"])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_sweep_gives_each_slice_two_cpus_when_damped(tmp_path, monkeypatch, forks, cpus, kind):
    # A damped sweep no longer leaves a second CPU per slice for band
    # children: it runs one slice per CPU and point, as an undamped one does.
    # With the certificate refused, a damped point still forks its band
    # child inside its slice.
    refuse_certificates(monkeypatch)
    set_cpus(monkeypatch, 1)
    serial = sweep_of(kind, tmp_path, name="s")
    assert forks == []
    set_cpus(monkeypatch, cpus)
    bands = band_forks(monkeypatch)
    sweep = sweep_of(kind, tmp_path)
    # the caller runs slice 1 and forks the others. Each damped point it
    # runs forks a band child where it sees more than one CPU: at 2 CPUs
    # two slices deal equal costs round and give the caller points 0 and 2,
    # so point 2's; at 4 CPUs the caller runs point 0 alone, undamped
    n = SLICES[cpus, kind]
    assert len(bands) == {(2, "damped"): 1}.get((cpus, kind), 0)
    assert len(forks) - len(bands) == n - 1
    assert set(forks) <= {1}
    no_child_left()
    assert repr(sweep.rows) == repr(serial.rows)


@needs_fork
def test_sweep_slices_see_every_cpu(tmp_path, monkeypatch, forks):
    # at 4 CPUs a damped sweep of two points runs two slices, and each
    # slice's damped run, its certificate refused, still sees all 4 CPUs, so
    # it forks a band child of its own
    refuse_certificates(monkeypatch)
    set_cpus(monkeypatch, 4)
    point = runner._sweep_point

    def seen(job):
        row, timing = point(job)
        return {**row, "pid": os.getpid(), "cpus": fanout.usable_cpus()}, timing

    monkeypatch.setattr(runner, "_sweep_point", seen)
    cfg, values = small_config(b=0.005, t_final=20.0), [1e-3, 2e-3]
    bands = band_forks(monkeypatch)
    sweep = run_sweep(cfg, "gamma", values, name="w", out_dir=tmp_path)
    assert [(r["pid"] == os.getpid(), r["cpus"]) for r in sweep.rows] == [(True, 4),
                                                                         (False, 4)]
    # the slice child, then the caller's band child; the slice's own band
    # child is forked in the slice
    assert len(forks) == 2 and bands == [os.getpid()]
    no_child_left()
    children_exit_at_once(monkeypatch, 3)
    with pytest.raises(OSError, match=r"running slices 2\.\.2 exited with status \[3\]"):
        run_sweep(cfg, "gamma", [0.0, 1e-3], name="x", out_dir=tmp_path)
    no_child_left()


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_sweep_raises_the_first_failing_point(tmp_path, monkeypatch, forks, cpus):
    # an error that is not a model error fails the sweep. The sweep is
    # damped and its certificate refused, so the run at b = 0.005 forks a
    # band child where it sees 2 or more CPUs. At 1 CPU nothing forks, and
    # 0.02 fails after 0.005. At 2 CPUs two slices run: 0.02 fails in the
    # child, and 0.03 after the band child of 0.005 in the caller. At 4 CPUs
    # three slices run, and the caller runs 0.005 alone.
    evolve = runner.evolve

    def broken(ctx, amplitude_only=False):
        if ctx.config.b > 0.01:
            raise RuntimeError(f"bug at b={ctx.config.b}")
        return evolve(ctx, amplitude_only=amplitude_only)

    monkeypatch.setattr(runner, "evolve", broken)
    refuse_certificates(monkeypatch)
    set_cpus(monkeypatch, cpus)
    with pytest.raises(RuntimeError, match=r"^bug at b=0\.02$"):
        run_sweep(small_config(), "b", [0.005, 0.02, 0.03], name="f", out_dir=tmp_path)
    # slice children first, then the caller's band child
    assert forks == {1: [], 2: [1, 1], 4: [1, 1, 1]}[cpus]
    no_child_left()
    assert not (tmp_path / "f.csv").exists()


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_sweep_records_a_domain_error_in_its_row(tmp_path, monkeypatch, cpus):
    # b = 1e308 overflows the energy ladder before the predicted columns are
    # known: a model error, so it lands in its row, in a slice child at 2
    # and 4 CPUs
    set_cpus(monkeypatch, cpus)
    cfg = small_config(b=0.005, gamma=0.0, t_final=20.0)
    sweep = run_sweep(cfg, "b", [0.005, 1e308], name="d", out_dir=tmp_path)
    no_child_left()
    rows = [r.split(",") for r in sweep.csv_path.read_text().splitlines()[1:]]
    assert rows[0][1] == "NO_COLLAPSE"
    assert rows[1][1:] == ["ERROR:DomainError", "0", "nan", "nan", "nan", "nan"]
    manifest = json.loads(sweep.manifest_path.read_text())
    assert manifest["rows"][1]["error"].startswith("energy ladder overflows at b=1e+308")
    assert manifest["rows"][1]["timing"] == {}


def test_cli_import_does_not_load_scipy():
    # only the expm cross-check needs scipy; CLI start-up should not pay for it
    src = os.path.dirname(os.path.dirname(runner.__file__))
    code = ("import sys, revivals.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_preset_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a damped preset must run where any
    # import of it fails
    src = os.path.dirname(os.path.dirname(runner.__file__))
    code = ("import sys; sys.modules['scipy'] = None; from revivals import cli; "
            f"sys.exit(cli.main(['preset', 'fig2b', '--out-dir', {str(tmp_path)!r}]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "fig2b.csv").read_text().startswith(CSV_HEADER + "\n")


def test_sweep_records_per_point_failures(tmp_path):
    cfg = small_config(b=0.005)
    sweep = run_sweep(cfg, "state_n", [0, 40], name="bad", out_dir=tmp_path)
    rows = sweep.csv_path.read_text().splitlines()[1:]
    assert rows[0].split(",")[1] != ""
    assert rows[1].split(",")[1].startswith("ERROR:")
    # the manifest keeps the failing point's message; the CSV only its type
    manifest = json.loads(sweep.manifest_path.read_text())
    assert "error" not in manifest["rows"][0]
    assert "state_n=40 outside 0..dim-1" in manifest["rows"][1]["error"]


@pytest.mark.parametrize("axis, values", [("state_n", [0, 1]), ("gamma", [0.0, 1e-3])])
def test_sweep_reads_its_values_once(tmp_path, axis, values):
    # a generator is consumed by its first pass; every point must still run
    cfg = small_config(b=0.005, t_final=20.0)
    sweep = run_sweep(cfg, axis, (v for v in values), name="g", out_dir=tmp_path)
    assert [r["param_value"] for r in sweep.rows] == values
    assert len(sweep.csv_path.read_text().splitlines()) == 1 + len(values)
    assert json.loads(sweep.manifest_path.read_text())["values"] == values


@pytest.mark.parametrize("values", [[], iter(())])
def test_sweep_rejects_empty_values(tmp_path, values):
    with pytest.raises(ConfigError, match="one or more numbers"):
        run_sweep(small_config(), "gamma", values, name="e", out_dir=tmp_path)
    assert not (tmp_path / "e.csv").exists()


def test_sweep_manifest_rows_time_their_stages(tmp_path):
    sweep = run_sweep(small_config(b=0.005), "state_n", [0, 40], name="t", out_dir=tmp_path)
    rows = json.loads(sweep.manifest_path.read_text())["rows"]
    assert set(rows[0]["timing"]) == {"resolve_s", "evolve_s", "analyze_s"}
    assert all(s >= 0.0 for s in rows[0]["timing"].values())
    # state_n = 40 fails to resolve, so no stage finished
    assert rows[1]["timing"] == {}
    # the timings are no result: the rows returned and the CSV leave them out
    assert "timing" not in sweep.rows[0]
    assert sweep.csv_path.read_text().splitlines()[0] == SWEEP_HEADER


def test_sweep_manifest_is_strict_json(tmp_path):
    # the quadratic ladder has no predicted superrevival time: the CSV reads
    # nan and the manifest null, with no NaN or Infinity, which strict JSON
    # parsers refuse
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    sweep = run_sweep(load_preset("fig2b").config, "gamma", [1e-4], name="strict",
                      out_dir=tmp_path)
    rows = json.loads(sweep.manifest_path.read_text(), parse_constant=refuse)["rows"]
    assert rows[0]["predicted_t_sr"] is None
    assert sweep.csv_path.read_text().splitlines()[1].split(",")[-1] == "nan"


@needs_fork
def test_sweep_manifest_names_each_points_path(tmp_path, monkeypatch, forks):
    # a fig8 point is certified: it runs amplitude-only and forks nothing.
    # Its certificate refused, it runs the full path, band child included,
    # and writes the same CSV. A point that fails to resolve ran no path.
    set_cpus(monkeypatch, 2)
    cfg = load_preset("fig8").config
    amp = run_sweep(cfg, "state_n", [1, 44], name="amp", out_dir=tmp_path)
    assert forks == [1]  # the second slice's
    refuse_certificates(monkeypatch)
    full = run_sweep(cfg, "state_n", [1], name="full", out_dir=tmp_path)
    assert forks == [1, 1]  # and now the band child
    no_child_left()
    rows = [json.loads(s.manifest_path.read_text())["rows"] for s in (amp, full)]
    assert rows[0][0]["path"] == "amplitude_only"
    assert "path" not in rows[0][1] and rows[0][1]["classification"] == "ERROR:ConfigError"
    assert rows[1][0]["path"] == "full"
    body = [s.csv_path.read_text().splitlines() for s in (amp, full)]
    assert body[0][1] == body[1][1]


def test_readme_gamma_sweep_keeps_the_amplitude_only_path(tmp_path):
    # the README's `sweep --axis gamma --values 0,1e-4,1e-3`, on fig8's config:
    # the undamped point and both damped ones are certified
    sweep = run_sweep(load_preset("fig8").config, "gamma", [0.0, 1e-4, 1e-3], name="g",
                      out_dir=tmp_path)
    rows = json.loads(sweep.manifest_path.read_text())["rows"]
    assert [row["path"] for row in rows] == ["amplitude_only"] * 3


def test_fig8_sweep_rows_report_their_certificates_headroom(tmp_path):
    # every fig8 point certifies from block starts, each gap to its gate open;
    # the certificate is manifest only, next to the path
    spec = load_preset("fig8")
    sweep = run_sweep(spec.config, spec.sweep_axis, spec.sweep_values, name="f8",
                      out_dir=tmp_path)
    rows = json.loads(sweep.manifest_path.read_text())["rows"]
    assert len(rows) == 10
    for row in rows:
        cert = row["certificate"]
        assert row["path"] == "amplitude_only" and cert["branch"] == "block_starts", row
        assert min(cert["purity_gap"], cert["trace_gap"], cert["top_gap"]) > 0, row
    assert sweep.csv_path.read_text().splitlines()[0] == SWEEP_HEADER


@needs_fork
def test_forked_sweep_workers_make_no_blas_set_call(tmp_path, monkeypatch, blas_log):
    # a sweep holds one thread across all its points and forks, so that
    # neither a point after the first, nor a slice, nor a band child sets it
    pid = os.getpid()
    for cpus in (1, 2, 4):
        set_cpus(monkeypatch, cpus)
        for kind in SWEEPS:
            blas_log.write_text("")
            sweep_of(kind, tmp_path)
            assert blas_log.read_text().splitlines() == [f"{pid} set 1", f"{pid} set 2"]
            no_child_left()


def test_preset_panels_make_no_blas_set_call(tmp_path, monkeypatch, blas_log):
    # each panel's CSV fork shuts the BLAS pool down; a set call in the next
    # panel would restart it
    run = cli.run_experiment

    def marked(config, name, out_dir):
        with open(blas_log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} panel {name}\n")
        return run(config, name=name, out_dir=out_dir)

    monkeypatch.setattr(cli, "run_experiment", marked)
    assert main(["preset", "fig2", "--out-dir", str(tmp_path)]) == 0
    pid = os.getpid()
    assert blas_log.read_text().splitlines() == (
        [f"{pid} set 1"] + [f"{pid} panel fig2{p}" for p in "abcd"] + [f"{pid} set 2"])


def test_sweep_state_n_reports_inverse_n_theory(tmp_path):
    cfg = small_config(nonlinearity_order=3, b=0.005, dim=34, t_final=30.0)
    sweep = run_sweep(cfg, "state_n", [1, 2], name="sn", out_dir=tmp_path)
    rows = [r.split(",") for r in sweep.csv_path.read_text().splitlines()[1:]]
    assert float(rows[0][5]) == pytest.approx(2 * math.pi / (3 * 0.005 * 1), rel=1e-12)
    assert float(rows[1][5]) == pytest.approx(2 * math.pi / (3 * 0.005 * 2), rel=1e-12)


def write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    base = dict(dim=30, omega0=OMEGA0, alpha_re=ALPHA, alpha_im=0.0,
                nonlinearity_order=2, b=0.0, gamma=1e-3, t_final=40.0, dt=0.05)
    base.update(over)
    path.write_text(json.dumps(base))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, gamma=-2.0)
    assert main(["validate", str(path)]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_cli_validate_missing_fields(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert main(["validate", str(path)]) == 2
    assert "missing required fields" in capsys.readouterr().err


def test_cli_validate_names_every_problem(tmp_path, capsys):
    path = write_config(tmp_path, dim=1, gamma=-2.0, t_final=0.0)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    for problem in ("dim must be >= 2", "gamma must be >= 0", "t_final must be positive"):
        assert problem in err


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("verb", ["run", "sweep", "validate"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, verb, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    out = str(tmp_path / "out")
    extra = {"run": ["--out-dir", out], "validate": [],
             "sweep": ["--axis", "gamma", "--values", "0", "--out-dir", out]}[verb]
    assert main([verb, str(path), *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_run_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "cfg.csv").exists()


def test_cli_run_truncation_exit_code(tmp_path, capsys):
    # alpha far too large for the dimension
    path = write_config(tmp_path, dim=8, alpha_re=-1.9)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert "TruncationError" in capsys.readouterr().err


def test_cli_run_respects_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REVIVALS_OUT_DIR", str(tmp_path / "envout"))
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "envout" / "cfg.csv").exists()


def test_cli_sweep(tmp_path, capsys):
    path = write_config(tmp_path, b=0.005, t_final=50.0)
    code = main(["sweep", str(path), "--axis", "gamma", "--values", "0,0.001",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "cfg_gamma_sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3


def test_cli_sweep_bad_values(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", str(path), "--axis", "gamma", "--values", "x,y"]) == 2


def test_cli_has_no_parallel_option(tmp_path, capsys):
    # a sweep sizes its own slices; the option fails as an unknown argument
    path = write_config(tmp_path)
    out = tmp_path / "out"
    for argv in (["sweep", str(path), "--axis", "gamma", "--values", "0"],
                 ["preset", "fig1"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--parallel", "2", "--out-dir", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("t_final", math.nan), ("gamma", math.nan), ("b", math.nan), ("omega0", math.nan),
    ("alpha_re", math.nan), ("t_final", math.inf), ("dt", math.nan), ("dim", 30.5),
    ("state_n", 1.5), ("dim", "30"), ("full_equation", "no")])
@pytest.mark.parametrize("verb", ["run", "validate"])
def test_cli_rejects_mistyped_config(tmp_path, capsys, verb, field, value):
    # json writes NaN and Infinity, and reads them back as floats
    path = write_config(tmp_path, **{field: value})
    out = tmp_path / "out"
    extra = ["--out-dir", str(out)] if verb == "run" else []
    assert main([verb, str(path), *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert f"{field} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("axis,values", [
    ("state_n", "1,1.5,2.9"), ("state_n", "nan"), ("gamma", "nan"), ("gamma", "inf"),
    ("gamma", ",")])
def test_cli_sweep_rejects_bad_values(tmp_path, capsys, axis, values):
    path = write_config(tmp_path, b=0.005, t_final=50.0)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--axis", axis, "--values", values,
                 "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not out.exists()


def test_cli_unknown_preset(capsys):
    assert main(["preset", "fig99"]) == 2


def test_run_experiment_keeps_no_snapshots(tmp_path):
    from revivals.config import load_preset

    result = run_experiment(load_preset("fig3d").config, name="fig3d",
                            out_dir=tmp_path)
    assert result.trajectory.states == []


def test_cli_preset_panel(tmp_path, capsys):
    # fig3d is the cheapest shipped preset (t_final = 1.63 a.u.)
    assert main(["preset", "fig3d", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig3d.csv").exists()
    manifest = json.loads((tmp_path / "fig3d.manifest.json").read_text())
    assert manifest["analysis"]["classification"] == "IRREGULAR"


def test_preset_fig1_matches_damped_linear_oracle(tmp_path):
    from revivals import damped_linear_expect_a
    from revivals.config import load_preset
    from conftest import OMEGA0 as w0

    result = run_experiment(load_preset("fig1").config, name="fig1",
                            out_dir=tmp_path)
    data = np.genfromtxt(result.csv_path, delimiter=",", names=True)
    oracle = damped_linear_expect_a(ALPHA, w0, 1e-3, 0.0, data["t"])
    assert np.abs(data["re_a"] - oracle.real).max() <= 1e-6
    assert np.abs(data["im_a"] - oracle.imag).max() <= 1e-6
    assert np.abs(data["abs_a"] - np.abs(oracle)).max() <= 1e-6


def test_preset_fig2b_classifies_damped(tmp_path):
    from revivals.config import load_preset

    result = run_experiment(load_preset("fig2b").config, name="fig2b",
                            out_dir=tmp_path)
    assert result.summary.report.classification.value == "DAMPED_REVIVALS"


def test_cli_preset_whole_figure(tmp_path, capsys):
    assert main(["preset", "fig1", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig1.csv").exists()
    assert (tmp_path / "fig1_plot.py").exists()
    assert "NO_COLLAPSE" in capsys.readouterr().out


def test_sweep_rows_are_permutation_invariant(tmp_path):
    cfg = small_config(b=0.005, t_final=50.0)
    fwd = run_sweep(cfg, "gamma", [0.0, 1e-3], name="f", out_dir=tmp_path)
    rev = run_sweep(cfg, "gamma", [1e-3, 0.0], name="r", out_dir=tmp_path)
    key = lambda r: r["param_value"]
    # repr, since a row's nan is not equal to itself, nor to another nan
    # once a slice child has pickled the row back
    assert repr(sorted(fwd.rows, key=key)) == repr(sorted(rev.rows, key=key))


def _fig2b_dim60():
    from dataclasses import replace
    from revivals.config import load_preset

    # the old automatic step is unstable on the far bands of rho at dim >= 56
    return replace(load_preset("fig2b").config, dim=60, dt=UNSTABLE_DT[60])


def test_unstable_run_raises_and_writes_no_csv(tmp_path):
    from revivals import StabilityError

    with pytest.raises(StabilityError, match="purity"):
        run_experiment(_fig2b_dim60(), name="fig2b60", out_dir=tmp_path)
    assert not (tmp_path / "fig2b60.csv").exists()
    assert not (tmp_path / "fig2b60.manifest.json").exists()


def test_cli_run_unstable_exit_code(tmp_path, capsys):
    path = tmp_path / "fig2b60.json"
    path.write_text(_fig2b_dim60().to_json())
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 4
    assert "StabilityError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fig2b60.csv").exists()


def test_cli_run_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    from revivals import cli

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the runner")

    monkeypatch.setattr(cli, "run_experiment", broken)
    path = write_config(tmp_path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "RuntimeError: bug in the runner" in err
    assert "Traceback" in err


@pytest.mark.parametrize("verb", ["preset", "run"])
def test_cli_unwritable_out_dir_exit_code(tmp_path, capsys, verb):
    # an output directory under a regular file cannot be created
    (tmp_path / "file").write_text("")
    target = ["fig3d"] if verb == "preset" else [str(write_config(tmp_path))]
    code = main([verb, *target, "--out-dir", str(tmp_path / "file" / "sub")])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("error: NotADirectoryError:") and err.count("\n") == 1
    assert "Traceback" not in err


def _write_csv_reference(path, traj):
    """Per-value f-string formatting, the writer's original form."""
    cols = [traj.times, traj.a_expect.real, traj.a_expect.imag, np.abs(traj.a_expect),
            traj.n_expect, traj.trace, traj.purity]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,re_a,im_a,abs_a,n_expect,trace,purity\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_write_csv_matches_per_value_format(tmp_path, rng):
    # edge values: signed zero, tiny, huge and both sides of the %g switch
    # to exponent notation (1e-5 and 1e17); rows span several write chunks
    edges = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e20, 1e-5, 9.999999999999999e-06,
                      1e-4, 1e16, 1e17, -1e17, 0.1, 1.0 / 3.0, 5e-324])
    n = 2 * CSV_CHUNK_ROWS + 37
    values = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-30, 30, (6, n))
    values[:, :len(edges)] = edges
    values[:, -len(edges):] = edges[::-1]
    traj = Trajectory(times=values[0], a_expect=values[1] + 1j * values[2],
                      n_expect=values[3], trace=values[4], purity=values[5],
                      final=np.eye(2) / 2)
    write_csv(tmp_path / "got.csv", traj)
    _write_csv_reference(tmp_path / "want.csv", traj)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def random_trajectory(rng, rows):
    values = rng.standard_normal((6, rows)) * 10.0 ** rng.integers(-30, 30, (6, rows))
    return Trajectory(times=values[0], a_expect=values[1] + 1j * values[2],
                      n_expect=values[3], trace=values[4], purity=values[5],
                      final=np.eye(2) / 2)


@needs_fork
@pytest.mark.parametrize("rows", [1, 2, CSV_CHUNK_ROWS + 1, 3000])
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_write_csv_same_bytes_for_any_cpu_count(tmp_path, rng, monkeypatch, forks, cpus, rows):
    traj = random_trajectory(rng, rows)
    set_cpus(monkeypatch, cpus)
    write_csv(tmp_path / "got.csv", traj)
    _write_csv_reference(tmp_path / "want.csv", traj)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    # one slice per CPU, of whole chunks; every slice after the first is a child
    assert len(forks) == min(cpus, -(-rows // CSV_CHUNK_ROWS)) - 1
    no_child_left()


@needs_fork
def test_write_csv_reaps_children_after_a_write_error(tmp_path, rng, monkeypatch, forks):
    # each child's slice is larger than a pipe holds, so the children are
    # still blocked on their writes when the parent fails
    set_cpus(monkeypatch, 4)

    def broken(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(runner.shutil, "copyfileobj", broken)
    with pytest.raises(OSError, match="disk full"):
        write_csv(tmp_path / "t.csv", random_trajectory(rng, 16 * CSV_CHUNK_ROWS))
    assert len(forks) == 3
    no_child_left()


@needs_fork
def test_write_csv_failing_child_raises_and_leaves_no_csv(tmp_path, rng, monkeypatch):
    set_cpus(monkeypatch, 3)
    children_exit_at_once(monkeypatch, 7)
    with pytest.raises(OSError, match=r"status \[7, 7\]"):
        write_csv(tmp_path / "t.csv", random_trajectory(rng, 3000))
    assert not (tmp_path / "t.csv").exists()
    no_child_left()


@needs_fork
def test_failing_csv_child_exits_with_output_error(tmp_path, monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    children_exit_at_once(monkeypatch, 1)
    path = tmp_path / "c.json"
    # undamped, so that the CSV child is the run's only one
    path.write_text(small_config(gamma=0.0).to_json())
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_OUTPUT
    assert capsys.readouterr().err.startswith("error: OSError: c.csv:")
    assert not (tmp_path / "c.csv").exists()


@needs_fork
def test_failing_band_child_exits_with_output_error(tmp_path, monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    children_exit_at_once(monkeypatch, 1)
    path = write_config(tmp_path)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_OUTPUT
    assert capsys.readouterr().err == ("error: OSError: the band child propagating bands "
                                       f"1..{_band_split(30) - 1} sent 0 of 4096 bytes\n")
    assert not (tmp_path / "cfg.csv").exists()
    no_child_left()


@needs_fork
def test_failing_sweep_slice_exits_with_output_error(tmp_path, monkeypatch, capsys):
    children_exit_at_once(monkeypatch, 1)
    out = tmp_path / "out"
    # two points run two slices at 2 or more CPUs, undamped or damped
    for cpus, gamma, axis, values in ((2, 0.0, "b", "0.005,0.01"),
                                      (4, 1e-3, "gamma", "0,1e-3")):
        set_cpus(monkeypatch, cpus)
        path = write_config(tmp_path, b=0.005, gamma=gamma)
        assert main(["sweep", str(path), "--axis", axis, "--values", values,
                     "--name", "s", "--out-dir", str(out)]) == EXIT_OUTPUT
        assert capsys.readouterr().err == (f"error: OSError: sweep of {axis}: the "
                                           "processes running slices 2..2 exited with "
                                           "status [1]\n")
        assert not (out / "s.csv").exists()
        no_child_left()


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_damped_sweep_with_failing_children_exits_with_output_error(tmp_path, monkeypatch,
                                                                     capsys, cpus):
    # a failed band child fails the sweep as a failed slice child does. The
    # certificate is refused, so every damped point runs the full path. At
    # 2 CPUs one point runs in the caller's slice alone, and its band child
    # fails; at 4 CPUs two points run two slices, and the slice child fails.
    # At 1 CPU nothing forks.
    refuse_certificates(monkeypatch)
    set_cpus(monkeypatch, cpus)
    children_exit_at_once(monkeypatch, 1)
    path = write_config(tmp_path, b=0.005)
    values = "1e-3" if cpus == 2 else "1e-3,2e-3"
    code = main(["sweep", str(path), "--axis", "gamma", "--values", values,
                 "--name", "s", "--out-dir", str(tmp_path / "out")])
    no_child_left()
    err = capsys.readouterr().err
    assert (tmp_path / "out" / "s.csv").exists() == (cpus == 1)
    if cpus == 1:
        assert code == 0 and err == ""
    else:
        assert code == EXIT_OUTPUT
        assert err == "error: OSError: " + {
            2: f"the band child propagating bands 1..{_band_split(30) - 1} sent 0 of "
               "4096 bytes\n",
            4: "sweep of gamma: the processes running slices 2..2 exited with status [1]\n",
        }[cpus]


@needs_fork
def test_write_csv_does_not_fork_beside_another_thread(tmp_path, rng, monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    traj = random_trajectory(rng, 3000)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        write_csv(tmp_path / "got.csv", traj)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert forks == []
    _write_csv_reference(tmp_path / "want.csv", traj)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@needs_fork
def test_damped_run_forks_with_no_other_thread_alive(tmp_path):
    # Python 3.12 warns when a process forks while other threads run: at
    # the band child's fork or the CSV write's. os.fork swallows the
    # warning when it is an error, so the warnings are recorded instead.
    # BLAS is held to one thread, so that only the program's threads count.
    script = f"""
import os, threading, warnings
from revivals.config import config_from_dict
from revivals.runner import run_experiment

os.sched_getaffinity = lambda pid: {{0, 1}}
alive, real_fork = [], os.fork
def fork():
    alive.append(threading.active_count())
    return real_fork()
os.fork = fork
cfg = config_from_dict(dict(dim=12, omega0={OMEGA0!r}, alpha_re=0.6, alpha_im=0.0,
                            nonlinearity_order=2, b=0.005, gamma=1e-3, t_final=150.0,
                            dt=0.05))
with warnings.catch_warnings(record=True) as seen:
    warnings.simplefilter("always")
    run_experiment(cfg, name="d12", out_dir={str(tmp_path)!r})
assert alive == [1, 1], alive
assert not [w for w in seen if issubclass(w.category, DeprecationWarning)], seen
"""
    src = os.path.dirname(os.path.dirname(runner.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "d12.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b,message", [
    (1e6, "1.45283e+13 steps to t_final=268.1: cannot allocate"),
    (1e300, "1.45283e+307 steps to t_final=268.1: cannot allocate"),
    (1e308, "energy ladder overflows at b=1e+308, dim=44"),
], ids=["1e6", "1e300", "1e308"])
def test_cli_run_huge_b_is_a_domain_error(tmp_path, capsys, b, message):
    # fig8 with b too large for its step records, or for its energy ladder
    config = {**load_preset("fig8").config.to_dict(), "b": b}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: DomainError: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
