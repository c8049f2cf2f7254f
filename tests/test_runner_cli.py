import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from revivals import ConfigError, DomainError, ExperimentConfig, cli, fanout, runner
from revivals.cli import EXIT_CONFIG, EXIT_OUTPUT, main
from revivals.config import config_from_dict, load_preset
from revivals.lindblad import Trajectory
from revivals.runner import (CSV_CHUNK_ROWS, CSV_HEADER, SWEEP_HEADER, run_experiment,
                             run_sweep, write_csv)

from conftest import (ALPHA, OMEGA0, children_exit_at_once, needs_fork,
                      no_child_left, set_cpus)


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
    assert sorted(timing) == ["analyze_s", "evolve_s", "resolve_s", "write_s"]
    assert all(v >= 0.0 for v in timing.values())
    assert sum(timing.values()) <= manifest["wall_time_s"]


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


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = small_config(b=0.005, t_final=50.0)
    serial = run_sweep(cfg, "gamma", [0.0, 1e-3], parallel=1,
                       name="s1", out_dir=tmp_path)
    parallel = run_sweep(cfg, "gamma", [0.0, 1e-3], parallel=2,
                         name="s2", out_dir=tmp_path)
    assert (serial.csv_path.read_text().splitlines()[1:]
            == parallel.csv_path.read_text().splitlines()[1:])


@needs_fork
@pytest.mark.parametrize("parallel", [1, 2, 64])
@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_sweep_forks_at_most_one_slice_per_point_and_cpu(tmp_path, monkeypatch, forks,
                                                          cpus, parallel):
    cfg, values = small_config(b=0.005, t_final=20.0), [0.0, 1e-3, 2e-3]
    serial = run_sweep(cfg, "gamma", values, name="s", out_dir=tmp_path)
    set_cpus(monkeypatch, cpus)
    sweep = run_sweep(cfg, "gamma", values, parallel=parallel, name="w", out_dir=tmp_path)
    # the caller runs slice 1; every other slice is a child
    assert len(forks) == min(parallel, cpus, len(values)) - 1
    no_child_left()
    # repr, since a row's nan is not equal to itself
    assert repr(sweep.rows) == repr(serial.rows)


@needs_fork
def test_sweep_slices_see_one_cpu(tmp_path, monkeypatch, forks):
    # the slices fill the cores, so no point's damped run starts band threads
    set_cpus(monkeypatch, 4)
    point = runner._sweep_point

    def seen(job):
        row, timing = point(job)
        return {**row, "pid": os.getpid(), "cpus": fanout.usable_cpus()}, timing

    monkeypatch.setattr(runner, "_sweep_point", seen)
    cfg, values = small_config(b=0.005, t_final=20.0), [0.0, 1e-3]
    sweep = run_sweep(cfg, "gamma", values, parallel=2, name="w", out_dir=tmp_path)
    assert [(r["pid"] == os.getpid(), r["cpus"]) for r in sweep.rows] == [(True, 1),
                                                                         (False, 1)]
    assert fanout.usable_cpus() == 4
    children_exit_at_once(monkeypatch, 3)
    with pytest.raises(OSError):
        run_sweep(cfg, "gamma", values, parallel=2, name="x", out_dir=tmp_path)
    assert fanout.usable_cpus() == 4


@needs_fork
@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_raises_the_first_failing_point(tmp_path, monkeypatch, forks, parallel):
    # the predicted columns run outside a point's own failure handling; with
    # two slices, 1e308 fails in the child and 1e307 after it in the caller
    set_cpus(monkeypatch, 2)
    with pytest.raises(DomainError, match=r"b=1e\+308"):
        run_sweep(small_config(), "b", [0.005, 1e308, 1e307], parallel=parallel,
                  name="f", out_dir=tmp_path)
    assert len(forks) == parallel - 1
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("parallel", [0, -1])
def test_sweep_rejects_parallel_below_one(tmp_path, capsys, parallel):
    with pytest.raises(ConfigError, match="parallel must be >= 1"):
        run_sweep(small_config(), "gamma", [0.0], parallel=parallel, out_dir=tmp_path)
    path = write_config(tmp_path)
    assert main(["sweep", str(path), "--axis", "gamma", "--values", "0",
                 "--parallel", str(parallel), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "parallel must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", [0, -3])
def test_preset_rejects_parallel_below_one(tmp_path, capsys, parallel):
    # fig1 is no sweep, so run_sweep's own check never sees the value
    out = tmp_path / "out"
    assert main(["preset", "fig1", "--parallel", str(parallel),
                 "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: config: parallel must be >= 1, got {parallel}\n"
    assert not out.exists()


def test_cli_import_does_not_load_scipy():
    # only the expm cross-check needs scipy; CLI start-up should not pay for it
    src = os.path.dirname(os.path.dirname(runner.__file__))
    code = ("import sys, revivals.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


@needs_fork
def test_forked_sweep_workers_make_no_blas_set_call(tmp_path, monkeypatch, blas_log):
    set_cpus(monkeypatch, 2)
    run_sweep(small_config(b=0.005, t_final=20.0), "gamma", [0.0, 1e-3], parallel=2,
              name="w", out_dir=tmp_path)
    # only the sweep's own hold of one thread, around its forks
    pid = os.getpid()
    assert blas_log.read_text().splitlines() == [f"{pid} set 1", f"{pid} set 2"]


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
    assert sorted(fwd.rows, key=key) == sorted(rev.rows, key=key)


def _fig2b_dim60():
    from dataclasses import replace
    from revivals.config import load_preset

    # the automatic step is unstable on the far bands of rho at dim >= 56
    return replace(load_preset("fig2b").config, dim=60)


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
    path.write_text(small_config().to_json())
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_OUTPUT
    assert capsys.readouterr().err.startswith("error: OSError: c.csv:")
    assert not (tmp_path / "c.csv").exists()


@needs_fork
def test_failing_sweep_slice_exits_with_output_error(tmp_path, monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    children_exit_at_once(monkeypatch, 1)
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--axis", "gamma", "--values", "0,1e-3",
                 "--parallel", "2", "--name", "s", "--out-dir", str(out)]) == EXIT_OUTPUT
    assert capsys.readouterr().err == ("error: OSError: sweep of gamma: the processes "
                                       "running slices 2..2 exited with status [1]\n")
    assert not (out / "s.csv").exists()
    no_child_left()


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
    # Python 3.12 warns when a process forks while other threads run, which
    # flags a band thread still alive at the CSV write. os.fork swallows the
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
assert alive == [1], alive
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
