import json
import math

import numpy as np
import pytest

from revivals import ConfigError, ExperimentConfig, runner
from revivals.cli import EXIT_CONFIG, EXIT_OUTPUT, main
from revivals.config import config_from_dict
from revivals.lindblad import Trajectory
from revivals.runner import (CSV_CHUNK_ROWS, CSV_HEADER, SWEEP_HEADER, run_experiment,
                             run_sweep, write_csv)

from conftest import ALPHA, OMEGA0


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


@pytest.mark.parametrize("parallel, started", [(64, [3]), (2, [2]), (1, [])])
def test_sweep_starts_at_most_one_worker_per_point(tmp_path, monkeypatch, parallel, started):
    workers = []

    class SerialPool:
        """Records max_workers and maps in this process; starts no process."""

        def __init__(self, max_workers, initializer=None):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
    sweep = run_sweep(small_config(b=0.005, t_final=20.0), "gamma", [0.0, 1e-3, 2e-3],
                      parallel=parallel, name="w", out_dir=tmp_path)
    assert workers == started
    assert len(sweep.rows) == 3


@pytest.mark.parametrize("parallel", [0, -1])
def test_sweep_rejects_parallel_below_one(tmp_path, capsys, parallel):
    with pytest.raises(ConfigError, match="parallel must be >= 1"):
        run_sweep(small_config(), "gamma", [0.0], parallel=parallel, out_dir=tmp_path)
    path = write_config(tmp_path)
    assert main(["sweep", str(path), "--axis", "gamma", "--values", "0",
                 "--parallel", str(parallel), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "parallel must be >= 1" in capsys.readouterr().err


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
