import json
import math

import numpy as np
import pytest

from revivals import ExperimentConfig
from revivals.cli import main
from revivals.config import config_from_dict
from revivals.runner import (CSV_HEADER, SWEEP_HEADER, run_experiment, run_sweep)

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


def test_output_column_subset(tmp_path):
    cfg = small_config(outputs=["abs_a", "trace"])
    result = run_experiment(cfg, name="sub", out_dir=tmp_path)
    header = result.csv_path.read_text().splitlines()[0]
    assert header == "t,abs_a,trace"


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


def test_sweep_records_per_point_failures(tmp_path):
    cfg = small_config(b=0.005)
    sweep = run_sweep(cfg, "state_n", [0, 40], name="bad", out_dir=tmp_path)
    rows = sweep.csv_path.read_text().splitlines()[1:]
    assert rows[0].split(",")[1] != ""
    assert rows[1].split(",")[1].startswith("ERROR:")


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


def test_cli_unknown_preset(capsys):
    assert main(["preset", "fig99"]) == 2


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
