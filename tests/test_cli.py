import os

import pytest

from dabf.cli import build_spec, main, parse_config
from dabf.config import ConfigError, dbm_to_mw


def write(tmp_path, text):
    path = tmp_path / "exp.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_minimal_config_applies_defaults(tmp_path):
    path = write(tmp_path, "experiment: sweep_nonlinearity\n")
    spec = parse_config(path)
    assert spec.kind == "sweep_nonlinearity"
    assert spec.system.n_tx == 64 and spec.system.n_rf == 16
    assert spec.system.n_users == 2 and spec.system.n_paths == 5
    assert abs(spec.system.p_tot - dbm_to_mw(13.0)) < 1e-12
    assert spec.grid[0] == 0.0 and abs(spec.grid[-1] - 0.3) < 1e-9
    assert spec.realizations == 1000
    assert spec.schemes == ("proposed_known", "proposed_unknown", "mrt", "zf", "rbf")


def test_beam_pattern_defaults_match_reference_point():
    spec = build_spec("beam_pattern", {})
    assert spec.system.n_tx == 16 and spec.system.n_rf == 4
    assert spec.system.n_users == 1 and spec.system.n_paths == 1
    assert abs(spec.system.p_tot - dbm_to_mw(20.0)) < 1e-12
    assert spec.user_angle_deg == 106.0
    assert spec.system.target_angle_deg == 60.0


def test_invalid_weights_rejected(tmp_path):
    path = write(
        tmp_path,
        "experiment: sweep_snr\nsystem:\n  weight_comm: 0.7\n  weight_sense: 0.4\n",
    )
    with pytest.raises(ConfigError, match="weight"):
        parse_config(path)


def test_divisibility_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_snr\nsystem:\n  n_tx: 10\n  n_rf: 4\n")
    with pytest.raises(ConfigError, match="divisible"):
        parse_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_snr\nsystem:\n  n_antennas: 8\n")
    with pytest.raises(ConfigError, match="n_antennas"):
        parse_config(path)
    path = write(tmp_path, "experiment: sweep_snr\nturbo: true\n")
    with pytest.raises(ConfigError, match="turbo"):
        parse_config(path)
    # Options of the removed moment alternation and restart loop are unknown, not silently ignored.
    for key in ("penalty_growth", "max_outer_iters"):
        path = write(tmp_path, f"experiment: sweep_snr\nsolver:\n  {key}: 5\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)


def test_kind_mismatch_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_snr\n")
    with pytest.raises(ConfigError, match="declares"):
        parse_config(path, kind="convergence")


def test_malformed_yaml_reports_parse_error(tmp_path):
    path = write(tmp_path, "experiment: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        parse_config(path)


def test_complex_value_forms(tmp_path):
    path = write(
        tmp_path,
        "experiment: sweep_snr\nsystem:\n  beta1: [1.0, -0.5]\n  beta3: '-0.08+0.1j'\n",
    )
    spec = parse_config(path)
    assert spec.system.beta1 == 1.0 - 0.5j
    assert spec.system.beta3 == -0.08 + 0.1j


def test_negative_rho_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_nonlinearity\nsweep:\n  grid: [-0.1, 0.0]\n")
    with pytest.raises(ConfigError, match=r"rho must be non-negative, got -0\.1"):
        parse_config(path)


def test_repeated_scheme_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_snr\nschemes: [mrt, zf, mrt]\n")
    with pytest.raises(ConfigError, match="'mrt' is listed twice"):
        parse_config(path)


def test_boolean_complex_value_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_snr\nsystem:\n  beta3: true\n")
    with pytest.raises(ConfigError, match="beta3: expected number.*got True"):
        parse_config(path)


def test_noise_override_and_per_user_values(tmp_path):
    path = write(
        tmp_path,
        "experiment: sweep_snr\nsystem:\n  noise_user_mw: [0.1, 0.2]\n  noise_sense_mw: 0.3\n",
    )
    spec = parse_config(path)
    assert spec.system.noise_user == (0.1, 0.2)
    assert spec.system.noise_sense == 0.3


def test_cli_runs_tiny_experiment_and_reports_path(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "\n".join(
            [
                "experiment: sweep_nonlinearity",
                "system: {n_tx: 8, n_rf: 4, n_users: 2, n_paths: 2}",
                "sweep: {grid: [0.0, 0.2], realizations: 1}",
                "schemes: [mrt, rbf]",
            ]
        ),
    )
    out_dir = str(tmp_path / "results")
    code = main(["sweep-nonlin", "--config", cfg, "--seed", "3", "--out", out_dir])
    captured = capsys.readouterr()
    assert code == 0
    produced = captured.out.strip()
    assert produced.endswith("sweep_nonlin.csv")
    assert os.path.exists(produced)


def test_cli_override_realizations(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "\n".join(
            [
                "experiment: sweep_nonlinearity",
                "system: {n_tx: 8, n_rf: 4, n_users: 2, n_paths: 2}",
                "sweep: {grid: [0.1], realizations: 50}",
                "schemes: [mrt]",
            ]
        ),
    )
    out_dir = str(tmp_path / "res2")
    code = main(
        ["sweep-nonlin", "--config", cfg, "--out", out_dir, "--realizations", "2", "--seed", "1"]
    )
    assert code == 0
    csv_path = capsys.readouterr().out.strip()
    rows = [l for l in open(csv_path) if not l.startswith("#")]
    assert rows[1].split(",")[-1].strip() == "2"


def test_cli_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "experiment: sweep_nonlinearity\nsystem: {n_tx: 10, n_rf: 4}\n")
    code = main(["sweep-nonlin", "--config", cfg])
    captured = capsys.readouterr()
    assert code != 0
    assert "divisible" in captured.err


def test_cli_missing_config_file(capsys):
    code = main(["convergence", "--config", "/nonexistent/file.yaml"])
    captured = capsys.readouterr()
    assert code != 0
    assert "cannot read" in captured.err


def _failing_solver(*args, **kwargs):
    raise RuntimeError("solver exploded")


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_names_failing_realization_scheme_and_grid_point(tmp_path, capsys, monkeypatch, workers):
    from dabf import experiments

    monkeypatch.setattr(experiments, "optimize_full_digital", _failing_solver)
    cfg = write(
        tmp_path,
        "\n".join(
            [
                "experiment: sweep_nonlinearity",
                "system: {n_tx: 8, n_rf: 4, n_users: 2, n_paths: 2}",
                "sweep: {grid: [0.0, 0.2], realizations: 2}",
                "schemes: [mrt, proposed_known]",
            ]
        ),
    )
    argv = ["sweep-nonlin", "--config", cfg, "--seed", "5", "--workers", str(workers), "--out", str(tmp_path / "r")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "seed 5, realization 0, scheme proposed_known, rho = 0.2" in err
    assert "RuntimeError: solver exploded" in err


def test_cli_names_failing_convergence_run(tmp_path, capsys, monkeypatch):
    from dabf import experiments

    monkeypatch.setattr(experiments, "first_mo_trace", _failing_solver)
    cfg = write(
        tmp_path,
        "\n".join(
            [
                "experiment: convergence",
                "system: {n_tx: 8, n_rf: 4, n_users: 2, n_paths: 2}",
                "sweep: {grid: [10.0], realizations: 1}",
            ]
        ),
    )
    code = main(["convergence", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 1
    assert "seed 2, realization 0, scheme proposed_known, snr_db = 10.0" in err
