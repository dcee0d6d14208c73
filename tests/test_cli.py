import os
import re

import pytest

from dabf.cli import build_spec, main, parse_config
from dabf.config import ConfigError, SystemConfig, dbm_to_mw


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
    # Tolerances, step caps and penalty strengths are algorithm constants: a
    # solver section (also one holding options of the removed moment
    # alternation and restart loop) and a penalty key are unknown, not ignored.
    for key in ("penalty_growth", "max_outer_iters", "outer_tol"):
        path = write(tmp_path, f"experiment: sweep_snr\nsolver:\n  {key}: 5\n")
        with pytest.raises(ConfigError, match="unknown key.* in config root: solver;"):
            parse_config(path)
    path = write(tmp_path, "experiment: sweep_snr\nsystem:\n  penalty1: -5\n")
    with pytest.raises(ConfigError, match="unknown key.* in system section: penalty1;"):
        parse_config(path)


@pytest.mark.parametrize("key,value", [("n_tx", "16.0"), ("n_rf", "true"), ("n_users", "2.5"), ("n_paths", "'3'")])
def test_non_integer_system_count_rejected(tmp_path, key, value):
    path = write(tmp_path, f"experiment: sweep_snr\nsystem:\n  {key}: {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got "):
        parse_config(path)


@pytest.mark.parametrize(
    "text,key",
    [
        ("sweep: {realizations: 1.9}", "realizations"),
        ("sweep: {realizations: true}", "realizations"),
        ("workers: 1.9", "workers"),
        ("seed: true", "seed"),
        ("seed: 2.0", "seed"),
    ],
)
def test_non_integer_run_count_rejected(tmp_path, text, key):
    path = write(tmp_path, f"experiment: sweep_snr\n{text}\n")
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got "):
        parse_config(path)


@pytest.mark.parametrize(
    "kind,text,key",
    [
        pytest.param("sweep_snr", "system: {p_tot_dbm: true}", "p_tot_dbm", id="p_tot_dbm-bool"),
        pytest.param("sweep_snr", "system: {p_tot_dbm: '13'}", "p_tot_dbm", id="p_tot_dbm-numeric-string"),
        pytest.param("sweep_snr", "system: {p_tot_dbm: abc}", "p_tot_dbm", id="p_tot_dbm-string"),
        pytest.param("sweep_snr", "system: {snr_db: true}", "snr_db", id="snr_db-bool"),
        pytest.param("sweep_snr", "system: {weight_comm: true}", "weight_comm", id="weight_comm-bool"),
        pytest.param("sweep_snr", "system: {noise_user_mw: true}", "noise_user_mw", id="noise_user_mw-bool"),
        pytest.param("sweep_snr", "system: {noise_user_mw: [0.1, true]}", "noise_user_mw", id="noise_user_mw-list"),
        pytest.param("sweep_snr", "system: {noise_sense_mw: '0.1'}", "noise_sense_mw", id="noise_sense_mw-string"),
        pytest.param("sweep_snr", "system: {target_angle_deg: true}", "target_angle_deg", id="target_angle_deg-bool"),
        pytest.param("sweep_snr", "system: {beta3: [true, 0]}", "beta3[0]", id="beta3-pair-bool"),
        pytest.param("sweep_snr", "system: {beta1: [a, 0]}", "beta1[0]", id="beta1-pair-string"),
        pytest.param("sweep_snr", "system: {target_gain: [1.0, '0']}", "target_gain[1]", id="target_gain-pair-string"),
        pytest.param("beam_pattern", "beam: {user_angle_deg: true}", "user_angle_deg", id="user_angle_deg-bool"),
        pytest.param("beam_pattern", "beam: {angle_step_deg: true}", "angle_step_deg", id="angle_step_deg-bool"),
        pytest.param("sweep_snr", "sweep: {grid: ['13', 20]}", "grid[0]", id="grid-string"),
        pytest.param("sweep_snr", "sweep: {grid: [0, abc]}", "grid[1]", id="grid-word"),
    ],
)
def test_non_real_value_rejected(tmp_path, kind, text, key):
    path = write(tmp_path, f"experiment: {kind}\n{text}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be a real number, got ")):
        parse_config(path)


def test_cli_negative_seed_exits_with_config_error(tmp_path, capsys):
    code = main(["convergence", "--seed", "-1", "--realizations", "1", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_beam_pattern_rejects_sweep_section(tmp_path):
    path = write(tmp_path, "experiment: beam_pattern\nsweep: {grid: [90.0], realizations: 7}\n")
    with pytest.raises(ConfigError, match="beam_pattern does not read the sweep section"):
        parse_config(path)


def test_cli_beam_pattern_rejects_realizations_flag(tmp_path, capsys):
    code = main(["beam-pattern", "--realizations", "7", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "beam_pattern does not read realizations" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind", ["sweep_nonlinearity", "sweep_snr", "convergence"])
def test_pooled_kinds_reject_beam_section(tmp_path, kind):
    path = write(tmp_path, f"experiment: {kind}\nbeam: {{user_angle_deg: 90.0}}\n")
    with pytest.raises(ConfigError, match=f"{kind} does not read the beam section"):
        parse_config(path)


def test_boolean_grid_value_rejected(tmp_path):
    path = write(tmp_path, "experiment: sweep_snr\nsweep: {grid: [false, true]}\n")
    with pytest.raises(ConfigError, match=r"grid values must be numbers, got \[False, True\]"):
        parse_config(path)


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param("sweep: {grid: 5}", "sweep grid must be a list, got 5", id="grid"),
        pytest.param("schemes: 5", "schemes must be a list, got 5", id="schemes"),
    ],
)
def test_cli_non_list_exits_with_config_error(tmp_path, capsys, text, message):
    cfg = write(tmp_path, f"experiment: sweep_snr\n{text}\n")
    code = main(["sweep-snr", "--config", cfg, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


def test_cli_non_integer_antenna_count_exits_with_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "experiment: convergence\nsystem: {n_tx: 16.0}\n")
    code = main(["convergence", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "n_tx must be an integer, got 16.0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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


def test_zero_beta1_rejected(tmp_path):
    # The budget polynomial's linear coefficient |beta1|^2 must be positive.
    with pytest.raises(ConfigError, match="beta1 must be nonzero"):
        SystemConfig(beta1=0)
    path = write(tmp_path, "experiment: sweep_snr\nsystem: {beta1: 0}\n")
    with pytest.raises(ConfigError, match="beta1 must be nonzero"):
        parse_config(path)


def test_cli_zero_beta1_exits_with_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "system: {n_tx: 8, n_rf: 4, n_users: 2, n_paths: 2, beta1: 0}\nsweep: {realizations: 1}\n")
    code = main(["sweep-snr", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "beta1 must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_convergence_rejects_schemes_it_does_not_run(tmp_path):
    path = write(tmp_path, "experiment: convergence\nschemes: [mrt, zf]\n")
    with pytest.raises(ConfigError, match=r"proposed_known only; got schemes \['mrt', 'zf'\]"):
        parse_config(path)
    assert parse_config(write(tmp_path, "experiment: convergence\nschemes: [proposed_known]\n")).schemes == (
        "proposed_known",
    )


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


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_names_failing_refinement_member(tmp_path, capsys, monkeypatch, workers):
    # The refinement batch fails as a whole; the member whose design model is
    # cubic fails again when run alone, and the error names its report slot.
    from dabf import experiments

    refine = experiments.refine_digital

    def fails_on_cubic_model(F_A, F_D, channels, config):
        models = [config] if isinstance(config, SystemConfig) else config
        if any(model.beta3 != 0 for model in models):
            raise RuntimeError("refinement exploded")
        return refine(F_A, F_D, channels, config)

    monkeypatch.setattr(experiments, "refine_digital", fails_on_cubic_model)
    cfg = write(
        tmp_path,
        "\n".join(
            [
                "experiment: sweep_nonlinearity",
                "system: {n_tx: 8, n_rf: 4, n_users: 2, n_paths: 2}",
                "sweep: {grid: [0.0, 0.2], realizations: 2}",
                "schemes: [mrt, proposed_known, proposed_unknown]",
            ]
        ),
    )
    argv = ["sweep-nonlin", "--config", cfg, "--seed", "5", "--workers", str(workers), "--out", str(tmp_path / "r")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "seed 5, realization 0, scheme proposed_known, rho = 0.2" in err
    assert "RuntimeError: refinement exploded" in err


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
