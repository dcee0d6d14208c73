"""Tests of the benchmark's output checks.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

N_TX, N_RF, K = 8, 4, 2
BETA1, BETA3 = 1.14 - 0.08j, -0.08 + 0.1j


def config(kind="sweep_snr", grid=(10.0,), schemes=("mrt",)):
    return {
        "system": {
            "n_tx": N_TX,
            "n_rf": N_RF,
            "n_users": K,
            "p_tot_dbm": 13.0,
            "snr_db": 20.0,
            "beta1": [BETA1.real, BETA1.imag],
            "beta3": [BETA3.real, BETA3.imag],
            "weight_comm": 0.5,
            "weight_sense": 0.5,
            "target_gain": [1.0, 0.0],
        },
        "sweep": {"grid": list(grid)},
        "schemes": list(schemes),
    }


def channels(rng):
    H = (rng.standard_normal((K, N_TX)) + 1j * rng.standard_normal((K, N_TX))) / math.sqrt(2.0)
    a = np.exp(1j * np.pi * np.arange(N_TX) * math.cos(math.radians(60.0))) / math.sqrt(N_TX)
    return {"user_channels": H, "sense_steering": a}


def hybrid(rng, p_tot, beta3=BETA3):
    """Partially connected product F_A @ F_D scaled onto the exact power budget."""
    F_A = np.zeros((N_TX, N_RF), dtype=complex)
    size = N_TX // N_RF
    for i in range(N_RF):
        F_A[i * size : (i + 1) * size, i] = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    F_D = rng.standard_normal((N_RF, K)) + 1j * rng.standard_normal((N_RF, K))
    F = F_A @ F_D
    return checks.power_scale(F, {"beta1": BETA1, "beta3": beta3, "p_tot": p_tot}) * F


def sweep_case(rng, scheme="mrt"):
    cfg = config(schemes=(scheme,))
    model = checks.sweep_models(cfg, "sweep_snr")[0]
    cap = channels(rng)
    F = hybrid(rng, model["p_tot"])
    if scheme == "proposed_unknown":
        F *= math.sqrt(model["p_tot"]) / (abs(BETA1) * np.linalg.norm(F))
    cap["designs"] = F[None, None]
    row = ["10.0", scheme, repr(checks.weighted_objective(F, cap, model)),
           repr(checks.radiated_power(F, BETA1, BETA3)), "1"]
    return cfg, cap, row


def test_radiated_power_matches_monte_carlo():
    rng = np.random.default_rng(0)
    F = 0.6 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    s = (rng.standard_normal((2, 400_000)) + 1j * rng.standard_normal((2, 400_000))) / math.sqrt(2.0)
    x = F @ s
    y = BETA1 * x + BETA3 * x * np.abs(x) ** 2
    sampled = float(np.mean(np.sum(np.abs(y) ** 2, axis=0)))
    assert checks.radiated_power(F, BETA1, BETA3) == pytest.approx(sampled, rel=1e-2)


def test_distortion_form_equals_dense_covariance():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((N_TX, K)) + 1j * rng.standard_normal((N_TX, K))
    v = rng.standard_normal(N_TX) + 1j * rng.standard_normal(N_TX)
    C = F @ F.conj().T
    dense = 2 * abs(BETA3) ** 2 * np.real(v.conj() @ (C * np.abs(C) ** 2) @ v)
    assert checks._distortion_form(v, F, BETA3) == pytest.approx(dense, rel=1e-12)


def test_objective_agrees_with_dabf_metrics():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from dabf.channel import ChannelRealization
    from dabf.config import SystemConfig
    from dabf.metrics import evaluate_metrics

    rng = np.random.default_rng(2)
    cap = channels(rng)
    model = checks.sweep_models(config(), "sweep_snr")[0]
    F = hybrid(rng, model["p_tot"])
    cfg = SystemConfig(n_tx=N_TX, n_rf=N_RF, n_users=K, p_tot=model["p_tot"],
                       noise_user=model["noise_user"][0], noise_sense=model["noise_sense"])
    realization = ChannelRealization(cap["user_channels"], np.zeros((K, 1)), np.ones((K, 1)),
                                     cap["sense_steering"], math.radians(60.0), 1.0)
    report = evaluate_metrics(realization, F, cfg)
    assert checks.weighted_objective(F, cap, model) == pytest.approx(report.weighted_objective, rel=1e-12)
    assert checks.radiated_power(F, BETA1, BETA3) == pytest.approx(report.radiated_power, rel=1e-12)


@pytest.mark.parametrize("scheme", ["mrt", "proposed_unknown"])
def test_sweep_check_accepts_consistent_output(scheme):
    cfg, cap, row = sweep_case(np.random.default_rng(3), scheme)
    assert checks.check_sweep([row], [cap], cfg, "sweep_snr") == []


def test_sweep_check_rejects_corrupted_objective():
    cfg, cap, row = sweep_case(np.random.default_rng(4))
    row[2] = repr(float(row[2]) * (1 + 1e-6))
    assert any("reported objective" in f for f in checks.check_sweep([row], [cap], cfg, "sweep_snr"))


def test_sweep_check_rejects_power_off_budget():
    cfg, cap, row = sweep_case(np.random.default_rng(5))
    cap["designs"] = cap["designs"] * 1.001
    assert any("power budget" in f for f in checks.check_sweep([row], [cap], cfg, "sweep_snr"))


def test_sweep_check_rejects_product_not_partially_connected():
    cfg, cap, row = sweep_case(np.random.default_rng(6))
    cap["designs"][0, 0, 0, 0] *= 1.5
    failures = checks.check_sweep([row], [cap], cfg, "sweep_snr")
    assert any("not partially connected" in f for f in failures)


def test_sweep_check_rejects_proposed_below_baseline():
    rng = np.random.default_rng(7)
    cfg = config(schemes=("proposed_known", "mrt"))
    model = checks.sweep_models(cfg, "sweep_snr")[0]
    cap = channels(rng)
    designs = [hybrid(rng, model["p_tot"]) for _ in range(2)]
    values = [checks.weighted_objective(F, cap, model) for F in designs]
    if values[0] > values[1]:
        designs.reverse()
        values.reverse()
    cap["designs"] = np.stack(designs)[None]
    rows = [["10.0", s, repr(v), repr(checks.radiated_power(F, BETA1, BETA3)), "1"]
            for s, v, F in zip(cfg["schemes"], values, designs)]
    assert any("proposed_known" in f and "< mrt" in f for f in checks.check_sweep(rows, [cap], cfg, "sweep_snr"))


def test_partially_connected_accepts_zero_chain():
    F = hybrid(np.random.default_rng(8), 20.0)
    F[: N_TX // N_RF] = 0.0
    assert checks.partially_connected(F, N_RF)


def convergence_case(rng, steps):
    cfg = config(kind="convergence", grid=(20.0,))
    model = checks.sweep_models(cfg, "sweep_snr")[0]
    cap = channels(rng)
    start = checks.weighted_objective(checks.matched_filter_start(cap["user_channels"], model), cap, model)
    cap["traces"] = [start + np.asarray(steps, dtype=float)]
    rows = [[str(i), "20.0", repr(float(v))] for i, v in enumerate(cap["traces"][0])]
    return cfg, cap, rows


def test_convergence_check_accepts_rising_trace():
    cfg, cap, rows = convergence_case(np.random.default_rng(9), [0.0, 0.5, 0.5, 0.7])
    assert checks.check_convergence(rows, [cap], cfg) == []


def test_convergence_check_rejects_decreasing_trace():
    cfg, cap, rows = convergence_case(np.random.default_rng(10), [0.0, 0.5, 0.4, 0.7])
    failures = checks.check_convergence(rows, [cap], cfg)
    assert any("averaged trace decreases" in f for f in failures)
    assert any("realization 0: trace decreases" in f for f in failures)


def test_convergence_check_rejects_wrong_start():
    cfg, cap, rows = convergence_case(np.random.default_rng(11), [0.01, 0.5])
    assert any("first entry" in f for f in checks.check_convergence(rows, [cap], cfg))


def test_matched_filter_start_meets_budget():
    model = checks.sweep_models(config(), "sweep_snr")[0]
    F = checks.matched_filter_start(channels(np.random.default_rng(12))["user_channels"], model)
    assert checks.radiated_power(F, BETA1, BETA3) == pytest.approx(model["p_tot"], rel=1e-12)
