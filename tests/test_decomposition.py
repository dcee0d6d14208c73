import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dabf import gradients
from dabf.baselines import mrt_precoder
from dabf.channel import draw_channels
from dabf.config import ConfigError, SystemConfig, dbm_to_mw, noise_from_snr
from dabf.decomposition import (
    analog_feasibility_check,
    analog_from_phases,
    decompose,
    match_hybrid_power,
    refine_digital,
)
from dabf.distortion import radiated_power
from dabf.metrics import weighted_objective


def random_complex(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def feasible_analog(n_tx, n_rf, seed):
    rng = np.random.default_rng(seed)
    return analog_from_phases(rng.uniform(-np.pi, np.pi, n_tx), n_tx, n_rf)


def test_single_antenna_subarrays_give_exact_factorization():
    # n_rf = n_tx: an exact representation exists; reach it from a random
    # unit-modulus start.
    F = random_complex((6, 2), 0)
    rng = np.random.default_rng(1)
    F_A, F_D, residuals = decompose(F, 6, init_phases=rng.uniform(-np.pi, np.pi, 6))
    assert residuals[-1] < 1e-12 * np.linalg.norm(F)
    np.testing.assert_allclose(F_A @ F_D, F, atol=1e-13)


def test_planted_factors_are_recovered():
    for seed in range(5):
        n_tx, n_rf, k = 16, 4, 2
        F_A0 = feasible_analog(n_tx, n_rf, seed)
        F_D0 = random_complex((n_rf, k), seed + 100)
        F = F_A0 @ F_D0
        _, _, residuals = decompose(F, n_rf)
        assert residuals[-1] < 1e-8 * np.linalg.norm(F)


def test_residual_trace_non_increasing_on_random_inputs():
    for seed in range(100):
        F = random_complex((16, 2), seed, scale=1.0 + (seed % 5))
        _, _, residuals = decompose(F, 4)
        assert np.all(np.diff(residuals) <= 1e-12 * max(residuals[0], 1.0))


def test_analog_gram_is_scaled_identity():
    for seed in range(10):
        F = random_complex((12, 3), seed + 40)
        F_A, _, _ = decompose(F, 4)
        gram = F_A.conj().T @ F_A
        np.testing.assert_allclose(gram, 3.0 * np.eye(4), atol=1e-12)
        assert analog_feasibility_check(F_A, 12, 4)


def test_zero_column_input_keeps_phases_finite():
    F = random_complex((8, 2), 7)
    F[:, 1] = 0.0
    F_A, F_D, residuals = decompose(F, 4)
    assert np.all(np.isfinite(F_D))
    assert analog_feasibility_check(F_A, 8, 4)
    assert residuals[-1] <= residuals[0] + 1e-12


def test_all_zero_input_is_handled():
    F = np.zeros((8, 2), dtype=complex)
    F_A, F_D, residuals = decompose(F, 4)
    assert analog_feasibility_check(F_A, 8, 4)
    assert np.all(F_D == 0)
    assert residuals[-1] == 0.0


@pytest.mark.parametrize("n_tx,n_rf,k", [(6, 6, 2), (12, 4, 3), (16, 4, 2), (64, 16, 2), (256, 16, 4)])
@pytest.mark.parametrize("start", ["warm", "zero_rows", "given"])
def test_decompose_equals_block_loop_oracle(n_tx, n_rf, k, start):
    # The vectorized phase updates and analog assembly are exact rewrites of
    # the loops over subarray blocks kept in ``oracles``.
    F = random_complex((n_tx, k), n_tx + k)
    init = None
    if start == "zero_rows":
        F[: n_tx // 2 : 3] = 0.0  # zero correlations keep their previous phase
    if start == "given":
        init = np.random.default_rng(n_tx).uniform(-np.pi, np.pi, n_tx)
    got = decompose(F, n_rf, init_phases=init)
    expected = oracles.decompose(F, n_rf, init_phases=init)
    assert len(got[2]) > 1
    for new, ref in zip(got, expected):
        assert np.array_equal(new, ref)
    phases = np.random.default_rng(n_rf).uniform(-np.pi, np.pi, n_tx)
    assert np.array_equal(analog_from_phases(phases, n_tx, n_rf), oracles.analog_from_phases(phases, n_tx, n_rf))


def test_divisibility_violation_rejected():
    with pytest.raises(ConfigError):
        decompose(random_complex((10, 2), 3), 4)


def test_too_many_streams_rejected():
    with pytest.raises(ConfigError):
        decompose(random_complex((8, 4), 3), 2)


def test_feasibility_check_identity_pattern():
    F_A = analog_from_phases(np.zeros(8), 8, 8)
    assert analog_feasibility_check(F_A, 8, 8)


def test_feasibility_check_rejects_off_block_entry():
    F_A = feasible_analog(8, 4, 0)
    F_A[0, 1] = 1e-14  # outside the first subarray's column
    assert not analog_feasibility_check(F_A, 8, 4)


def test_feasibility_check_rejects_modulus_above_tolerance():
    F_A = feasible_analog(8, 4, 1)
    F_A[0, 0] *= 1.0 + 1e-6
    assert not analog_feasibility_check(F_A, 8, 4)


def test_feasibility_check_accepts_modulus_within_tolerance():
    F_A = feasible_analog(8, 4, 2)
    F_A[0, 0] *= 1.0 + 1e-12
    assert analog_feasibility_check(F_A, 8, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_decompose_never_worsens_warm_start(seed):
    rng = np.random.default_rng(seed)
    n_rf = int(rng.choice([2, 4, 8]))
    k = int(rng.integers(1, min(n_rf, 3) + 1))
    F = random_complex((16, k), seed + 9)
    _, _, residuals = decompose(F, n_rf)
    assert residuals[-1] <= residuals[0] + 1e-12


def test_match_hybrid_power_true_model():
    cfg = SystemConfig(n_tx=8, n_rf=4, n_users=2, n_paths=2, p_tot=7.0, noise_user=0.1, noise_sense=0.1)
    F = random_complex((8, 2), 11)
    F_A, F_D, _ = decompose(F, 4)
    F_D = match_hybrid_power(F_A, F_D, cfg)
    power = radiated_power(F_A @ F_D, cfg.beta1, cfg.beta3)[0]
    assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-6


def refine_instance(n_tx, n_rf, seed, **kw):
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    cfg = SystemConfig(n_tx=n_tx, n_rf=n_rf, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0, **kw)
    channels = draw_channels(cfg, np.random.default_rng(seed))
    F_A, F_D, _ = decompose(mrt_precoder(channels, cfg), n_rf)
    return cfg, channels, F_A, F_D


@pytest.mark.parametrize("beta3", [-0.08 + 0.1j, 0j])
def test_refine_digital_meets_design_budget_and_never_loses(beta3):
    for seed in range(3):
        cfg, channels, F_A, F_D = refine_instance(16, 4, seed, beta3=beta3)
        refined = refine_digital(F_A, F_D, channels, cfg)
        power = radiated_power(F_A @ refined, cfg.beta1, cfg.beta3)[0]
        assert abs(power - cfg.p_tot) <= 1e-10 * cfg.p_tot
        if beta3 == 0:
            linear_power = abs(cfg.beta1) ** 2 * np.linalg.norm(F_A @ refined) ** 2
            assert abs(linear_power - cfg.p_tot) <= 1e-10 * cfg.p_tot
        start = F_A @ match_hybrid_power(F_A, F_D, cfg)
        assert weighted_objective(F_A @ refined, channels, cfg) >= weighted_objective(start, channels, cfg)


def test_refine_digital_gradient_calls_within_solver_cap(monkeypatch):
    cfg, channels, F_A, F_D = refine_instance(64, 16, 7)
    calls = []
    original = gradients.euclidean_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gradients, "euclidean_gradient", counted)
    refine_digital(F_A, F_D, channels, cfg)
    assert 0 < len(calls) <= cfg.solver.max_mo_iters
