import numpy as np
import pytest

from dabf import solver
from dabf.baselines import mrt_precoder, pa_blind_precoder, rbf_precoder, zf_precoder
from dabf.channel import ChannelRealization, draw_channels, steering_vector
from dabf.config import SystemConfig
from dabf.distortion import bussgang_gain_diag, radiated_power
from dabf.metrics import weighted_objective


def config_for(n_tx=8, k=2, **kw):
    defaults = dict(
        n_tx=n_tx, n_rf=max(2, k), n_users=k, n_paths=3, p_tot=6.0, noise_user=0.1, noise_sense=0.1
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def test_mrt_single_user_direction_and_power():
    cfg = config_for(k=1)
    ch = draw_channels(cfg, np.random.default_rng(0))
    F = mrt_precoder(ch, cfg)
    h = ch.user_channels[0]
    cosine = abs(np.vdot(h, F[:, 0])) / (np.linalg.norm(h) * np.linalg.norm(F))
    assert cosine > 1 - 1e-12
    power = radiated_power(F, cfg.beta1, cfg.beta3)[0]
    assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-6


def test_mrt_power_matched_on_random_instances():
    for seed in range(5):
        cfg = config_for(n_tx=16, k=3, n_rf=4, p_tot=3.0 + seed)
        ch = draw_channels(cfg, np.random.default_rng(seed))
        F = mrt_precoder(ch, cfg)
        power = radiated_power(F, cfg.beta1, cfg.beta3)[0]
        assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-6


def test_mrt_rejects_zero_channel():
    cfg = config_for(k=1)
    ch = draw_channels(cfg, np.random.default_rng(0))
    dead = ChannelRealization(
        user_channels=np.zeros_like(ch.user_channels),
        path_angles=ch.path_angles,
        path_gains=ch.path_gains,
        sense_steering=ch.sense_steering,
        target_angle_rad=ch.target_angle_rad,
        target_gain=ch.target_gain,
    )
    with pytest.raises(ValueError):
        mrt_precoder(dead, cfg)


def test_zf_single_user_equals_mrt_direction():
    cfg = config_for(k=1)
    ch = draw_channels(cfg, np.random.default_rng(1))
    F_mrt = mrt_precoder(ch, cfg)
    F_zf = zf_precoder(ch, cfg)
    cosine = abs(np.vdot(F_mrt[:, 0], F_zf[:, 0])) / (
        np.linalg.norm(F_mrt) * np.linalg.norm(F_zf)
    )
    assert cosine > 1 - 1e-12


def test_zf_orthogonal_channels_match_mrt_per_column():
    cfg = config_for(n_tx=4, k=2)
    h1 = np.array([1.0, 0, 0, 0], dtype=complex) * 2.0
    h2 = np.array([0, 1.0j, 0, 0], dtype=complex) * 0.5
    ch = ChannelRealization(
        user_channels=np.stack([h1, h2]),
        path_angles=np.zeros((2, 3)),
        path_gains=np.zeros((2, 3), dtype=complex),
        sense_steering=steering_vector(cfg.target_angle_rad, 4),
        target_angle_rad=cfg.target_angle_rad,
        target_gain=cfg.target_gain,
    )
    F_zf = zf_precoder(ch, cfg)
    F_mrt = mrt_precoder(ch, cfg)
    for k in range(2):
        a, b = F_zf[:, k], F_mrt[:, k]
        cosine = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine > 1 - 1e-12


def test_zf_nulls_cross_user_leakage_linear_pa():
    cfg = config_for(n_tx=8, k=3, n_rf=4, beta3=0j)
    ch = draw_channels(cfg, np.random.default_rng(2))
    F = zf_precoder(ch, cfg)
    b = bussgang_gain_diag(F, cfg.beta1, cfg.beta3)
    for k in range(3):
        h = ch.user_channels[k]
        rx = (h.conj() * b) @ F
        own = abs(rx[k]) ** 2
        for kp in range(3):
            if kp != k:
                assert abs(rx[kp]) ** 2 / own < 1e-20


def test_zf_reports_rank_deficiency():
    cfg = config_for(n_tx=8, k=2)
    ch = draw_channels(cfg, np.random.default_rng(3))
    dup = ChannelRealization(
        user_channels=np.stack([ch.user_channels[0], ch.user_channels[0]]),
        path_angles=ch.path_angles,
        path_gains=ch.path_gains,
        sense_steering=ch.sense_steering,
        target_angle_rad=ch.target_angle_rad,
        target_gain=ch.target_gain,
    )
    with pytest.raises(ValueError, match="condition number"):
        zf_precoder(dup, cfg)


def test_rbf_deterministic_and_power_matched():
    cfg = config_for(n_tx=16, k=2, n_rf=4)
    F1 = rbf_precoder(cfg, np.random.default_rng(99))
    F2 = rbf_precoder(cfg, np.random.default_rng(99))
    assert np.array_equal(F1, F2)
    power = radiated_power(F1, cfg.beta1, cfg.beta3)[0]
    assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-6


def test_pa_blind_equals_aware_when_pa_is_linear():
    cfg = config_for(n_tx=8, k=2, beta3=0j, p_tot=4.0)
    ch = draw_channels(cfg, np.random.default_rng(4))
    from dabf.solver import optimize_full_digital

    blind, _ = pa_blind_precoder(ch, cfg)
    aware, _ = optimize_full_digital(ch, cfg)
    o_blind = weighted_objective(blind.full_digital, ch, cfg)
    o_aware = weighted_objective(aware.full_digital, ch, cfg)
    assert abs(o_blind - o_aware) <= 10 * solver.OUTER_TOL * max(abs(o_aware), 1.0)


def test_pa_blind_believes_linear_budget_and_misses_true_power():
    cfg = config_for(n_tx=8, k=2, p_tot=20.0)
    ch = draw_channels(cfg, np.random.default_rng(5))
    blind, _ = pa_blind_precoder(ch, cfg)
    F = blind.full_digital
    believed = abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
    assert abs(believed - cfg.p_tot) / cfg.p_tot < 1e-10
    true_power = radiated_power(F, cfg.beta1, cfg.beta3)[0]
    assert abs(true_power - cfg.p_tot) / cfg.p_tot > 1e-3


def test_baselines_deterministic_given_channels():
    cfg = config_for(n_tx=8, k=2)
    ch = draw_channels(cfg, np.random.default_rng(6))
    assert np.array_equal(mrt_precoder(ch, cfg), mrt_precoder(ch, cfg))
    assert np.array_equal(zf_precoder(ch, cfg), zf_precoder(ch, cfg))
