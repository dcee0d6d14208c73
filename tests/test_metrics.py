import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dabf.channel import draw_channels, steering_vector
from dabf.config import SystemConfig
from dabf.gradients import moment_penalty, moment_targets, penalized_objective
from dabf.metrics import Link, LinkTerms, _rates, evaluate_metrics, weighted_objective
from oracles import DistortionModel, sensing_sndr, user_sindr

BETA1 = 1.14 - 0.08j
BETA3 = -0.08 + 0.1j


def small_config(**kw):
    defaults = dict(n_tx=4, n_rf=2, n_users=2, n_paths=2, p_tot=5.0, noise_user=0.05, noise_sense=0.05)
    defaults.update(kw)
    return SystemConfig(**defaults)


def scripted_sindr(h, F, k, beta1, beta3, noise):
    """Direct loop evaluation of the SINDR definition (independent path)."""
    n_tx, n_cols = F.shape
    sig2 = [sum(abs(F[i, c]) ** 2 for c in range(n_cols)) for i in range(n_tx)]
    b = [beta1 + 2 * beta3 * sig2[i] for i in range(n_tx)]
    rx = [sum(h[i].conjugate() * b[i] * F[i, c] for i in range(n_tx)) for c in range(n_cols)]
    cov = [[sum(F[i, c] * F[j, c].conjugate() for c in range(n_cols)) for j in range(n_tx)] for i in range(n_tx)]
    dist = 0.0
    for i in range(n_tx):
        for j in range(n_tx):
            dist += (
                h[i].conjugate() * (2 * abs(beta3) ** 2 * cov[i][j] * abs(cov[i][j]) ** 2) * h[j]
            )
    interference = sum(abs(rx[c]) ** 2 for c in range(n_cols) if c != k)
    return abs(rx[k]) ** 2 / (interference + dist.real + noise)


def test_sindr_single_user_matched_linear():
    # beta3 = 0, K = 1, matched beamformer of power p: gamma = p |b1|^2 ||h||^2 / noise.
    rng = np.random.default_rng(0)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p, noise = 2.5, 0.3
    F = (np.sqrt(p) * h / np.linalg.norm(h)).reshape(5, 1)
    model = DistortionModel.from_precoder(F, BETA1, 0.0)
    got = user_sindr(h, F, 0, model, noise)
    expected = p * abs(BETA1) ** 2 * np.linalg.norm(h) ** 2 / noise
    assert abs(got - expected) / expected < 1e-12


def test_sindr_orthogonal_interferer_is_interference_free():
    h1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    f2 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)  # B f2 stays orthogonal to h1
    F = np.stack([h1 * 0.7, f2], axis=1)
    model = DistortionModel.from_precoder(F, BETA1, 0.0)
    noise = 0.1
    got = user_sindr(h1, F, 0, model, noise)
    expected = abs(BETA1) ** 2 * 0.49 / noise
    assert abs(got - expected) / expected < 1e-12


def test_sindr_matches_scripted_formula():
    cfg = small_config()
    ch = draw_channels(cfg, np.random.default_rng(42))
    rng = np.random.default_rng(43)
    F = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    model = DistortionModel.from_precoder(F, cfg.beta1, cfg.beta3)
    for k in range(2):
        got = user_sindr(ch.user_channels[k], F, k, model, cfg.noise_user[k])
        ref = scripted_sindr(ch.user_channels[k], F, k, cfg.beta1, cfg.beta3, cfg.noise_user[k])
        assert abs(got - ref) / ref < 1e-11


def test_sensing_sndr_matched_linear():
    a = steering_vector(1.0, 6)
    p, noise, alpha = 3.0, 0.2, 0.8 - 0.1j
    F = (np.sqrt(p) * a).reshape(6, 1)
    model = DistortionModel.from_precoder(F, BETA1, 0.0)
    got = sensing_sndr(a, alpha, F, model, noise)
    expected = abs(alpha) ** 2 * abs(BETA1) ** 2 * p / noise
    assert abs(got - expected) / expected < 1e-12


def test_sensing_sndr_zero_gain_target():
    a = steering_vector(2.0, 4)
    F = np.ones((4, 2), dtype=complex)
    model = DistortionModel.from_precoder(F, BETA1, BETA3)
    assert sensing_sndr(a, 0.0, F, model, 0.1) == 0.0


def test_sensing_sndr_matches_scripted_formula():
    cfg = small_config(target_gain=0.9 + 0.4j)
    ch = draw_channels(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    F = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    model = DistortionModel.from_precoder(F, cfg.beta1, cfg.beta3)
    a = ch.sense_steering
    # scripted: numerator sums |alpha a^H B f_c|^2 over columns
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    b = cfg.beta1 + 2 * cfg.beta3 * sig2
    num = 0.0
    for c in range(2):
        num += abs(cfg.target_gain * sum(a[i].conjugate() * b[i] * F[i, c] for i in range(4))) ** 2
    cov = F @ F.conj().T
    ce = 2 * abs(cfg.beta3) ** 2 * cov * np.abs(cov) ** 2
    den = abs(cfg.target_gain) ** 2 * float(np.real(a.conj() @ ce @ a)) + cfg.noise_sense
    got = sensing_sndr(a, cfg.target_gain, F, model, cfg.noise_sense)
    assert abs(got - num / den) / got < 1e-11


def test_unit_sinr_objective_value():
    # gamma_k = 1 for both users and gamma_s = 1 with equal weights: 1.5 bits.
    cfg = small_config()
    link = Link.of(draw_channels(cfg, np.random.default_rng(7)), cfg)
    terms = LinkTerms(np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 0.0], [0.45, 0.95, 3.0 - cfg.noise_sense]]))
    rest, _, objective = _rates(terms.parts, link.noise, link.coeff)
    np.testing.assert_allclose(terms.parts[0] / rest, [1.0, 1.0, 1.0], atol=1e-12)
    assert abs(objective - 1.5) < 1e-12


def test_zero_precoder_silences_everything():
    cfg = small_config()
    ch = draw_channels(cfg, np.random.default_rng(8))
    report = evaluate_metrics(ch, np.zeros((4, 2), dtype=complex), cfg)
    assert np.all(report.user_rates == 0)
    assert report.sense_mi == 0
    assert report.weighted_objective == 0
    assert report.radiated_power == 0


def test_report_consistency_on_seeded_instance():
    cfg = small_config(target_gain=1.2 - 0.3j)
    ch = draw_channels(cfg, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    F = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    report = evaluate_metrics(ch, F, cfg)
    model = DistortionModel.from_precoder(F, cfg.beta1, cfg.beta3)
    gammas = [
        user_sindr(ch.user_channels[k], F, k, model, cfg.noise_user[k]) for k in range(2)
    ]
    gamma_s = sensing_sndr(ch.sense_steering, cfg.target_gain, F, model, cfg.noise_sense)
    np.testing.assert_allclose(report.user_sindr, gammas, rtol=1e-11)
    assert abs(report.sense_sndr - gamma_s) / gamma_s < 1e-11
    np.testing.assert_allclose(report.user_rates, np.log2(1 + np.asarray(gammas)), rtol=1e-11)
    expected_obj = 0.5 * np.sum(report.user_rates) + 0.5 * report.sense_mi
    assert abs(report.weighted_objective - expected_obj) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-np.pi, max_value=np.pi))
def test_global_phase_invariance(seed, phase):
    cfg = small_config()
    ch = draw_channels(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    F = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    a = evaluate_metrics(ch, F, cfg)
    b = evaluate_metrics(ch, np.exp(1j * phase) * F, cfg)
    np.testing.assert_allclose(a.user_sindr, b.user_sindr, rtol=1e-10)
    assert abs(a.sense_sndr - b.sense_sndr) <= 1e-10 * max(a.sense_sndr, 1e-12)


def test_penalized_objective_reduces_to_weighted_at_exact_moments():
    cfg = small_config()
    ch = draw_channels(cfg, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    F = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    m4, m6 = moment_targets(F)
    full = penalized_objective(F, moment_penalty(m4, m6, -7.0, -3.0), ch, cfg)
    assert abs(full - weighted_objective(F, ch, cfg)) < 1e-12
