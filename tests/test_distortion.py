import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dabf.distortion import (
    bussgang_gain_diag,
    power_match_scale,
    radiated_power,
    scale_to_power,
)
import oracles
from oracles import DistortionModel, distortion_covariance, mc_amplifier_stats

BETA1 = 1.14 - 0.08j
BETA3 = -0.08 + 0.1j


def random_precoder(n_tx, k, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n_tx, k)) + 1j * rng.standard_normal((n_tx, k))) / np.sqrt(2.0)


def test_gain_reduces_to_linear_without_cubic_term():
    F = random_precoder(4, 2, 0)
    np.testing.assert_allclose(bussgang_gain_diag(F, BETA1, 0.0), np.full(4, BETA1), atol=1e-15)


def test_gain_single_column_example():
    F = np.array([[1.0], [0.0]], dtype=complex)
    expected = np.array([BETA1 + 2 * BETA3, BETA1])
    np.testing.assert_allclose(bussgang_gain_diag(F, BETA1, BETA3), expected, atol=1e-15)


def test_gain_matches_monte_carlo_estimator():
    F = random_precoder(4, 2, 7)
    b_mc, _, _ = mc_amplifier_stats(F, BETA1, BETA3, n_draws=200_000, seed=11)
    b = bussgang_gain_diag(F, BETA1, BETA3)
    assert np.max(np.abs(b - b_mc) / np.abs(b)) < 0.02


def test_distortion_cov_zero_without_cubic_term():
    F = random_precoder(5, 2, 1)
    assert np.all(distortion_covariance(F, 0.0) == 0)


def test_distortion_cov_identity_precoder():
    F = np.eye(2, dtype=complex)
    np.testing.assert_allclose(
        distortion_covariance(F, BETA3), 2 * abs(BETA3) ** 2 * np.eye(2), atol=1e-15
    )


def test_distortion_cov_matches_residual_covariance():
    F = random_precoder(4, 2, 3)
    _, ce_mc, _ = mc_amplifier_stats(F, BETA1, BETA3, n_draws=300_000, seed=5)
    ce = distortion_covariance(F, BETA3)
    scale = np.max(np.abs(ce))
    assert np.max(np.abs(ce - ce_mc)) < 0.02 * scale


def test_power_linear_case():
    F = random_precoder(6, 2, 2)
    p, _, _ = radiated_power(F, BETA1, 0.0)
    assert abs(p - abs(BETA1) ** 2 * np.linalg.norm(F) ** 2) < 1e-12


def test_power_single_antenna_expansion():
    p_in = 1.7
    b1, b3 = 0.9, 0.05
    F = np.array([[np.sqrt(p_in)]], dtype=complex)
    p, tr4, tr6 = radiated_power(F, b1, b3)
    expected = b1**2 * p_in + 4 * b1 * b3 * p_in**2 + 6 * b3**2 * p_in**3
    assert abs(p - expected) < 1e-12
    assert abs(tr4 - p_in**2) < 1e-12 and abs(tr6 - p_in**3) < 1e-12


def test_power_matches_monte_carlo():
    F = random_precoder(4, 2, 4)
    _, _, p_mc = mc_amplifier_stats(F, BETA1, BETA3, n_draws=300_000, seed=6)
    p, _, _ = radiated_power(F, BETA1, BETA3)
    assert abs(p - p_mc) / p < 0.01


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_second_order_stats_unitary_invariant(seed):
    # B and C_e depend on F only through F F^H.
    rng = np.random.default_rng(seed)
    F = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))) / np.sqrt(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    np.testing.assert_allclose(
        bussgang_gain_diag(F, BETA1, BETA3), bussgang_gain_diag(F @ q, BETA1, BETA3), atol=1e-12
    )
    np.testing.assert_allclose(
        distortion_covariance(F, BETA3), distortion_covariance(F @ q, BETA3), atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_distortion_cov_is_psd(seed):
    F = random_precoder(6, 2, seed, scale=2.0)
    ce = distortion_covariance(F, BETA3)
    np.testing.assert_allclose(ce, ce.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(ce)
    assert eigs.min() >= -1e-10 * np.linalg.norm(ce)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=1.01, max_value=2.0),
)
def test_power_increasing_in_scale_for_expansive_pa(seed, c, growth):
    # Strict growth in the scale holds whenever Re(beta1* beta3) >= 0.
    F = random_precoder(4, 2, seed)
    b1, b3 = 1.0 + 0.5j, 0.04 + 0.03j
    assert (b1.conjugate() * b3).real >= 0
    p_small = radiated_power(c * F, b1, b3)[0]
    p_large = radiated_power(growth * c * F, b1, b3)[0]
    assert p_large > p_small


def test_power_phase_invariance():
    F = random_precoder(4, 2, 9)
    p0 = radiated_power(F, BETA1, BETA3)[0]
    p1 = radiated_power(np.exp(0.7j) * F, BETA1, BETA3)[0]
    assert abs(p0 - p1) < 1e-12 * abs(p0)


def test_scale_to_power_hits_budget():
    F = random_precoder(8, 2, 12)
    for p_tot in (2.0, 19.95, 100.0):
        scaled = scale_to_power(F, p_tot, BETA1, BETA3)
        p = radiated_power(scaled, BETA1, BETA3)[0]
        assert abs(p - p_tot) / p_tot < 1e-6


def test_scale_to_power_linear_closed_form():
    F = random_precoder(8, 2, 13)
    p_tot = 10.0
    c = power_match_scale(F, p_tot, BETA1, 0.0)
    expected = np.sqrt(p_tot) / (abs(BETA1) * np.linalg.norm(F))
    assert abs(c - expected) / expected < 1e-9


def test_scale_to_power_rejects_zero():
    with pytest.raises(ValueError):
        scale_to_power(np.zeros((4, 2), dtype=complex), 1.0, BETA1, BETA3)
    stack = np.stack([random_precoder(4, 2, 1), np.zeros((4, 2), dtype=complex)])
    with pytest.raises(ValueError):
        power_match_scale(stack, 1.0, BETA1, BETA3)


# (beta1, beta3) with Re(beta1* beta3) < 0 (compressive), > 0 (expansive),
# = 0 with a cubic term, a weak cubic term, and a linear amplifier.
PA_MODELS = [
    (BETA1, BETA3),
    (1.0 + 0.5j, 0.04 + 0.03j),
    (1.0 + 0.0j, 0.0 + 0.2j),
    (BETA1, 1e-6 * BETA3),
    (BETA1, 0j),
]


@pytest.mark.parametrize("beta1,beta3", PA_MODELS)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 4, 16, 64]),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_power_match_scale_closed_form(beta1, beta3, seed, n_tx, log_p):
    rng = np.random.default_rng(seed)
    p_tot = 10.0**log_p
    stack = (rng.standard_normal((3, n_tx, 2)) + 1j * rng.standard_normal((3, n_tx, 2))) * rng.uniform(0.01, 10.0)
    scales = power_match_scale(stack, p_tot, beta1, beta3)
    assert scales.shape == (3,)
    for F, scale in zip(stack, scales):
        assert power_match_scale(F, p_tot, beta1, beta3) == scale  # bit for bit
        power = radiated_power(scale * F, beta1, beta3)[0]
        assert abs(power - p_tot) <= 1e-13 * p_tot
        reference = oracles.power_match_scale(F, p_tot, beta1, beta3)
        assert abs(scale - reference) <= 1e-12 * reference


def test_model_bundles_consistent_pieces():
    F = random_precoder(5, 2, 21)
    model = DistortionModel.from_precoder(F, BETA1, BETA3)
    np.testing.assert_allclose(model.gain_diag, bussgang_gain_diag(F, BETA1, BETA3), atol=1e-13)
    np.testing.assert_allclose(model.distortion_cov, distortion_covariance(F, BETA3), atol=1e-13)
    np.testing.assert_allclose(model.tx_cov, F @ F.conj().T, atol=1e-13)
    assert np.linalg.matrix_rank(model.tx_cov) <= 2
