import tracemalloc

import numpy as np
import pytest

import oracles
from dabf.channel import draw_channels
from dabf.config import SystemConfig
from dabf.gradients import (
    NO_PENALTY,
    euclidean_gradient,
    moment_penalty,
    moment_targets,
    penalized_objective,
)
from dabf.metrics import link_terms
from dabf.solver import sphere_radius_sq, update_quartic_moment, update_sextic_moment
from oracles import fd_wirtinger_grad


def make_instance(seed, weight_comm=0.5, beta3=-0.08 + 0.1j, n_tx=4, k=2):
    cfg = SystemConfig(
        n_tx=n_tx,
        n_rf=k if n_tx % k == 0 else n_tx,
        n_users=k,
        n_paths=2,
        p_tot=4.0,
        noise_user=0.1,
        noise_sense=0.12,
        weight_comm=weight_comm,
        weight_sense=1.0 - weight_comm,
        beta3=beta3,
        target_gain=0.9 + 0.2j,
    )
    ch = draw_channels(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1000)
    F = (rng.standard_normal((n_tx, k)) + 1j * rng.standard_normal((n_tx, k))) / np.sqrt(2)
    # Off-target moments so the penalty terms are active.
    m4, m6 = moment_targets(F + 0.1 * rng.standard_normal((n_tx, k)))
    return cfg, ch, F, m4, m6


def relative_error(analytic, reference):
    return np.linalg.norm(analytic - reference) / np.linalg.norm(reference)


def penalty_term(F, m4, m6, ch, cfg, lam1, lam2):
    """Value and gradient of the penalty alone: the penalized kernels minus the rate-only ones."""
    penalty = moment_penalty(m4, m6, lam1, lam2)
    value = penalized_objective(F, penalty, ch, cfg) - penalized_objective(F, NO_PENALTY, ch, cfg)
    grad = euclidean_gradient(F, penalty, ch, cfg) - euclidean_gradient(F, NO_PENALTY, ch, cfg)
    return value, grad


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_gradient_matches_finite_differences(seed):
    cfg, ch, F, m4, m6 = make_instance(seed)
    penalty = moment_penalty(m4, m6, -3.0, -1.5)
    analytic = euclidean_gradient(F, penalty, ch, cfg)
    fd = fd_wirtinger_grad(lambda X: penalized_objective(X, penalty, ch, cfg), F)
    assert relative_error(analytic, fd) < 1e-5


def test_rate_only_gradient_matches_finite_differences():
    cfg, ch, F, _, _ = make_instance(3)
    analytic = euclidean_gradient(F, NO_PENALTY, ch, cfg)
    fd = fd_wirtinger_grad(lambda X: penalized_objective(X, NO_PENALTY, ch, cfg), F)
    assert relative_error(analytic, fd) < 1e-5


def test_comm_only_gradient_matches_finite_differences():
    cfg, ch, F, _, _ = make_instance(4, weight_comm=1.0)
    analytic = euclidean_gradient(F, NO_PENALTY, ch, cfg)
    fd = fd_wirtinger_grad(lambda X: penalized_objective(X, NO_PENALTY, ch, cfg), F)
    assert relative_error(analytic, fd) < 1e-5


def test_sensing_only_gradient_matches_finite_differences():
    cfg, ch, F, _, _ = make_instance(5, weight_comm=0.0)
    analytic = euclidean_gradient(F, NO_PENALTY, ch, cfg)
    fd = fd_wirtinger_grad(lambda X: penalized_objective(X, NO_PENALTY, ch, cfg), F)
    assert relative_error(analytic, fd) < 1e-5


def test_quartic_penalty_gradient_matches_finite_differences():
    cfg, ch, F, m4, m6 = make_instance(6)
    _, analytic = penalty_term(F, m4, m6, ch, cfg, 1.0, 0.0)
    fd = fd_wirtinger_grad(lambda X: oracles.penalty_values(X, m4, m6)[0], F)
    assert relative_error(analytic, fd) < 1e-6


def test_sextic_penalty_gradient_matches_finite_differences():
    cfg, ch, F, m4, m6 = make_instance(7)
    _, analytic = penalty_term(F, m4, m6, ch, cfg, 0.0, 1.0)
    fd = fd_wirtinger_grad(lambda X: oracles.penalty_values(X, m4, m6)[1], F)
    assert relative_error(analytic, fd) < 1e-6


def test_quartic_penalty_gradient_vanishes_at_exact_moment():
    cfg, ch, F, _, _ = make_instance(8)
    m4_exact, m6_exact = moment_targets(F)
    _, grad = penalty_term(F, m4_exact, m6_exact, ch, cfg, 1.0, 0.0)
    assert np.linalg.norm(grad) < 1e-12 * max(np.linalg.norm(F), 1.0)


def test_sextic_penalty_gradient_vanishes_at_exact_moment():
    cfg, ch, F, _, _ = make_instance(9)
    m4_exact, m6_exact = moment_targets(F)
    _, grad = penalty_term(F, m4_exact, m6_exact, ch, cfg, 0.0, 1.0)
    assert np.linalg.norm(grad) < 1e-12 * max(np.linalg.norm(F), 1.0)


def test_linear_pa_gradient_matches_finite_differences():
    # beta3 = 0 with no penalties: the classical rate-plus-sensing gradient.
    cfg, ch, F, _, _ = make_instance(10, beta3=0j)
    analytic = euclidean_gradient(F, NO_PENALTY, ch, cfg)
    fd = fd_wirtinger_grad(lambda X: penalized_objective(X, NO_PENALTY, ch, cfg), F)
    assert relative_error(analytic, fd) < 1e-5


def test_gradient_rejects_mismatched_shapes():
    cfg, ch, F, m4, m6 = make_instance(11)
    with pytest.raises(ValueError):
        euclidean_gradient(F[:, :1], moment_penalty(m4, m6, -1.0, -1.0), ch, cfg)


# ------------------------------------------------- thin kernels vs dense oracles

# K = 3 (the first odd K > 1: 6 distinct stream pairs a <= b of 9) and n_tx = 256 come
# after the original cases, so those keep their test ids.
KERNEL_CASES = [
    (n_tx, k, beta3, lams)
    for sizes, ks in (((4, 16, 64), (1, 2, 4)), ((4, 16, 64), (3,)), ((256,), (1, 2, 3, 4)))
    for n_tx in sizes
    for k in ks
    for beta3 in (0j, -0.08 + 0.1j)
    for lams in ((0.0, 0.0), (-3.0, -1.5))
]


@pytest.mark.parametrize("n_tx,k,beta3,lams", KERNEL_CASES)
def test_kernels_match_dense_oracles(n_tx, k, beta3, lams):
    cfg, ch, F, m4, m6 = make_instance(20 + n_tx + k, beta3=beta3, n_tx=n_tx, k=k)
    lam1, lam2 = lams
    terms = link_terms(F, ch, cfg.beta1, cfg.beta3, cfg.target_gain)
    dense = oracles.link_terms(F, ch, cfg.beta1, cfg.beta3, cfg.target_gain)
    got = (terms.signal, terms.interference, terms.distortion, terms.sense_signal, terms.sense_distortion)
    for new, ref in zip(got, dense):
        assert np.all(np.abs(np.asarray(new) - ref) <= 1e-12 * np.maximum(np.abs(ref), 1e-300))

    penalty = moment_penalty(m4, m6, lam1, lam2)
    value = penalized_objective(F, penalty, ch, cfg)
    reference = oracles.penalized_objective(F, m4, m6, ch, cfg, lam1, lam2)
    assert abs(value - reference) <= 1e-12 * abs(reference)
    if lam1 or lam2:
        c1, c2 = oracles.penalty_values(F, m4, m6)
        alone, _ = penalty_term(F, m4, m6, ch, cfg, lam1, lam2)
        assert abs(alone - (lam1 * c1 + lam2 * c2)) <= 1e-12 * abs(lam1 * c1 + lam2 * c2)
    grad = euclidean_gradient(F, penalty, ch, cfg)
    assert relative_error(grad, oracles.euclidean_gradient(F, m4, m6, ch, cfg, lam1, lam2)) <= 1e-12


@pytest.mark.parametrize("n_tx,k", [(4, 1), (16, 2), (64, 4)])
@pytest.mark.parametrize("quartic", [True, False])
def test_penalty_vanishes_at_exact_moments(n_tx, k, quartic):
    # At the targets the residuals vanish; the gradient is measured against
    # the size of the penalty gradient with the moment in question set to zero.
    cfg, ch, F, _, _ = make_instance(40 + n_tx, n_tx=n_tx, k=k)
    m4, m6 = moment_targets(F)
    cov = F @ F.conj().T
    if quartic:
        lams = (1.0, 0.0)
        grad_size = np.linalg.norm(oracles._moment4_penalty_grad(cov, np.zeros_like(m4), F))
    else:
        lams = (0.0, 1.0)
        grad_size = np.linalg.norm(oracles._moment6_penalty_grad(cov, m4, np.zeros_like(m6), F))
    value, grad = penalty_term(F, m4, m6, ch, cfg, *lams)
    assert abs(value) <= 1e-12 * abs(penalized_objective(F, NO_PENALTY, ch, cfg))
    assert np.linalg.norm(grad) <= 1e-12 * grad_size


def test_kernels_allocate_no_dense_matrix():
    # One dense n_tx x n_tx complex matrix at n_tx = 256 is 1 MiB; a warm call
    # of any kernel or moment step must peak below half of that.
    n_tx, k = 256, 2
    cfg, ch, F, m4, m6 = make_instance(50, n_tx=n_tx, k=k)
    penalty = moment_penalty(m4, m6, -3.0, -1.5)
    limit = n_tx * n_tx * 16 // 2
    calls = {
        "penalized_objective": lambda: penalized_objective(F, penalty, ch, cfg),
        "euclidean_gradient": lambda: euclidean_gradient(F, penalty, ch, cfg),
        "moment_targets": lambda: moment_targets(F),
        "moment_penalty": lambda: moment_penalty(m4, m6, -3.0, -1.5),
        "update_quartic_moment": lambda: update_quartic_moment(F, m6, cfg, -3.0, -1.5),
        "update_sextic_moment": lambda: update_sextic_moment(F, m4, cfg),
        "sphere_radius_sq": lambda: sphere_radius_sq(m4, m6, cfg),
    }
    for name, call in calls.items():
        call()  # warm
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{name} peaked at {peak} bytes"
