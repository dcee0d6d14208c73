import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dabf import solver
from dabf.channel import draw_channels
from dabf.config import SystemConfig
from dabf.distortion import power_match_scale, radiated_power, scale_to_power
from dabf.gradients import NO_PENALTY, euclidean_gradient, moment_targets
from dabf.metrics import weighted_objective
from dabf.solver import (
    DegeneratePA,
    InfeasibleMomentBudget,
    _budget_ascent,
    _mrt_direction,
    budget_normal,
    first_mo_trace,
    manifold_cg,
    optimize_full_digital,
    retract,
    sphere_radius_sq,
    tangent_project,
    update_quartic_moment,
    update_sextic_moment,
)
from dabf.baselines import mrt_precoder
import oracles
from oracles import solve_trace_constrained_quadratic

BETA1 = 1.14 - 0.08j
BETA3 = -0.08 + 0.1j


def random_complex(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def config_for(n_tx, k, **kw):
    defaults = dict(
        n_tx=n_tx, n_rf=k, n_users=k, n_paths=2, p_tot=4.0, noise_user=0.1, noise_sense=0.1
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


# ---------------------------------------------------------------- manifold ops


def test_radial_gradient_projects_to_zero():
    F = random_complex((4, 2), 0)
    assert np.linalg.norm(tangent_project(F.copy(), F)) < 1e-14


def test_tangent_input_unchanged():
    F = random_complex((4, 2), 1)
    g = random_complex((4, 2), 2)
    tangent = tangent_project(g, F)
    np.testing.assert_allclose(tangent_project(tangent, F), tangent, atol=1e-14)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_projection_is_idempotent_and_tangent(seed):
    F = random_complex((5, 3), seed)
    g = random_complex((5, 3), seed + 1)
    t = tangent_project(g, F)
    assert abs(np.real(np.vdot(F, t))) <= 1e-9 * np.linalg.norm(F) * max(np.linalg.norm(t), 1e-30)
    np.testing.assert_allclose(tangent_project(t, F), t, atol=1e-12)


def test_projection_rejects_zero_point():
    with pytest.raises(ValueError):
        tangent_project(np.ones((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))


def test_retract_identity_when_on_sphere():
    F = random_complex((4, 2), 3)
    c1 = float(np.real(np.vdot(F, F)))
    np.testing.assert_allclose(retract(F, np.zeros_like(F), c1), F, atol=1e-14)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.01, max_value=50.0))
def test_retract_norm_exact(seed, c1):
    F = random_complex((4, 2), seed)
    step = random_complex((4, 2), seed + 7)
    out = retract(F, step, c1)
    assert abs(np.real(np.vdot(out, out)) - c1) <= 1e-10 * c1


def test_retract_row_rescale_example():
    F = np.array([[2.0 + 0.0j, 0.0]])
    out = retract(F, np.zeros_like(F), 1.0)
    np.testing.assert_allclose(out, np.array([[1.0, 0.0]]), atol=1e-15)


def test_retract_rejects_nonpositive_radius():
    F = random_complex((3, 2), 4)
    with pytest.raises(InfeasibleMomentBudget):
        retract(F, np.zeros_like(F), 0.0)


def test_retract_rejects_zero_argument():
    F = random_complex((3, 2), 5)
    with pytest.raises(ValueError):
        retract(F, -F, 1.0)


# ------------------------------------------------------------- moment updates


def quartic_objective_factory(cov, m6, lam1, lam2):
    sq = np.abs(cov) ** 2

    def fun(x):
        n = cov.shape[0]
        u = x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)
        c1 = np.sum(np.abs(u - sq) ** 2)
        c2 = np.sum(np.abs(m6 - u * cov) ** 2)
        return float(lam1 * c1 + lam2 * c2)

    return fun


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 2), (6, 3)])
def test_quartic_update_matches_qp_oracle(n, k):
    F = random_complex((n, k), n + 10 * k)
    F *= np.sqrt(2.0) / np.linalg.norm(F)  # O(1) entries keep the oracle well conditioned
    # Budget chosen at the instance's own power so all quantities stay O(1).
    p_tot = radiated_power(F, BETA1, BETA3)[0]
    cfg = config_for(n, k, p_tot=p_tot)
    cov = F @ F.conj().T
    m6_seed = oracles.moment_matrices(F)[1]
    m6 = 0.5 * (m6_seed + m6_seed.conj().T) * 1.1
    lam1, lam2 = -2.0, -0.7
    m4, _ = oracles.update_quartic_moment(F, m6, cfg, lam1, lam2)

    trace_target = (
        cfg.p_tot
        - abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
        - 6 * abs(cfg.beta3) ** 2 * float(np.real(np.trace(m6)))
    ) / (4 * (cfg.beta1.conjugate() * cfg.beta3).real)
    oracle = solve_trace_constrained_quadratic(
        quartic_objective_factory(cov, m6, lam1, lam2), n, trace_target
    )
    assert np.max(np.abs(m4 - oracle)) < 1e-8
    assert abs(np.real(np.trace(m4)) - trace_target) <= 1e-8 * max(abs(trace_target), 1e-12)


def test_quartic_update_trace_constraint_random_instances():
    for seed in range(5):
        n = 4
        cfg = config_for(n, 2, p_tot=3.0 + seed)
        F = random_complex((n, 2), seed + 30)
        m6 = moment_targets(F)[1]
        m4, _ = update_quartic_moment(F, m6, cfg, -5.0, -2.0)
        c2 = (
            cfg.p_tot
            - abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
            - 6 * abs(cfg.beta3) ** 2 * float(np.sum(m6))
        ) / (4 * (cfg.beta1.conjugate() * cfg.beta3).real)
        assert abs(np.sum(m4) - c2) <= 1e-8 * max(abs(c2), 1e-12)
        assert np.isrealobj(m4) and m4.shape == (n,)


def test_quartic_update_weak_coupling_limit():
    # As the coupling penalty vanishes, the update tends to the exact moment
    # plus a uniform shift that absorbs the trace constraint.
    n = 4
    cfg = config_for(n, 2)
    F = random_complex((n, 2), 77)
    sig4, m6 = moment_targets(F)
    lam1 = -3.0
    m4, dual = update_quartic_moment(F, m6, cfg, lam1, -1e-14)
    np.testing.assert_allclose(m4 - sig4, dual / (2 * lam1), atol=1e-9)


def test_quartic_update_degenerate_pa():
    cfg = config_for(4, 2, beta1=1.0 + 0.0j, beta3=0.1j)  # Re(b1* b3) = 0
    F = random_complex((4, 2), 12)
    with pytest.raises(DegeneratePA):
        update_quartic_moment(F, moment_targets(F)[1], cfg, -1.0, -1.0)


def sextic_projection_objective_factory(target):
    def fun(x):
        n = target.shape[0]
        v = x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)
        return -float(np.sum(np.abs(v - target) ** 2))

    return fun


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 2), (6, 3)])
def test_sextic_update_matches_projection_oracle(n, k):
    F = random_complex((n, k), n + 50 + k)
    F *= np.sqrt(2.0) / np.linalg.norm(F)
    p_tot = radiated_power(F, BETA1, BETA3)[0]
    cfg = config_for(n, k, p_tot=p_tot)
    m4 = oracles.moment_matrices(F)[0] * 1.05
    m6 = oracles.update_sextic_moment(F, m4, cfg)
    c3 = (
        cfg.p_tot
        - abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
        - 4 * (cfg.beta1.conjugate() * cfg.beta3).real * float(np.real(np.trace(m4)))
    ) / (6 * abs(cfg.beta3) ** 2)
    target = m4 * (F @ F.conj().T)
    oracle = solve_trace_constrained_quadratic(
        sextic_projection_objective_factory(target), n, c3
    )
    assert np.max(np.abs(m6 - oracle)) < 1e-10
    assert abs(np.real(np.trace(m6)) - c3) <= 1e-12 * max(abs(c3), 1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 2), (6, 3), (16, 4)])
def test_moment_updates_equal_diagonals_of_full_matrix_updates(n, k):
    # The library keeps the diagonal moments only; each diagonal entry of the
    # full-matrix updates depends only on diagonal inputs.
    F = random_complex((n, k), n + 90 + k)
    F *= np.sqrt(2.0) / np.linalg.norm(F)
    cfg = config_for(n, k, p_tot=radiated_power(F, BETA1, BETA3)[0])
    m4_full, m6_full = oracles.moment_matrices(F)
    m6_full = 1.1 * m6_full
    m4, dual = update_quartic_moment(F, np.real(np.diag(m6_full)), cfg, -2.0, -0.7)
    m4_ref, dual_ref = oracles.update_quartic_moment(F, m6_full, cfg, -2.0, -0.7)
    assert np.max(np.abs(m4 - np.diag(m4_ref))) <= 1e-12
    assert abs(dual - dual_ref) <= 1e-12 * max(abs(dual_ref), 1.0)
    m6 = update_sextic_moment(F, 1.05 * np.real(np.diag(m4_full)), cfg)
    m6_ref = oracles.update_sextic_moment(F, 1.05 * m4_full, cfg)
    assert np.max(np.abs(m6 - np.diag(m6_ref))) <= 1e-12


def test_sextic_update_identity_when_already_on_hyperplane():
    n = 4
    cfg = config_for(n, 2)
    F = random_complex((n, 2), 60)
    m4 = moment_targets(F)[0]
    re_b = (cfg.beta1.conjugate() * cfg.beta3).real
    # Scale m4 so that sum(m4 .* sigma^2) equals its own budget target exactly.
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    base_trace = float(np.sum(m4 * sig2))
    a = cfg.p_tot - abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
    b = 4 * re_b * float(np.sum(m4))
    denom = 6 * abs(cfg.beta3) ** 2
    # Solve t * base_trace = (a - t*b) / denom for the scaling t.
    t = a / (denom * base_trace + b)
    assert t > 0
    m4_scaled = t * m4
    m6 = update_sextic_moment(F, m4_scaled, cfg)
    np.testing.assert_allclose(m6, m4_scaled * sig2, atol=1e-12)


def test_sextic_update_degenerate_pa():
    cfg = config_for(4, 2, beta3=0j)
    F = random_complex((4, 2), 61)
    with pytest.raises(DegeneratePA):
        update_sextic_moment(F, moment_targets(F)[0], cfg)


# ------------------------------------------------------------------ inner CG


def convergence_scale_config(snr_db=20.0):
    from dabf.config import dbm_to_mw, noise_from_snr

    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, snr_db)
    return SystemConfig(
        n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0
    )


def test_inner_trace_non_decreasing_and_on_manifold():
    cfg = convergence_scale_config()
    ch = draw_channels(cfg, np.random.default_rng(100))
    F0 = mrt_precoder(ch, cfg)
    m4, m6 = moment_targets(F0)
    F, trace = manifold_cg(F0, m4, m6, ch, cfg, -0.01, -0.01)
    assert np.all(np.diff(trace) >= 0)
    c1 = sphere_radius_sq(m4, m6, cfg)
    assert abs(np.real(np.vdot(F, F)) - c1) <= 1e-10 * c1


def test_inner_returns_immediately_at_stationary_tolerance(monkeypatch):
    cfg = convergence_scale_config()
    ch = draw_channels(cfg, np.random.default_rng(101))
    F0 = mrt_precoder(ch, cfg)
    m4, m6 = moment_targets(F0)
    monkeypatch.setattr(solver, "GRAD_TOL_SCALE", 1e6)
    _, trace = manifold_cg(F0, m4, m6, ch, cfg, -1.0, -1.0)
    assert len(trace) == 1


def test_inner_final_gradient_small_when_converged(monkeypatch):
    cfg = convergence_scale_config()
    ch = draw_channels(cfg, np.random.default_rng(102))
    F0 = mrt_precoder(ch, cfg)
    m4, m6 = moment_targets(F0)
    monkeypatch.setattr(solver, "MAX_MO_STEPS", 3000)
    monkeypatch.setattr(solver, "OUTER_TOL", 1e-300)  # disable the stall stop
    F, _ = manifold_cg(F0, m4, m6, ch, cfg, 0.0, 0.0)
    grad = tangent_project(euclidean_gradient(F, NO_PENALTY, ch, cfg), F)
    assert np.linalg.norm(grad) <= solver.GRAD_TOL_SCALE * math.sqrt(cfg.n_tx * cfg.n_users)


# ------------------------------------------------------------------ full solve


def test_linear_pa_solve_dominates_mrt():
    for seed in range(10):
        cfg = config_for(8, 2, beta3=0j, p_tot=10.0, noise_user=0.1, noise_sense=0.1)
        ch = draw_channels(cfg, np.random.default_rng(seed))
        state, _ = optimize_full_digital(ch, cfg)
        ours = weighted_objective(state.full_digital, ch, cfg)
        mrt = weighted_objective(mrt_precoder(ch, cfg), ch, cfg)
        assert ours >= mrt - 1e-9
        power = radiated_power(state.full_digital, cfg.beta1, cfg.beta3)[0]
        assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-10


def test_solve_power_residual_small():
    cfg = convergence_scale_config()
    ch = draw_channels(cfg, np.random.default_rng(200))
    state, _ = optimize_full_digital(ch, cfg)
    power = radiated_power(state.full_digital, cfg.beta1, cfg.beta3)[0]
    assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-10


def test_solve_objective_invariant_to_initial_phase():
    cfg = config_for(8, 2, p_tot=10.0)
    ch = draw_channels(cfg, np.random.default_rng(202))
    rng = np.random.default_rng(203)
    F0 = (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))) / np.sqrt(2)
    s1, _ = optimize_full_digital(ch, cfg, f_init=F0)
    s2, _ = optimize_full_digital(ch, cfg, f_init=np.exp(0.9j) * F0)
    o1 = weighted_objective(s1.full_digital, ch, cfg)
    o2 = weighted_objective(s2.full_digital, ch, cfg)
    assert abs(o1 - o2) <= 10 * solver.OUTER_TOL * max(abs(o1), 1.0)


def test_solve_aligned_single_user_is_collinear_with_channel():
    # Single user, single path exactly at the sensing angle, communication
    # weight 1: the optimum beams along the channel direction.
    cfg = SystemConfig(
        n_tx=8,
        n_rf=4,
        n_users=1,
        n_paths=1,
        p_tot=2.0,
        noise_user=0.02,
        noise_sense=0.02,
        weight_comm=1.0,
        weight_sense=0.0,
    )
    ch_random = draw_channels(cfg, np.random.default_rng(300))
    from dabf.channel import ChannelRealization, steering_vector

    a = steering_vector(cfg.target_angle_rad, cfg.n_tx)
    h = np.sqrt(cfg.n_tx) * a
    ch = ChannelRealization(
        user_channels=h[None, :],
        path_angles=np.array([[cfg.target_angle_rad]]),
        path_gains=np.array([[1.0 + 0.0j]]),
        sense_steering=a,
        target_angle_rad=ch_random.target_angle_rad,
        target_gain=cfg.target_gain,
    )
    state, _ = optimize_full_digital(ch, cfg)
    f = state.full_digital[:, 0]
    cosine = abs(np.vdot(h, f)) / (np.linalg.norm(h) * np.linalg.norm(f))
    assert np.arccos(min(cosine, 1.0)) < 1e-2


def test_solve_holds_moments_when_quartic_degenerate():
    # Re(beta1* beta3) = 0 with beta3 != 0: the budget has no quartic term, and
    # the solve still meets it exactly.
    cfg = config_for(8, 2, beta1=1.0 + 0.0j, beta3=0.05j, p_tot=6.0)
    ch = draw_channels(cfg, np.random.default_rng(400))
    state, _ = optimize_full_digital(ch, cfg)
    power = radiated_power(state.full_digital, cfg.beta1, cfg.beta3)[0]
    assert abs(power - cfg.p_tot) / cfg.p_tot < 1e-10


def test_manifold_cg_rejects_exhausted_budget():
    # Moments whose traces exceed the budget leave no norm for the precoder.
    cfg = config_for(4, 2, beta1=1.0 + 0j, beta3=0.1 + 0j, p_tot=1.0)
    ch = draw_channels(cfg, np.random.default_rng(500))
    F = random_complex((4, 2), 501)
    huge = np.full(4, 100.0)
    assert sphere_radius_sq(huge, huge, cfg) < 0
    with pytest.raises(InfeasibleMomentBudget):
        manifold_cg(F, huge, huge, ch, cfg, -1.0, -1.0)


# --------------------------------------------------------- exact-budget ascent


def power_matched_mrt(ch, cfg):
    return scale_to_power(_mrt_direction(ch), cfg.p_tot, cfg.beta1, cfg.beta3)


@pytest.mark.parametrize("hybrid", [False, True])
@pytest.mark.parametrize("beta3", [0j, BETA3])
def test_budget_normal_is_radiated_power_gradient(beta3, hybrid):
    # Up to a positive scale, the conjugate Wirtinger gradient of the radiated
    # power, also pulled back through a partially connected analog matrix.
    cfg = config_for(8, 2, beta3=beta3)
    phases = np.random.default_rng(640).uniform(-np.pi, np.pi, 8)
    F_A = oracles.analog_from_phases(phases, 8, 2) if hybrid else None
    X = random_complex((2 if hybrid else 8, 2), 641)
    lift = (lambda Y: Y) if F_A is None else (lambda Y: F_A @ Y)
    grad = oracles.fd_wirtinger_grad(lambda Y: radiated_power(lift(Y), cfg.beta1, cfg.beta3)[0], X)
    normal = budget_normal(X, F_A, cfg)
    scale = np.vdot(normal, grad).real / np.vdot(normal, normal).real
    assert scale > 0
    assert np.linalg.norm(grad - scale * normal) <= 1e-7 * np.linalg.norm(grad)
    if beta3 == 0:
        assert np.array_equal(normal, X)


def sphere_projected_oracle(events=None):
    """The seed-1 desk instance and the oracle's ascent on it, projected onto the sphere's tangent space."""
    cfg = convergence_scale_config()
    ch = draw_channels(cfg, np.random.default_rng(1))

    def fit(X, step):
        moved = X + step
        return moved * power_match_scale(moved, cfg.p_tot, cfg.beta1, cfg.beta3)

    point, trace = oracles.ascend(
        fit(_mrt_direction(ch), 0.0),
        lambda X: weighted_objective(X, ch, cfg),
        lambda X: euclidean_gradient(X, NO_PENALTY, ch, cfg),
        fit,
        events,
    )
    return cfg, ch, point, trace


def test_level_set_ascent_gains_where_sphere_projection_stops():
    # Projected onto the sphere's tangent space (the oracle's default normal)
    # in place of the budget's, the ascent ends on a failed line search short
    # of a stationary point; one exact-budget ascent goes on from there.
    events = {}
    cfg, ch, F, _ = sphere_projected_oracle(events)
    assert events.get("failed") == 1
    _, (trace,), _ = _budget_ascent(None, F[None], ch, [cfg], solver.MAX_MO_STEPS)
    assert trace[-1] - trace[0] > solver.OUTER_TOL * abs(trace[-1])


# ---------------------------------------------------------------- stop reasons


def test_ascent_stops_on_gradient_tolerance(monkeypatch):
    cfg, ch = desk_instance(634, BETA3)
    monkeypatch.setattr(solver, "GRAD_TOL_SCALE", 1e6)
    _, (trace,), (stop,) = _budget_ascent(None, _mrt_direction(ch)[None], ch, [cfg], solver.MAX_DESIGN_STEPS)
    assert stop == "gradient" and len(trace) == 1


def test_ascent_stops_on_stall():
    cfg, ch = desk_instance(634, BETA3)
    _, (trace,), (stop,) = _budget_ascent(None, _mrt_direction(ch)[None], ch, [cfg], solver.MAX_DESIGN_STEPS)
    assert stop == "stall" and 10 < len(trace) <= solver.MAX_DESIGN_STEPS
    assert trace[-1] - trace[-11] < solver.OUTER_TOL / 10.0 * abs(trace[-1])


def test_ascent_stops_on_failed_line_search(monkeypatch):
    # With the sphere's normal in place of the budget's, the engine ends on
    # the failed line search of the level-set test, at the oracle's point.
    cfg, ch, ref_point, ref_trace = sphere_projected_oracle()
    monkeypatch.setattr(solver, "budget_normal", lambda X, F_A, config: X)
    (F,), (trace,), (stop,) = _budget_ascent(None, _mrt_direction(ch)[None], ch, [cfg], solver.MAX_MO_STEPS)
    assert stop == "line search" and len(trace) <= solver.MAX_MO_STEPS
    assert np.array_equal(F, ref_point) and np.array_equal(trace, ref_trace)


def test_ascent_stops_at_cap():
    cfg, ch = desk_instance(634, BETA3)
    _, (trace,), (stop,) = _budget_ascent(None, _mrt_direction(ch)[None], ch, [cfg], 3)
    assert stop == "cap" and len(trace) == 4


def test_first_mo_trace_starts_at_power_matched_matched_filter():
    cfg = convergence_scale_config()
    ch = draw_channels(cfg, np.random.default_rng(620))
    trace = first_mo_trace(ch, cfg)
    # Equal up to the rounding of the retraction onto the moments' sphere.
    start = weighted_objective(power_matched_mrt(ch, cfg), ch, cfg)
    assert abs(trace[0] - start) <= 1e-12 * start


# ------------------------------------------------------------ one design path


def desk_instance(seed, beta3):
    cfg = convergence_scale_config().with_updates(beta3=beta3)
    return cfg, draw_channels(cfg, np.random.default_rng(seed))


def test_linear_solve_runs_no_alternation(monkeypatch):
    # The exact-budget ascent is the whole solve, for a linear amplifier (whose
    # budget is the sphere |beta1|^2 ||F||^2 = p_tot) and a cubic one alike.
    calls = {"n": 0}
    real_cg = solver.manifold_cg

    def counted_cg(*args, **kwargs):
        calls["n"] += 1
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(solver, "manifold_cg", counted_cg)
    for beta3 in (0j, BETA3):
        cfg, ch = desk_instance(630, beta3)
        _, diag = optimize_full_digital(ch, cfg)
        assert diag.records == [] and diag.rescues == 0 and diag.growth_rounds == 0
    assert calls["n"] == 0


AMPLIFIERS = pytest.mark.parametrize("beta3", [0j, BETA3], ids=["linear", "cubic"])


@AMPLIFIERS
@pytest.mark.parametrize("given", [False, True])
def test_design_is_one_budget_ascent(monkeypatch, given, beta3):
    ascents = []
    real_ascent = solver._budget_ascent

    def counted(*args, **kwargs):
        ascents.append(real_ascent(*args, **kwargs))
        return ascents[-1]

    monkeypatch.setattr(solver, "_budget_ascent", counted)
    cfg, ch = desk_instance(631, beta3)
    f_init = random_complex((cfg.n_tx, cfg.n_users), 632) if given else None
    state, diag = optimize_full_digital(ch, cfg, f_init=f_init)
    assert len(ascents) == 1
    (F,), (trace,), (stop,) = ascents[0]
    assert np.array_equal(state.full_digital, F) and np.array_equal(diag.trace, trace)
    assert diag.stop == stop and diag.converged == (stop in ("gradient", "stall"))


@AMPLIFIERS
@pytest.mark.parametrize("seed", range(3))
def test_design_is_on_budget_and_beats_matched_filter(seed, beta3):
    cfg, ch = desk_instance(600 + seed, beta3)
    state, diag = optimize_full_digital(ch, cfg)
    F = state.full_digital
    power = radiated_power(F, cfg.beta1, cfg.beta3)[0]
    assert abs(power - cfg.p_tot) <= 1e-12 * cfg.p_tot
    assert weighted_objective(F, ch, cfg) >= weighted_objective(power_matched_mrt(ch, cfg), ch, cfg)
    assert diag.converged and diag.trace[-1] == weighted_objective(F, ch, cfg)


@AMPLIFIERS
def test_design_out_of_steps_is_not_converged(beta3, monkeypatch):
    cfg, ch = desk_instance(633, beta3)
    with monkeypatch.context() as patched:
        patched.setattr(solver, "MAX_DESIGN_STEPS", 5)
        _, diag = optimize_full_digital(ch, cfg)
    assert diag.stop == "cap" and len(diag.trace) == 6 and diag.converged is False
    _, diag = optimize_full_digital(ch, cfg)
    assert diag.stop in ("gradient", "stall") and diag.converged is True
