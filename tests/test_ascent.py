"""Exactness of the stacked Armijo search and the stacked objective kernel.

The ascent evaluates several trial steps per kernel call and hands the
accepted trial's probe terms to the gradient. Both are exact rewrites, so
the checks here are bit for bit: against the one-trial-at-a-time engine in
``oracles.ascend`` and against per-slice kernel calls.
"""

import numpy as np
import pytest

import oracles
from dabf import gradients
from dabf.channel import draw_channels
from dabf.config import SolverOptions, SystemConfig, dbm_to_mw, noise_from_snr
from dabf.decomposition import decompose, refine_digital
from dabf.distortion import power_match_scale
from dabf.gradients import NO_PENALTY, Link, euclidean_gradient, moment_penalty, moment_targets, penalized_objective
from dabf.metrics import weighted_objective
from dabf.solver import _initial_point, _mrt_direction, manifold_cg, retract, sphere_radius_sq

# Default options, a first trial step so large that whole chunks of trials
# are rejected, a steep slope that also makes momentum searches fail and
# retry along the gradient, and a trial budget that is not a multiple of the
# chunk size.
ASCENT_OPTIONS = {
    "default": {},
    "deep": {"armijo_init_step": 1e4},
    "retry": {"armijo_slope": 0.5},
    "short": {"armijo_max_backtracks": 5},
}


def desk_instance(seed, **solver):
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    cfg = SystemConfig(
        n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0,
        solver=SolverOptions(**solver),
    )
    return cfg, draw_channels(cfg, np.random.default_rng(seed))


def assert_events(name, events):
    if name == "deep":
        assert events.get("deep", 0) > 0
    if name == "retry":
        assert events.get("retry", 0) > 0


@pytest.mark.parametrize("name", sorted(ASCENT_OPTIONS))
def test_sphere_ascent_equals_sequential_oracle(name):
    cfg, ch = desk_instance(0, **ASCENT_OPTIONS[name])
    F, m4, m6, lam1, lam2 = _initial_point(_mrt_direction(ch), cfg)
    m4 = 1.05 * m4  # off-target moments, so the penalties act
    c1 = sphere_radius_sq(m4, m6, cfg)
    penalty = moment_penalty(m4, m6, lam1, lam2)
    events = {}
    ref_point, ref_trace = oracles.ascend(
        retract(F, np.zeros_like(F), c1),
        lambda X: penalized_objective(X, penalty, ch, cfg),
        lambda X: euclidean_gradient(X, penalty, ch, cfg),
        lambda X, step: retract(X, step, c1),
        cfg.solver,
        events,
    )
    point, trace = manifold_cg(F, m4, m6, ch, cfg, cfg.solver, lam1, lam2)
    assert_events(name, events)
    assert len(trace) > 1
    assert np.array_equal(point, ref_point)
    assert np.array_equal(trace, ref_trace)


@pytest.mark.parametrize("name", sorted(ASCENT_OPTIONS))
def test_power_matched_ascent_equals_sequential_oracle(name):
    cfg, ch = desk_instance(1, **ASCENT_OPTIONS[name])
    F_A, F_D, _ = decompose(_initial_point(_mrt_direction(ch), cfg)[0], cfg.n_rf)

    def fit(X, step):
        moved = X + step
        return moved * power_match_scale(F_A @ moved, cfg.p_tot, cfg.beta1, cfg.beta3)

    events = {}
    ref_point, ref_trace = oracles.ascend(
        fit(F_D, 0.0),
        lambda X: weighted_objective(F_A @ X, ch, cfg),
        lambda X: F_A.conj().T @ euclidean_gradient(F_A @ X, NO_PENALTY, ch, cfg),
        fit,
        cfg.solver,
        events,
    )
    assert_events(name, events)
    assert len(ref_trace) > 1
    assert np.array_equal(refine_digital(F_A, F_D, ch, cfg), ref_point)


STACK_CASES = [
    (n_tx, penalized, beta3)
    for n_tx in (4, 16, 64, 256)
    for penalized in (False, True)
    for beta3 in (0j, -0.08 + 0.1j)
]


@pytest.mark.parametrize("n_tx,penalized,beta3", STACK_CASES)
def test_stacked_objective_equals_per_slice_calls(n_tx, penalized, beta3):
    cfg = SystemConfig(
        n_tx=n_tx, n_rf=2, n_users=2, n_paths=2, p_tot=4.0, noise_user=0.1, noise_sense=0.12,
        beta3=beta3, target_gain=0.9 + 0.2j,
    )
    rng = np.random.default_rng(n_tx + 10 * penalized + (beta3 != 0))
    ch = draw_channels(cfg, rng)
    for size in (1, 3, 4):
        stack = (rng.standard_normal((size, n_tx, 2)) + 1j * rng.standard_normal((size, n_tx, 2))) / 4.0
        m4, m6 = moment_targets(stack[0] + 0.1)
        penalty = moment_penalty(m4, m6, -3.0, -1.5) if penalized else NO_PENALTY
        values, terms = penalized_objective(stack, penalty, ch, cfg, link=Link.of(ch, cfg), with_terms=True)
        assert values.shape == (size,)
        for b, F in enumerate(stack):
            assert values[b] == penalized_objective(F, penalty, ch, cfg)
            if not penalized:
                assert values[b] == weighted_objective(F, ch, cfg)
            assert np.array_equal(
                euclidean_gradient(F, penalty, ch, cfg, terms=terms[b]), euclidean_gradient(F, penalty, ch, cfg)
            )
