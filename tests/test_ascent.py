"""Exactness of the stacked Armijo search and the stacked objective kernel.

The ascent evaluates several trial steps per kernel call and hands the
accepted trial's probe terms to the gradient. Both are exact rewrites, so
the checks here are bit for bit: against the one-trial-at-a-time engine in
``oracles.ascend`` and against per-slice kernel calls.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from dabf import gradients, solver
from dabf.channel import draw_channels
from dabf.config import SystemConfig, dbm_to_mw, noise_from_snr
from dabf.decomposition import decompose, refine_digital
from dabf.distortion import power_match_scale
from dabf.gradients import NO_PENALTY, Link, euclidean_gradient, moment_penalty, moment_targets, penalized_objective
from dabf.metrics import weighted_objective
from dabf.solver import (
    _initial_point,
    _mrt_direction,
    budget_normal,
    manifold_cg,
    retract,
    sphere_radius_sq,
    tangent_project,
)

# Default constants, a first trial step so large that whole chunks of trials
# are rejected, a steep slope that also makes momentum searches fail and
# retry along the gradient, and a trial budget that is not a multiple of the
# chunk size. Keys are the oracle's keywords; upper-cased, they name the
# ``dabf.solver`` constants.
ASCENT_CONSTANTS = {
    "default": {},
    "deep": {"armijo_init_step": 1e4},
    "retry": {"armijo_slope": 0.9},
    "short": {"armijo_max_backtracks": 5},
}


def desk_instance(seed, monkeypatch, constants):
    for key, value in constants.items():
        monkeypatch.setattr(solver, key.upper(), value)
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    cfg = SystemConfig(n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0)
    return cfg, draw_channels(cfg, np.random.default_rng(seed))


def assert_events(name, events):
    if name == "deep":
        assert events.get("deep", 0) > 0
    if name == "retry":
        assert events.get("retry", 0) > 0


@pytest.mark.parametrize("name", sorted(ASCENT_CONSTANTS))
def test_sphere_ascent_equals_sequential_oracle(name, monkeypatch):
    cfg, ch = desk_instance(0, monkeypatch, ASCENT_CONSTANTS[name])
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
        events,
        **ASCENT_CONSTANTS[name],
    )
    point, trace = manifold_cg(F, m4, m6, ch, cfg, lam1, lam2)
    assert_events(name, events)
    assert len(trace) > 1
    assert np.array_equal(point, ref_point)
    assert np.array_equal(trace, ref_trace)


@pytest.mark.parametrize("name", sorted(ASCENT_CONSTANTS))
def test_power_matched_ascent_equals_sequential_oracle(name, monkeypatch):
    cfg, ch = desk_instance(1, monkeypatch, ASCENT_CONSTANTS[name])
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
        events,
        lambda X: budget_normal(X, F_A, cfg),
        **ASCENT_CONSTANTS[name],
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


# ------------------------------------------------------------ lockstep batches


def member_configs(n_tx):
    """Linear and cubic amplifiers at different noise powers, as on a grid of one realization."""
    p = dbm_to_mw(13.0)
    configs = []
    for snr_db, beta3 in ((20.0, -0.08 + 0.1j), (20.0, 0j), (5.0, -0.08 + 0.1j), (12.0, 0j), (12.0, 0.1 - 0.05j)):
        n0 = noise_from_snr(p, snr_db)
        configs.append(
            SystemConfig(n_tx=n_tx, n_rf=4, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0, beta3=beta3)
        )
    return configs


def start_gradient_norm(F_A, X, ch, cfg):
    """Norm of the projected gradient that an ascent's first stop test reads at its power-matched start."""
    start = X * power_match_scale(X if F_A is None else F_A @ X, cfg.p_tot, cfg.beta1, cfg.beta3)
    egrad = euclidean_gradient(start if F_A is None else F_A @ start, NO_PENALTY, ch, cfg)
    grad = egrad if F_A is None else F_A.conj().T @ egrad
    return np.linalg.norm(tangent_project(grad, budget_normal(start, F_A, cfg)))


def assert_lockstep_equals_solo(F_A, starts, ch, configs, max_steps, monkeypatch):
    """Each member of a batch equals its run alone: final point, trace and stop reason, bit for bit.

    Member 0 starts at its own solo optimum, under a gradient tolerance that
    stops it there and no other member at its start. Returns the stop reasons.
    """
    solo = solver._budget_ascent(None if F_A is None else F_A[:1], starts[:1], ch, configs[:1], solver.MAX_DESIGN_STEPS)
    starts = np.concatenate([solo[0], starts[1:]])
    norms = [
        start_gradient_norm(None if F_A is None else F_A[i], X, ch, cfg)
        for i, (X, cfg) in enumerate(zip(starts, configs))
    ]
    assert norms[0] < 0.1 * min(norms[1:])
    with monkeypatch.context() as patched:
        patched.setattr(solver, "GRAD_TOL_SCALE", 2.0 * norms[0] / np.sqrt(starts[0].size))
        points, traces, stops = solver._budget_ascent(F_A, starts, ch, configs, max_steps)
        assert stops[0] == "gradient" and len(traces[0]) == 1
        assert len(set(stops)) > 1 and len({len(trace) for trace in traces}) > 2
        for i, cfg in enumerate(configs):
            analog = None if F_A is None else F_A[i : i + 1]
            alone = solver._budget_ascent(analog, starts[i : i + 1], ch, [cfg], max_steps)
            assert np.array_equal(points[i], alone[0][0])
            assert np.array_equal(traces[i], alone[1][0])
            assert stops[i] == alone[2][0]


def test_lockstep_designs_equal_solo_designs(monkeypatch):
    configs = member_configs(16)
    ch = draw_channels(configs[0], np.random.default_rng(5))
    starts = np.broadcast_to(_mrt_direction(ch), (len(configs), 16, 2))
    assert_lockstep_equals_solo(None, starts, ch, configs, 60, monkeypatch)
    # The public entry point runs the batch at the default constants: stacked
    # precoders, one trace and stop reason per design, members stopping apart.
    state, diag = solver.optimize_full_digital(ch, configs)
    assert len({len(trace) for trace in diag.trace}) == len(configs)
    for i, cfg in enumerate(configs):
        alone, alone_diag = solver.optimize_full_digital(ch, cfg)
        assert np.array_equal(state.full_digital[i], alone.full_digital)
        assert np.array_equal(diag.trace[i], alone_diag.trace) and diag.stop[i] == alone_diag.stop
    assert diag.converged == all(stop in ("gradient", "stall") for stop in diag.stop)


def test_lockstep_refinements_equal_solo_refinements(monkeypatch):
    # Each member refines its own factorization, under its own design model.
    configs = member_configs(16)
    ch = draw_channels(configs[0], np.random.default_rng(6))
    rng = np.random.default_rng(7)
    factors = [decompose(_mrt_direction(ch) + 0.3 * rng.standard_normal((16, 2)), 4)[:2] for _ in configs]
    F_A, F_D = (np.array(part) for part in zip(*factors))
    assert_lockstep_equals_solo(F_A, F_D, ch, configs, 40, monkeypatch)
    refined = refine_digital(F_A, F_D, ch, configs)
    for i, cfg in enumerate(configs):
        assert np.array_equal(refined[i], refine_digital(F_A[i], F_D[i], ch, cfg))


@pytest.mark.parametrize("n_tx", [16, 64])
def test_member_trial_stacks_equal_per_slice_calls(n_tx):
    # A (trial, member) stack whose members differ in amplifier and noise, through a link of the members.
    configs = member_configs(n_tx)
    ch = draw_channels(configs[0], np.random.default_rng(n_tx))
    rng = np.random.default_rng(n_tx + 1)
    shape = (4, len(configs), n_tx, 2)
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 4.0
    link = Link.of(ch, configs)
    values, terms = penalized_objective(stack, NO_PENALTY, ch, configs[0], link=link, with_terms=True)
    assert values.shape == (4, len(configs))
    budget = [[getattr(c, name) for c in configs] for name in ("p_tot", "beta1", "beta3")]
    scales = power_match_scale(stack, *budget)
    for t in range(4):
        grads = euclidean_gradient(stack[t], NO_PENALTY, ch, configs[0], terms=terms[t])
        normals = budget_normal(stack[t], None, configs)
        for j, cfg in enumerate(configs):
            F = stack[t, j]
            assert values[t, j] == penalized_objective(F, NO_PENALTY, ch, cfg)
            assert np.array_equal(grads[j], euclidean_gradient(F, NO_PENALTY, ch, cfg))
            assert scales[t, j] == power_match_scale(F, cfg.p_tot, cfg.beta1, cfg.beta3)
            assert np.array_equal(normals[j], budget_normal(F, None, cfg))
    # A linear member's budget normal is its point, bit for bit, also among cubic members.
    assert np.array_equal(budget_normal(stack[0], None, configs)[1], stack[0, 1])


# Run in a fresh process with glibc's allocation thresholds fixed at their
# defaults. Otherwise they adapt to the process's history (freeing a large
# block raises them), and whether a call maps fresh pages would depend on
# what ran before it, not on the kernel.
WIDE_STACK_FAULTS = """
import resource
import numpy as np
from dabf.channel import draw_channels
from dabf.config import SystemConfig
from dabf.gradients import NO_PENALTY, euclidean_gradient, penalized_objective
from dabf.metrics import Link

base = SystemConfig(n_tx=64, n_rf=4, n_users=2, n_paths=3, p_tot=20.0, noise_user=0.2, noise_sense=0.2)
members = [base.with_updates(beta3=complex(b3, 0.05)) for b3 in np.linspace(-0.1, 0.0, 13)]
ch = draw_channels(base, np.random.default_rng(8))
rng = np.random.default_rng(9)
stack = (rng.standard_normal((4, 13, 64, 2)) + 1j * rng.standard_normal((4, 13, 64, 2))) / 4.0
link, member_link = Link.of(ch, base), Link.of(ch, members)
_, terms = penalized_objective(stack, NO_PENALTY, ch, base, link=member_link, with_terms=True)
faults = []
for call in (
    lambda: penalized_objective(stack, NO_PENALTY, ch, base, link=link, with_terms=True),
    lambda: penalized_objective(stack, NO_PENALTY, ch, base, link=Link.of(ch, base), with_terms=True),
    lambda: euclidean_gradient(stack[0], NO_PENALTY, ch, base, terms=terms[0]),
):
    for _ in range(5):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        call()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are counted by Linux")
def test_wide_stacks_reuse_their_work_arrays():
    # A 52-slice objective stack at 64 antennas (13 members' four-trial
    # searches, as a default nonlinearity sweep's designs make them), and the
    # 13 members' gradients, 20 calls each after a warm-up. The gradient's
    # large temporaries are all reused, so it maps no fresh pages. The
    # objective reusing its link's work arrays maps at most half the pages
    # of one that cuts them anew (a fresh link per call); the rest are
    # NumPy's own temporaries.
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        OPENBLAS_NUM_THREADS="1",
        MALLOC_MMAP_THRESHOLD_="131072",
        MALLOC_TRIM_THRESHOLD_="131072",
    )
    run = subprocess.run([sys.executable, "-c", WIDE_STACK_FAULTS], env=env, capture_output=True, text=True, check=True)
    reused, fresh, gradient = map(int, run.stdout.split())
    assert gradient < 20
    assert reused < 0.5 * fresh
