"""Full-digital precoder design on the exact power budget.

The design (``optimize_full_digital``) is one ascent of the weighted
objective on the budget's level set {F : P(F) = p_tot}, with one path for
every amplifier: the conjugate-gradient engine of the hybrid refinement
(``_budget_ascent``) run on the precoder itself until its own stop test. The
gradient and the previous direction are projected onto the tangent space of
that level set, whose normal is ``budget_normal``, and each trial is
rescaled back onto the budget. Every ascent reports why it stopped (see
``_ascend``), and the design has converged when its ascent stopped on the
gradient tolerance or the stall test.

The engine advances a batch of independent ascents in lockstep, one stacked
kernel call per step for all of them, so the designs of several configs on
the same channels (``optimize_full_digital`` with a sequence of configs),
or several refinements, cost far fewer kernel calls than one after another;
each result is bit for bit that of its ascent run alone.

The algorithm is fixed: its tolerances, Armijo constants, step caps and
penalty strengths are the module constants below, which the functions read
when they are called.

The paper's three blocks are kept but are not on the design path: the
Riemannian conjugate-gradient ascent of the penalized objective on the
fixed-Frobenius-norm sphere implied by the current moments
(``manifold_cg``), the closed-form constrained update of the quartic moment
(trace pinned by the power budget) and the hyperplane projection update of
the sextic moment. ``first_mo_trace`` runs the first of them for the
convergence figure, and tests check the moment updates against oracles.

The budget reads the moments only through their traces, so they are kept as
their diagonals (real length-n_tx vectors). This is a restriction, not a
different method: each diagonal entry of the two closed-form updates over
full Hermitian moment matrices depends only on diagonal inputs, so the
vector updates are exactly those diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math
from typing import Callable, Sequence

import numpy as np

from . import gradients
from .channel import ChannelRealization
from .config import SystemConfig
from .distortion import budget_coefficients, budget_scales, scale_to_power
from .gradients import (
    NO_PENALTY,
    Link,
    Terms,
    _row_powers,
    euclidean_gradient,
    moment_penalty,
    moment_targets,
    penalized_objective,
)


# Step caps: the full-digital design, and the refinement and ``manifold_cg``.
MAX_DESIGN_STEPS = 10_000
MAX_MO_STEPS = 200
# Stall test: ten accepted steps that gain less than OUTER_TOL / 10 relative.
OUTER_TOL = 1e-5
# Gradient tolerance, multiplied by sqrt(n_tx * n_users).
GRAD_TOL_SCALE = 1e-6
# Backtracking search: the first trial step is ARMIJO_INIT_STEP / ||grad||_F,
# each further trial contracts it, and at most ARMIJO_MAX_BACKTRACKS are tried.
ARMIJO_INIT_STEP = 1.0
ARMIJO_CONTRACTION = 0.5
ARMIJO_SLOPE = 1e-4
ARMIJO_MAX_BACKTRACKS = 30
# Dimensionless strengths of the two moment penalties (see ``_initial_point``).
PENALTY1 = -10.0
PENALTY2 = -10.0


class DegeneratePA(RuntimeError):
    """A moment update is undefined because the PA model degenerates."""


class InfeasibleMomentBudget(RuntimeError):
    """The moments leave no power budget for the linear part."""


@dataclass(frozen=True)
class PrecoderState:
    """Full-digital solution: one (n_tx, K) precoder, or a (M, n_tx, K) stack for a batch of designs."""

    full_digital: np.ndarray


@dataclass
class SolveDiagnostics:
    """The design's exact-budget ascent: its objective trace and why it stopped (a reason of ``_ascend``).

    For a batch of designs ``trace`` and ``stop`` are tuples with one entry
    per member. ``converged`` is true when every ascent stopped on its
    gradient tolerance or its stall test, and false when a line search
    failed or an ascent reached ``MAX_DESIGN_STEPS``.
    """

    trace: np.ndarray | tuple[np.ndarray, ...]
    stop: str | tuple[str, ...]
    # No outer rounds, rescues or penalty growth run; bench/tracer.py still reads these three.
    records: list = field(default_factory=list)
    rescues: int = 0
    growth_rounds: int = 0

    @property
    def converged(self) -> bool:
        stops = (self.stop,) if isinstance(self.stop, str) else self.stop
        return all(stop in ("gradient", "stall") for stop in stops)


def tangent_project(M: np.ndarray, F: np.ndarray, norm_sq: float | None = None) -> np.ndarray:
    """Project M onto the orthogonal complement of F (real inner product).

    With F a point of a norm sphere this is the tangent space of the sphere
    at F; with F the normal of a level set (``budget_normal``) it is the
    tangent space of that level set. ``norm_sq`` is ``||F||_F^2`` when the
    caller already has it.
    """
    if norm_sq is None:
        norm_sq = float(np.vdot(F, F).real)
    if norm_sq == 0.0:
        raise ValueError("F = 0 is not a valid point on the sphere")
    radial = float(np.vdot(F, M).real) / norm_sq
    return M - radial * F


def retract(F: np.ndarray, tangent_step: np.ndarray, c1: float) -> np.ndarray:
    """Map F + step back onto the sphere of squared Frobenius norm c1.

    ``tangent_step`` may be a (B, n_tx, K) stack of steps; each slice of the
    result is then retracted with the norm of its own 2-D slice.
    """
    if c1 <= 0.0:
        raise InfeasibleMomentBudget(f"sphere radius squared must be positive, got {c1}")
    moved = F + tangent_step
    norms = np.sqrt((moved.reshape(*moved.shape[:-2], -1).view(float) ** 2).sum(axis=-1))  # over (re, im) pairs
    if np.any(norms == 0.0):
        raise ValueError("cannot retract the zero matrix")
    return (np.sqrt(c1) / norms)[..., None, None] * moved


def sphere_radius_sq(m4: np.ndarray, m6: np.ndarray, config: SystemConfig) -> float:
    """Squared precoder norm left by the power budget at the current moments."""
    a, b, c = budget_coefficients(config.beta1, config.beta3)
    return (config.p_tot - b * float(np.sum(m4)) - c * float(np.sum(m6))) / a


# Trial steps of one Armijo search evaluated per stacked objective call.
_TRIALS_PER_CALL = 4


class _Member:
    """One ascent of a lockstep batch: its objective, trace and conjugate-gradient state, and its open line search."""

    __slots__ = (
        "obj", "trace", "stop", "direction", "fr_coeff", "prev_step", "prev_grad_sq", "since_restart",
        "grad", "grad_sq", "cap", "step", "tried",
    )

    def __init__(self, obj, restart_period: int):
        self.obj = obj
        self.trace = [obj]
        self.stop = None
        self.direction = None
        self.fr_coeff = 0.0
        self.prev_step = 0.0
        self.prev_grad_sq = 0.0
        self.since_restart = restart_period  # the first direction is the gradient
        # The open search: the projected gradient, its squared norm, the
        # largest step, the next trial step and the trials already tried.
        self.grad = None
        self.grad_sq = 0.0
        self.cap = 0.0
        self.step = 0.0
        self.tried = 0

    def restart(self, grad: np.ndarray) -> None:
        self.fr_coeff = 0.0
        self.direction = grad
        self.since_restart = 0

    def chunk(self) -> list[float]:
        """The next ``_TRIALS_PER_CALL`` trial steps step, step*c, ... (c = ``ARMIJO_CONTRACTION``)."""
        steps = []
        for _ in range(_TRIALS_PER_CALL):
            steps.append(self.step)
            self.step *= ARMIJO_CONTRACTION
        return steps


def _ascend(
    points: np.ndarray,
    objective: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Terms]],
    gradient: Callable[[np.ndarray, Terms, np.ndarray], np.ndarray],
    normal: Callable[[np.ndarray, np.ndarray], np.ndarray],
    retract: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    max_steps: int,
) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
    """Fletcher-Reeves conjugate-gradient ascents with Armijo backtracking, one per member, advanced in lockstep.

    ``points`` is a (M, rows, cols) stack of starting points, one per member
    ("member" i starts at ``points[i]``). Every member runs its own ascent
    of at most ``max_steps`` steps, and the members advance together: each
    step makes one stacked ``normal`` and ``gradient`` call for every member
    still running and one stacked ``objective`` call per round of its
    members' Armijo searches, and a member leaves the stacks when it stops.
    Every callback takes ``ids``, the members (indices into ``points``) on
    the stack's member axis, which is its last leading axis:
    ``objective(Xs, ids)`` evaluates a (T, len(ids), ...) stack and returns
    its (T, len(ids)) values and their ``Terms``; ``gradient(X, terms,
    ids)`` is the Euclidean gradient of the objective at each point of a
    (len(ids), ...) stack from the points' terms, so an accepted trial's
    terms are reused rather than recomputed; ``normal(X, ids)`` is the
    normal at each point of the feasible set's level set through it (the
    point itself for a norm sphere); and ``retract(X, steps, ids)`` maps
    ``X[j] + steps[t, j]`` back onto the feasible set. The gradient and the
    previous direction are projected onto the orthogonal complement of the
    normal, the tangent space of that level set; each member does its own
    projections and inner products, on its own arrays. An Armijo search
    tries the steps step, step*c, step*c^2, ... ``_TRIALS_PER_CALL`` at a
    time and the first one in sequence order that passes wins, so the steps
    taken are those of a one-by-one search, and each member's result is bit
    for bit that of its ascent run alone. The conjugate directions restart
    along the gradient every ``point.size`` steps.
    Returns the final points, each member's objective trace (length 1 +
    number of accepted steps, non-decreasing by the Armijo acceptance rule)
    and why it stopped: ``"gradient"`` (the projected gradient norm is at
    most ``GRAD_TOL_SCALE`` times the square root of the point's entry
    count), ``"stall"`` (the last ten steps gained less than
    ``OUTER_TOL / 10`` relative), ``"line search"`` (no trial step passed,
    also along the gradient) or ``"cap"`` (``max_steps`` steps).
    """
    size = points[0].size
    grad_tol = GRAD_TOL_SCALE * math.sqrt(size)
    stall_window = 10
    ids = np.arange(len(points))
    values, terms = objective(points[None], ids)
    terms = terms[0]
    points = np.array(points)
    members = [_Member(value, size) for value in values[0].tolist()]
    final = np.empty_like(points)
    traces: list = [None] * len(points)
    stops: list = [None] * len(points)

    for _ in range(max_steps):
        normals = normal(points, ids)
        grads = gradient(points, terms, ids)
        searching = []
        for j, m in enumerate(members):
            normal_at = normals[j]
            normal_sq = float(np.vdot(normal_at, normal_at).real)
            grad = tangent_project(grads[j], normal_at, normal_sq)
            grad_sq = float(np.vdot(grad, grad).real)
            grad_norm = math.sqrt(grad_sq)
            if grad_norm <= grad_tol:
                m.stop = "gradient"
                continue
            if m.since_restart >= size:
                m.restart(grad)
            else:
                m.fr_coeff = grad_sq / m.prev_grad_sq
                m.direction = grad + m.fr_coeff * tangent_project(m.direction, normal_at, normal_sq)
                if float(np.vdot(m.direction, grad).real) <= 0.0:
                    m.restart(grad)
            # Warm-started backtracking: reuse the previous accepted step (with
            # headroom) so stiff stretches do not pay a full backtrack cascade
            # every iteration; the cap is the ARMIJO_INIT_STEP/||grad|| initial step.
            m.grad, m.grad_sq, m.cap = grad, grad_sq, ARMIJO_INIT_STEP / grad_norm
            m.step = min(4.0 * m.prev_step, m.cap) if m.prev_step > 0.0 else m.cap
            m.tried = 0
            searching.append(j)

        # Rounds of the searches still open: each member's next trials, all in one stack.
        accepted = []
        while searching:
            every = len(searching) == len(members)
            rows = ids if every else ids[searching]
            chunks = [members[j].chunk() for j in searching]
            directions = [members[j].direction for j in searching]
            # One member's direction needs no copy to gain the member axis.
            directions = directions[0][None] if len(directions) == 1 else np.stack(directions)
            steps = np.array(chunks).T[:, :, None, None] * directions
            candidates = retract(points if every else points[searching], steps, rows)
            values, found = objective(candidates, rows)
            values = values.tolist()
            still_open, at, trial, col = [], [], [], []
            for c, j in enumerate(searching):
                m = members[j]
                valid = min(_TRIALS_PER_CALL, ARMIJO_MAX_BACKTRACKS - m.tried)
                for t, s in enumerate(chunks[c][:valid]):
                    if values[t][c] >= m.obj + ARMIJO_SLOPE * s * m.grad_sq:
                        m.prev_step, m.obj = s, values[t][c]
                        at.append(j)
                        trial.append(t)
                        col.append(c)
                        break
                else:
                    m.tried += valid
                    if m.tried < ARMIJO_MAX_BACKTRACKS:
                        still_open.append(j)
                    elif m.fr_coeff != 0.0:
                        # The momentum direction can be too misaligned with the gradient
                        # for the acceptance rule; retry once along the gradient itself.
                        m.restart(m.grad)
                        m.step, m.tried = m.cap, 0
                        still_open.append(j)
                    else:
                        m.stop = "line search"
            if every and len(at) == len(members):
                # Every member accepted a trial of this round: the round's slices are the new stacks.
                pick = trial[0] if trial.count(trial[0]) == len(trial) else (np.array(trial), np.array(col))
                points, terms = candidates[pick], found[pick]
            elif at:
                pick = np.array(trial), np.array(col)
                points[at] = candidates[pick]
                terms[at] = found[pick]
            accepted += at
            searching = still_open

        going = len(accepted)
        for j in accepted:
            m = members[j]
            m.trace.append(m.obj)
            m.prev_grad_sq = m.grad_sq
            m.since_restart += 1
            # Stall stop: relative objective change over a short window of
            # accepted steps, so a single cautious step cannot end the run.
            if len(m.trace) > stall_window:
                gained = m.obj - m.trace[-1 - stall_window]
                if gained < OUTER_TOL / 10.0 * max(abs(m.obj), 1e-12):
                    m.stop = "stall"
                    going -= 1

        if going < len(members):
            running = [j for j, m in enumerate(members) if m.stop is None]
            for j, m in enumerate(members):
                if m.stop is not None:
                    final[ids[j]], traces[ids[j]], stops[ids[j]] = points[j], np.asarray(m.trace), m.stop
            points, terms, ids = points[running], terms[running], ids[running]
            members = [members[j] for j in running]
            if not members:
                break

    for j, m in enumerate(members):
        final[ids[j]], traces[ids[j]], stops[ids[j]] = points[j], np.asarray(m.trace), "cap"
    return final, traces, stops


def manifold_cg(
    F_init: np.ndarray,
    m4: np.ndarray,
    m6: np.ndarray,
    channels: ChannelRealization,
    config: SystemConfig,
    penalty1: float,
    penalty2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fletcher-Reeves conjugate-gradient ascent on the norm sphere, for at most ``MAX_MO_STEPS`` steps.

    One ``_ascend`` of one member: each Armijo search retracts its trial
    steps onto the sphere as a stack and evaluates them in one kernel call.
    Returns the final point and the per-iteration objective trace (length 1
    + number of accepted steps, non-decreasing by the Armijo acceptance rule).
    """
    c1 = sphere_radius_sq(m4, m6, config)
    penalty = moment_penalty(m4, m6, penalty1, penalty2)
    link = Link.of(channels, config)
    points, traces, _ = _ascend(
        retract(F_init, np.zeros_like(F_init), c1)[None],
        lambda Fs, ids: penalized_objective(Fs, penalty, channels, config, link=link, with_terms=True),
        lambda F, terms, ids: euclidean_gradient(F, penalty, channels, config, terms=terms),
        lambda F, ids: F,
        lambda F, steps, ids: retract(F, steps, c1),
        MAX_MO_STEPS,
    )
    return points[0], traces[0]


def budget_normal(X: np.ndarray, F_A: np.ndarray | None, link: Link) -> np.ndarray:
    """Normal at each X[i] of a (M, ...) stack of the budget's level set through ``F_A[i] @ X[i]`` (up to scale).

    The budget P(F) = a ||F||^2 + b sum sigma^4 + c sum sigma^6 has the
    Wirtinger gradient D F with D = diag(a + 2b sigma^2 + 3c sigma^4), so the
    rows of X are scaled by D / a, with each member's 2b/a and 3c/a read
    from ``link`` (a link of the M members, ``Link.normal_weights``).
    ``F_A = None`` means each precoder is X[i] itself. Otherwise ``F_A`` is
    a (M, n_tx, n_rf) stack and the normal is pulled back to F_A^H D F_A X;
    for a partially connected F_A that matrix is diagonal, with each chain's
    sum of D over its subarray, so each row of X is scaled by its subarray's
    mean. With b = c = 0 every scale is exactly 1 and X comes back bit for
    bit.
    """
    quartic, sextic = link.normal_weights
    sig2 = _row_powers(X if F_A is None else F_A @ X)
    scale = 1.0 + quartic * sig2 + sextic * sig2**2
    if F_A is not None:
        scale = scale.reshape(*X.shape[:-1], -1).mean(axis=-1)
    return scale[..., None] * X


def _budget_ascent(
    F_A: np.ndarray | None,
    X: np.ndarray,
    channels: ChannelRealization,
    configs: Sequence[SystemConfig],
    max_steps: int,
) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
    """Lockstep ascents of the weighted rate objective of ``F_A[i] @ X[i]`` over X[i], each on its exact power budget.

    ``X`` is a (M, ...) stack of starts and ``configs`` holds one config per
    member (they share the channels); ``Link.of`` turns them into the
    numbers the ascent reads. ``F_A = None`` means each precoder is X[i]
    itself; otherwise ``F_A`` is a (M, n_tx, n_rf) stack. The retraction
    rescales each trial onto its member's output-power budget (a whole
    round of searches in one ``budget_scales`` call), the gradient is the
    pulled-back ``F_A^H grad``, and each ascent projects onto the tangent
    space of its budget's level set (``budget_normal``). Returns the final X
    stack, the objective traces and the stop reasons (see ``_ascend``); the
    first entry of a trace is the objective of power-matched X.
    """
    link = Link.of(channels, configs)
    tables: dict = {}
    last: list = [None, None]  # the ids of the latest call and their tables

    def members(ids: np.ndarray) -> tuple[Link, np.ndarray | None]:
        # The link and analog matrices of the members ``ids``, made once per set of members the engine stacks.
        if ids is not last[0]:
            key = ids.tobytes()
            if key not in tables:
                tables[key] = link.select(ids), None if F_A is None else F_A[ids]
            last[:] = ids, tables[key]
        return last[1]

    def lift(Xs: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return Xs if F_A is None else members(ids)[1] @ Xs

    def fit(X: np.ndarray, steps: np.ndarray, ids: np.ndarray) -> np.ndarray:
        moved = X + steps
        return moved * budget_scales(lift(moved, ids), members(ids)[0].budget)[..., None, None]

    def objective(Xs: np.ndarray, ids: np.ndarray):
        here = members(ids)[0]
        return penalized_objective(lift(Xs, ids), NO_PENALTY, channels, configs[0], link=here, with_terms=True)

    def gradient(X: np.ndarray, terms: Terms, ids: np.ndarray) -> np.ndarray:
        here, analog = members(ids)
        if terms.link is not here:
            terms = replace(terms, link=here)
        # Looked up at call time, so a wrapped ``gradients.euclidean_gradient`` sees every call.
        egrad = gradients.euclidean_gradient(lift(X, ids), NO_PENALTY, channels, configs[0], terms=terms)
        return egrad if F_A is None else analog.conj().swapaxes(-1, -2) @ egrad

    def normal(X: np.ndarray, ids: np.ndarray) -> np.ndarray:
        here, analog = members(ids)
        return budget_normal(X, analog, here)

    every = np.arange(len(X))
    start = fit(X, np.zeros((1, *X.shape)), every)[0]
    return _ascend(start, objective, gradient, normal, fit, max_steps)


def update_quartic_moment(
    F: np.ndarray,
    m6: np.ndarray,
    config: SystemConfig,
    penalty1: float,
    penalty2: float,
) -> tuple[np.ndarray, float]:
    """Trace-constrained maximizer of the penalty terms over the diagonal quartic moment.

    The update is entrywise (the quadratic decouples); the real dual shifts
    every entry so the sum matches the power-budget residual exactly.
    Returns (m4, dual).
    """
    a, b, c = budget_coefficients(config.beta1, config.beta3)
    if b == 0.0:
        raise DegeneratePA("quartic-moment trace target undefined for Re(beta1* beta3) = 0")
    norm_sq = float(np.real(np.vdot(F, F)))
    trace_target = (config.p_tot - a * norm_sq - c * float(np.sum(m6))) / b

    sig2 = _row_powers(F)
    sig4 = sig2**2
    xi = penalty1 + penalty2 * sig4  # strictly negative entrywise
    base = (penalty1 * sig4 + penalty2 * m6 * sig2) / xi
    dual = (trace_target - float(np.sum(base))) / (0.5 * float(np.sum(1.0 / xi)))
    return base + (dual / 2.0) / xi, dual


def update_sextic_moment(F: np.ndarray, m4: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Projection of m4 .* sigma^2 onto the trace hyperplane set by the power budget."""
    a, b, c = budget_coefficients(config.beta1, config.beta3)
    if c == 0.0:
        raise DegeneratePA("sextic-moment trace target undefined for beta3 = 0")
    norm_sq = float(np.real(np.vdot(F, F)))
    trace_target = (config.p_tot - a * norm_sq - b * float(np.sum(m4))) / c
    target = m4 * _row_powers(F)
    return target - (float(np.sum(target)) - trace_target) / F.shape[0]


def _mrt_direction(channels: ChannelRealization) -> np.ndarray:
    H = channels.user_channels
    norms = np.linalg.norm(H, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero user channel; cannot form matched-filter columns")
    return (H / norms[:, None]).T.copy()


def _initial_point(
    F: np.ndarray, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """F rescaled to the power budget, its exact moments, and the working penalty weights.

    The penalty strengths ``PENALTY1``/``PENALTY2`` are dimensionless and divided by
    the squared norms of the initial moment targets; raw weights would make
    the penalty curvature scale with p_tot^4 and freeze the precoder update.
    """
    F = scale_to_power(F, config.p_tot, config.beta1, config.beta3)
    m4, m6 = moment_targets(F)
    if config.beta3 == 0:
        # With a linear PA the budget no longer involves the moments; penalties off.
        lam1 = lam2 = 0.0
    else:
        lam1 = PENALTY1 / float(np.real(np.vdot(m4, m4)))
        lam2 = PENALTY2 / max(float(np.real(np.vdot(m6, m6))), 1e-300)
    return F, m4, m6, lam1, lam2


def first_mo_trace(channels: ChannelRealization, config: SystemConfig) -> np.ndarray:
    """Objective trace of a first conjugate-gradient run of the paper's alternation from the matched filter.

    Starts at power-matched matched-filter columns with the moments at
    their exact values, runs ``manifold_cg`` on the sphere they imply (not
    the exact-budget ascent of ``optimize_full_digital``) for at most
    ``MAX_MO_STEPS`` steps, with the penalty strengths ``PENALTY1`` and
    ``PENALTY2``, and records the penalized objective per accepted inner
    step. At this starting point the penalty terms are zero, so the first
    entry equals the weighted rate objective of the initializer.
    """
    F, m4, m6, lam1, lam2 = _initial_point(_mrt_direction(channels), config)
    _, trace = manifold_cg(F, m4, m6, channels, config, lam1, lam2)
    return trace


def optimize_full_digital(
    channels: ChannelRealization,
    config: SystemConfig | Sequence[SystemConfig],
    f_init: np.ndarray | None = None,
) -> tuple[PrecoderState, SolveDiagnostics]:
    """Design the full-digital precoder on the exact power budget.

    One ``_budget_ascent`` of the weighted objective on the budget
    {F : P(F) = p_tot}, from ``f_init`` or, when it is None, from the
    matched-filter columns, for at most ``MAX_DESIGN_STEPS`` steps. It is
    one path for every amplifier: the ascent projects onto the tangent space
    of the budget's level set, so with a cubic term no moment alternation is
    needed. The diagnostics hold the ascent's objective trace and stop
    reason; ``converged`` is true when it stopped on the gradient tolerance
    or the stall test.

    ``config`` may be a sequence of configs: one design per config on the
    same channels, run as lockstep ascents from ``f_init`` (one start for
    all, or one per design) or the matched filter. The state
    then holds the (M, n_tx, K) stack of precoders, the diagnostics one
    trace and one stop reason per design, and each design is bit for bit
    that of its own call.
    """
    configs = [config] if isinstance(config, SystemConfig) else list(config)
    start = _mrt_direction(channels) if f_init is None else np.asarray(f_init, dtype=complex)
    starts = np.broadcast_to(start, (len(configs), *start.shape[-2:]))
    F, traces, stops = _budget_ascent(None, starts, channels, configs, MAX_DESIGN_STEPS)
    if isinstance(config, SystemConfig):
        return PrecoderState(F[0]), SolveDiagnostics(traces[0], stops[0])
    return PrecoderState(F), SolveDiagnostics(tuple(traces), tuple(stops))
