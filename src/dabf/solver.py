"""Alternating optimizer for the distortion-aware full-digital precoder.

One outer round alternates three exact subproblem solves:

1. Riemannian conjugate-gradient ascent of the penalized objective over the
   fixed-Frobenius-norm sphere implied by the current moments.
2. Closed-form constrained update of the quartic moment (trace pinned by the
   power budget).
3. Hyperplane projection update of the sextic moment.

Each step never decreases the penalized objective, and the triple
(precoder, m4, m6) keeps the expanded power-budget equality exact.

Every solve starts with an ascent of the weighted objective on the exact
power budget (``_budget_start``), which runs the engine of the hybrid
refinement (``_budget_ascent``) on the precoder itself. With a linear
amplifier the budget is the sphere |beta1|^2 ||F||_F^2 = p_tot and that
ascent is the whole solve; the alternation runs only with a cubic term.

The budget reads the moments only through their traces, so they are kept as
their diagonals (real length-n_tx vectors). This is a restriction, not a
different method: each diagonal entry of the two closed-form updates over
full Hermitian moment matrices depends only on diagonal inputs, so the
vector updates are exactly those diagonals, and the off-diagonal residuals
vanish at every fixed point of the alternation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gradients
from .channel import ChannelRealization
from .config import SolverOptions, SystemConfig
from .distortion import budget_coefficients, power_match_scale, radiated_power, scale_to_power
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


class DegeneratePA(RuntimeError):
    """A moment update is undefined because the PA model degenerates."""


class InfeasibleMomentBudget(RuntimeError):
    """The moments leave no power budget for the linear part."""


@dataclass(frozen=True)
class PrecoderState:
    """Full-digital solution and its moments.

    ``moment4`` and ``moment6`` are the auxiliary diagonal moments, real
    length-n_tx vectors (sigma^4 and sigma^6 of the returned precoder).
    """

    full_digital: np.ndarray
    moment4: np.ndarray
    moment6: np.ndarray


@dataclass(frozen=True)
class OuterRecord:
    penalized_objective: float
    moment_residual_m4: float
    moment_residual_m6: float


@dataclass
class SolveDiagnostics:
    records: list[OuterRecord] = field(default_factory=list)
    inner_traces: list[np.ndarray] = field(default_factory=list)
    rescues: int = 0
    growth_rounds: int = 0
    converged: bool = False
    final_power_residual: float = 0.0


def tangent_project(M: np.ndarray, F: np.ndarray, norm_sq: float | None = None) -> np.ndarray:
    """Project M onto the tangent space of the norm sphere at F.

    ``norm_sq`` is ``||F||_F^2`` when the caller already has it.
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


def _armijo_search(point, direction, step, obj, grad_sq, objective, retract, options):
    """First trial of step, step*c, step*c^2, ... that passes the Armijo test.

    The ``armijo_max_backtracks`` trial steps are retracted and evaluated
    ``_TRIALS_PER_CALL`` at a time as one stack, and the first passing trial
    in sequence order wins, so the outcome is that of trying them one by
    one. Returns (point, step, objective, terms) of that trial, or None.
    """
    for start in range(0, options.armijo_max_backtracks, _TRIALS_PER_CALL):
        chunk = []
        for _ in range(min(_TRIALS_PER_CALL, options.armijo_max_backtracks - start)):
            chunk.append(step)
            step *= options.armijo_contraction
        candidates = retract(point, np.array(chunk)[:, None, None] * direction)
        values, terms = objective(candidates)
        for i, s in enumerate(chunk):
            if values[i] >= obj + options.armijo_slope * s * grad_sq:
                return candidates[i], s, values[i], terms[i]
    return None


def _ascend(
    point: np.ndarray,
    objective: Callable[[np.ndarray], tuple[np.ndarray, Terms]],
    gradient: Callable[[np.ndarray, Terms], np.ndarray],
    retract: Callable[[np.ndarray, np.ndarray], np.ndarray],
    options: SolverOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Fletcher-Reeves conjugate-gradient ascent with Armijo backtracking.

    ``objective(Xs)`` evaluates a (B, ...) stack of points in one call and
    returns their values and their ``Terms``; ``gradient(X, terms)`` is the
    Euclidean gradient of the objective at ``X`` from X's terms, so the
    accepted trial's terms are reused rather than recomputed. The gradient
    and the previous direction are projected onto the tangent space of the
    sphere through ``X``. ``retract(X, steps)`` maps ``X + step`` back onto
    the feasible set for each step of a stack; both the sphere retraction
    and the power-matching rescale undo radial moves, so the radial
    projection fits either. Trial steps are evaluated a few at a time as a
    stack (``_armijo_search``), and the first one in sequence order that
    passes wins, so the steps taken are those of a one-by-one search.
    Returns the final point and the objective trace (length 1 + number of
    accepted steps, non-decreasing by the Armijo acceptance rule).
    """
    grad_tol = options.mo_grad_tol(*point.shape)
    restart_period = point.size
    values, terms = objective(point[None])
    obj, terms = values[0], terms[0]
    trace = [obj]
    direction = None
    fr_coeff = 0.0
    prev_step = 0.0
    prev_grad_sq = 0.0
    since_restart = 0
    stall_window = 10

    for _ in range(options.max_mo_iters):
        point_sq = float(np.vdot(point, point).real)
        grad = tangent_project(gradient(point, terms), point, point_sq)
        grad_sq = float(np.vdot(grad, grad).real)
        grad_norm = np.sqrt(grad_sq)
        if grad_norm <= grad_tol:
            break

        if direction is None or since_restart >= restart_period:
            fr_coeff = 0.0
            direction = grad
            since_restart = 0
        else:
            fr_coeff = grad_sq / prev_grad_sq
            direction = grad + fr_coeff * tangent_project(direction, point, point_sq)
            if float(np.vdot(direction, grad).real) <= 0.0:
                fr_coeff = 0.0
                direction = grad
                since_restart = 0

        # Warm-started backtracking: reuse the previous accepted step (with
        # headroom) so stiff stretches do not pay a full backtrack cascade
        # every iteration; the cap is the configured 1/||grad|| initial step.
        cap = options.armijo_init_step / grad_norm
        step = min(4.0 * prev_step, cap) if prev_step > 0.0 else cap
        found = _armijo_search(point, direction, step, obj, grad_sq, objective, retract, options)
        if found is None and fr_coeff != 0.0:
            # The momentum direction can be too misaligned with the gradient
            # for the acceptance rule; retry once along the gradient itself.
            fr_coeff = 0.0
            direction = grad
            since_restart = 0
            found = _armijo_search(point, direction, cap, obj, grad_sq, objective, retract, options)
        if found is None:
            break  # stationary within line-search resolution

        point, prev_step, obj, terms = found
        trace.append(obj)
        prev_grad_sq = grad_sq
        since_restart += 1
        # Stall stop: relative objective change over a short window of
        # accepted steps, so a single cautious step cannot end the run.
        if len(trace) > stall_window:
            gained = obj - trace[-1 - stall_window]
            if gained < options.outer_tol / 10.0 * max(abs(obj), 1e-12):
                break

    return point, np.asarray(trace)


def manifold_cg(
    F_init: np.ndarray,
    m4: np.ndarray,
    m6: np.ndarray,
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions,
    penalty1: float,
    penalty2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fletcher-Reeves conjugate-gradient ascent on the norm sphere.

    Each Armijo search retracts its trial steps onto the sphere as a stack
    and evaluates them in one kernel call (see ``_ascend``). Returns the
    final point and the per-iteration objective trace (length 1 + number of
    accepted steps, non-decreasing by the Armijo acceptance rule).
    """
    c1 = sphere_radius_sq(m4, m6, config)
    penalty = moment_penalty(m4, m6, penalty1, penalty2)
    link = Link.of(channels, config)
    return _ascend(
        retract(F_init, np.zeros_like(F_init), c1),
        lambda Fs: penalized_objective(Fs, penalty, channels, config, link=link, with_terms=True),
        lambda F, terms: euclidean_gradient(F, penalty, channels, config, terms=terms),
        lambda F, steps: retract(F, steps, c1),
        options,
    )


def _budget_ascent(
    F_A: np.ndarray | None,
    X: np.ndarray,
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Ascent of the weighted rate objective of ``F_A @ X`` over X on the exact power budget.

    ``F_A = None`` means the precoder is X itself. The retraction rescales
    each trial onto the output-power budget of ``config`` (the whole stack
    of a search in one ``power_match_scale`` call), and the gradient is the
    pulled-back ``F_A^H grad``. Returns the final X and the objective trace
    (see ``_ascend``); the first entry is the objective of power-matched X.
    """
    lift = (lambda Xs: Xs) if F_A is None else (lambda Xs: F_A @ Xs)
    link = Link.of(channels, config)

    def fit(X: np.ndarray, steps: np.ndarray) -> np.ndarray:
        moved = X + steps
        return moved * power_match_scale(lift(moved), config.p_tot, config.beta1, config.beta3)[:, None, None]

    def objective(Xs: np.ndarray):
        return penalized_objective(lift(Xs), NO_PENALTY, channels, config, link=link, with_terms=True)

    def gradient(X: np.ndarray, terms: Terms) -> np.ndarray:
        # Looked up at call time, so a wrapped ``gradients.euclidean_gradient`` sees every call.
        egrad = gradients.euclidean_gradient(lift(X), NO_PENALTY, channels, config, terms=terms)
        return egrad if F_A is None else F_A.conj().T @ egrad

    return _ascend(fit(X, np.zeros((1, *X.shape)))[0], objective, gradient, fit, options)


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


def _moment_residuals(F: np.ndarray, m4: np.ndarray, m6: np.ndarray) -> tuple[float, float]:
    m4_t, m6_t = moment_targets(F)
    r4 = float(np.linalg.norm(m4 - m4_t) / max(np.linalg.norm(m4_t), 1e-300))
    r6 = float(np.linalg.norm(m6 - m6_t) / max(np.linalg.norm(m6_t), 1e-300))
    return r4, r6


def _initial_point(
    F: np.ndarray, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """F rescaled to the power budget, its exact moments, and the working penalty weights.

    Configured penalty strengths are treated as dimensionless and divided by
    the squared norms of the initial moment targets; raw weights would make
    the penalty curvature scale with p_tot^4 and freeze the precoder update.
    """
    F = scale_to_power(F, config.p_tot, config.beta1, config.beta3)
    m4, m6 = moment_targets(F)
    if config.beta3 == 0:
        # With a linear PA the budget no longer involves the moments; penalties off.
        lam1 = lam2 = 0.0
    else:
        lam1 = config.penalty1 / float(np.real(np.vdot(m4, m4)))
        lam2 = config.penalty2 / max(float(np.real(np.vdot(m6, m6))), 1e-300)
    return F, m4, m6, lam1, lam2


def _budget_start(
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions,
    f_init: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Precoder from ascending the weighted objective on the exact power budget.

    Starts at ``f_init``, or at the matched-filter columns when it is None,
    and repeats one ``_budget_ascent`` run (each restarts the conjugate
    directions) until a run gains less than ``outer_tol`` relative, for at
    most ``max_outer_iters`` runs. Returns the point, which is on the budget
    {F : P(F) = p_tot}, and whether a run met ``outer_tol`` (false when the
    runs were spent first).
    """
    F = _mrt_direction(channels) if f_init is None else np.asarray(f_init, dtype=complex)
    for _ in range(options.max_outer_iters):
        F, trace = _budget_ascent(None, F, channels, config, options)
        if trace[-1] - trace[0] < options.outer_tol * max(abs(trace[-1]), 1e-12):
            return F, True
    return F, False


def first_mo_trace(
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions | None = None,
) -> np.ndarray:
    """Objective trace of a first conjugate-gradient run of the alternation from the matched filter.

    Starts at power-matched matched-filter columns with the moments at
    their exact values (not at the exact-budget ascent ``optimize_full_digital``
    starts from, see ``_budget_start``) and records the penalized objective
    per accepted inner step. At this starting point the penalty terms are
    zero, so the first entry equals the weighted rate objective of the
    initializer.
    """
    options = options or config.solver
    F, m4, m6, lam1, lam2 = _initial_point(_mrt_direction(channels), config)
    _, trace = manifold_cg(F, m4, m6, channels, config, options, lam1, lam2)
    return trace


def optimize_full_digital(
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions | None = None,
    f_init: np.ndarray | None = None,
) -> tuple[PrecoderState, SolveDiagnostics]:
    """Design the full-digital precoder on the exact power budget.

    Every solve first ascends the weighted objective on the exact budget
    {F : P(F) = p_tot} (``_budget_start``), from ``f_init`` or, when it is
    None, from the matched-filter columns. With a linear amplifier that
    budget is the sphere |beta1|^2 ||F||_F^2 = p_tot, so the ascent's point
    is the solution, the diagnostics hold no outer rounds, and ``converged``
    says whether its last run gained less than ``outer_tol`` relative
    (false when ``max_outer_iters`` runs were spent first). With a cubic
    term the budget depends on the moments, and the three-block alternation
    (``_alternate``) continues from that point and sets ``converged``. The
    returned moments are the exact ones of the returned precoder.
    """
    options = options or config.solver
    F, converged = _budget_start(channels, config, options, f_init)
    diag = SolveDiagnostics(converged=converged)
    if budget_coefficients(config.beta1, config.beta3)[2] != 0.0:
        F = _alternate(F, channels, config, options, diag)
    m4, m6 = moment_targets(F)
    diag.final_power_residual = (
        abs(radiated_power(F, config.beta1, config.beta3)[0] - config.p_tot) / config.p_tot
    )
    return PrecoderState(full_digital=F, moment4=m4, moment6=m6), diag


def _alternate(
    F: np.ndarray,
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions,
    diag: SolveDiagnostics,
) -> np.ndarray:
    """Three-block alternation from F with a cubic amplifier term.

    The moments start at their exact values. If the moment residuals exceed
    tolerance at convergence, the penalty magnitudes grow and the
    alternation continues. Records its rounds, rescues and growth rounds in
    ``diag`` and sets ``diag.converged``: true only when the last stage
    stalled below ``outer_tol`` with the moment residuals within
    ``moment_residual_tol``, false when the solve ends on its round or
    growth budget. Returns the final precoder rescaled onto the exact budget.
    """
    hold_m4 = budget_coefficients(config.beta1, config.beta3)[1] == 0.0
    F, m4, m6, lam1, lam2 = _initial_point(F, config)
    prev_obj = penalized_objective(F, moment_penalty(m4, m6, lam1, lam2), channels, config)

    while True:
        stalled = False
        # Growth stages only re-tighten the moments around an already good
        # precoder, so they get a reduced round budget.
        stage_budget = (
            options.max_outer_iters
            if diag.growth_rounds == 0
            else max(10, options.max_outer_iters // 5)
        )
        for _ in range(stage_budget):
            try:
                F_new, trace = manifold_cg(F, m4, m6, channels, config, options, lam1, lam2)
            except InfeasibleMomentBudget:
                diag.rescues += 1
                if diag.rescues > options.max_rescues:
                    raise InfeasibleMomentBudget(
                        "moments repeatedly exhausted the power budget "
                        f"after {options.max_rescues} rescale attempts"
                    )
                F = 0.9 * F
                m4, m6 = moment_targets(F)
                prev_obj = penalized_objective(F, moment_penalty(m4, m6, lam1, lam2), channels, config)
                continue
            F = F_new
            diag.inner_traces.append(trace)

            # Feasibility restoration before re-deriving the moments: without
            # it the power mismatch of the drifted precoder lodges in the
            # quartic-moment trace and the alternation stalls there.
            F = scale_to_power(F, config.p_tot, config.beta1, config.beta3)
            if hold_m4:
                m4 = moment_targets(F)[0]
            else:
                m4, _ = update_quartic_moment(F, m6, config, lam1, lam2)
            m6 = update_sextic_moment(F, m4, config)

            obj = penalized_objective(F, moment_penalty(m4, m6, lam1, lam2), channels, config)
            diag.records.append(OuterRecord(obj, *_moment_residuals(F, m4, m6)))
            rel = abs(obj - prev_obj) / max(abs(prev_obj), 1e-12)
            prev_obj = obj
            if rel < options.outer_tol:
                stalled = True
                break

        r4, r6 = _moment_residuals(F, m4, m6)
        settled = r4 <= options.moment_residual_tol and r6 <= options.moment_residual_tol
        if settled or diag.growth_rounds >= options.max_growth_rounds:
            diag.converged = stalled and settled
            break
        lam1 *= options.penalty_growth
        lam2 *= options.penalty_growth
        diag.growth_rounds += 1
        prev_obj = penalized_objective(F, moment_penalty(m4, m6, lam1, lam2), channels, config)

    # Feasibility restoration: the penalty equilibrium leaves a small bias in
    # the true output power, so return a precoder rescaled onto the exact
    # budget (the caller re-derives the exact moments).
    return scale_to_power(F, config.p_tot, config.beta1, config.beta3)
