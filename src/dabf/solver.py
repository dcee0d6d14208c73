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


@dataclass
class SolveDiagnostics:
    """The design's one exact-budget ascent: its objective trace and why it stopped (a reason of ``_ascend``).

    ``converged`` is true when the ascent stopped on its gradient tolerance
    or its stall test, and false when a line search failed or the ascent
    reached ``max_design_steps``.
    """

    trace: np.ndarray
    stop: str
    final_power_residual: float = 0.0
    # No outer rounds, rescues or penalty growth run; bench/tracer.py still reads these three.
    records: list = field(default_factory=list)
    rescues: int = 0
    growth_rounds: int = 0

    @property
    def converged(self) -> bool:
        return self.stop in ("gradient", "stall")


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
    normal: Callable[[np.ndarray], np.ndarray],
    retract: Callable[[np.ndarray, np.ndarray], np.ndarray],
    options: SolverOptions,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Fletcher-Reeves conjugate-gradient ascent with Armijo backtracking, for at most ``max_steps`` steps.

    ``objective(Xs)`` evaluates a (B, ...) stack of points in one call and
    returns their values and their ``Terms``; ``gradient(X, terms)`` is the
    Euclidean gradient of the objective at ``X`` from X's terms, so the
    accepted trial's terms are reused rather than recomputed. ``normal(X)``
    is the normal at ``X`` of the feasible set's level set through it (``X``
    itself for a norm sphere), and the gradient and the previous direction
    are projected onto its orthogonal complement, the tangent space of that
    level set. ``retract(X, steps)`` maps ``X + step`` back onto the
    feasible set for each step of a stack. Trial steps are evaluated a few
    at a time as a stack (``_armijo_search``), and the first one in sequence
    order that passes wins, so the steps taken are those of a one-by-one
    search. The conjugate directions restart along the gradient every
    ``point.size`` steps.
    Returns the final point, the objective trace (length 1 + number of
    accepted steps, non-decreasing by the Armijo acceptance rule) and why
    the ascent stopped: ``"gradient"`` (the projected gradient is within
    ``options.mo_grad_tol``), ``"stall"`` (the last ten steps gained less
    than ``outer_tol / 10`` relative), ``"line search"`` (no trial step
    passed, also along the gradient) or ``"cap"`` (``max_steps`` steps).
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

    for _ in range(max_steps):
        normal_at = normal(point)
        normal_sq = float(np.vdot(normal_at, normal_at).real)
        grad = tangent_project(gradient(point, terms), normal_at, normal_sq)
        grad_sq = float(np.vdot(grad, grad).real)
        grad_norm = np.sqrt(grad_sq)
        if grad_norm <= grad_tol:
            return point, np.asarray(trace), "gradient"

        if direction is None or since_restart >= restart_period:
            fr_coeff = 0.0
            direction = grad
            since_restart = 0
        else:
            fr_coeff = grad_sq / prev_grad_sq
            direction = grad + fr_coeff * tangent_project(direction, normal_at, normal_sq)
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
            return point, np.asarray(trace), "line search"

        point, prev_step, obj, terms = found
        trace.append(obj)
        prev_grad_sq = grad_sq
        since_restart += 1
        # Stall stop: relative objective change over a short window of
        # accepted steps, so a single cautious step cannot end the run.
        if len(trace) > stall_window:
            gained = obj - trace[-1 - stall_window]
            if gained < options.outer_tol / 10.0 * max(abs(obj), 1e-12):
                return point, np.asarray(trace), "stall"

    return point, np.asarray(trace), "cap"


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
    """Fletcher-Reeves conjugate-gradient ascent on the norm sphere, for at most ``max_mo_iters`` steps.

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
        lambda F: F,
        lambda F, steps: retract(F, steps, c1),
        options,
        options.max_mo_iters,
    )[:2]


def budget_normal(X: np.ndarray, F_A: np.ndarray | None, config: SystemConfig) -> np.ndarray:
    """Normal at X of the power budget's level set through ``F_A @ X``, up to a positive scale.

    The budget P(F) = a ||F||^2 + b sum sigma^4 + c sum sigma^6 has the
    Wirtinger gradient D F with D = diag(a + 2b sigma^2 + 3c sigma^4), so the
    rows of X are scaled by D / a. ``F_A = None`` means the precoder is X
    itself. Otherwise the normal is pulled back to F_A^H D F_A X; for a
    partially connected F_A that matrix is diagonal, with each chain's sum
    of D over its subarray, so each row of X is scaled by its subarray's
    mean. With b = c = 0 every scale is exactly 1 and X comes back bit for bit.
    """
    a, b, c = budget_coefficients(config.beta1, config.beta3)
    sig2 = _row_powers(X if F_A is None else F_A @ X)
    scale = 1.0 + (2.0 * b / a) * sig2 + (3.0 * c / a) * sig2**2
    if F_A is not None:
        scale = scale.reshape(X.shape[0], -1).mean(axis=1)
    return scale[:, None] * X


def _budget_ascent(
    F_A: np.ndarray | None,
    X: np.ndarray,
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Ascent of the weighted rate objective of ``F_A @ X`` over X on the exact power budget.

    ``F_A = None`` means the precoder is X itself. The retraction rescales
    each trial onto the output-power budget of ``config`` (the whole stack
    of a search in one ``power_match_scale`` call), the gradient is the
    pulled-back ``F_A^H grad``, and the ascent projects onto the tangent
    space of the budget's level set (``budget_normal``). Returns the final
    X, the objective trace and the stop reason (see ``_ascend``); the first
    entry of the trace is the objective of power-matched X.
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

    start = fit(X, np.zeros((1, *X.shape)))[0]
    return _ascend(start, objective, gradient, lambda X: budget_normal(X, F_A, config), fit, options, max_steps)


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


def first_mo_trace(
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions | None = None,
) -> np.ndarray:
    """Objective trace of a first conjugate-gradient run of the paper's alternation from the matched filter.

    Starts at power-matched matched-filter columns with the moments at
    their exact values, runs ``manifold_cg`` on the sphere they imply (not
    the exact-budget ascent of ``optimize_full_digital``) and records the
    penalized objective per accepted inner step. At this starting point the
    penalty terms are zero, so the first entry equals the weighted rate
    objective of the initializer.
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

    One ``_budget_ascent`` of the weighted objective on the budget
    {F : P(F) = p_tot}, from ``f_init`` or, when it is None, from the
    matched-filter columns, for at most ``max_design_steps`` steps. It is
    one path for every amplifier: the ascent projects onto the tangent space
    of the budget's level set, so with a cubic term no moment alternation is
    needed. The diagnostics hold the ascent's objective trace and stop
    reason; ``converged`` is true when it stopped on the gradient tolerance
    or the stall test. The returned moments are the exact ones of the
    returned precoder.
    """
    options = options or config.solver
    start = _mrt_direction(channels) if f_init is None else np.asarray(f_init, dtype=complex)
    F, trace, stop = _budget_ascent(None, start, channels, config, options, options.max_design_steps)
    m4, m6 = moment_targets(F)
    residual = abs(radiated_power(F, config.beta1, config.beta3)[0] - config.p_tot) / config.p_tot
    return PrecoderState(full_digital=F, moment4=m4, moment6=m6), SolveDiagnostics(trace, stop, residual)
