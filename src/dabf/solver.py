"""Alternating optimizer for the distortion-aware full-digital precoder.

One outer round alternates three exact subproblem solves:

1. Riemannian conjugate-gradient ascent of the penalized objective over the
   fixed-Frobenius-norm sphere implied by the current moment matrices.
2. Closed-form constrained update of the quartic moment matrix (trace pinned
   by the power budget).
3. Hyperplane projection update of the sextic moment matrix.

Each step never decreases the penalized objective, and the triple
(precoder, m4, m6) keeps the expanded power-budget equality exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .config import SolverOptions, SystemConfig
from .distortion import radiated_power, scale_to_power
from .gradients import euclidean_gradient, moment_penalty, moment_targets, penalized_objective
from .metrics import weighted_objective


class DegeneratePA(RuntimeError):
    """A moment update is undefined because the PA model degenerates."""


class InfeasibleMomentBudget(RuntimeError):
    """The moment matrices leave no power budget for the linear part."""


@dataclass
class MoIterate:
    """Running state of the manifold conjugate-gradient loop."""

    point: np.ndarray
    direction: np.ndarray | None = None
    fr_coeff: float = 0.0
    step: float = 0.0
    objective_trace: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class PrecoderState:
    """Full-digital solution with auxiliary moments and optional hybrid factors."""

    full_digital: np.ndarray
    moment4: np.ndarray
    moment6: np.ndarray
    analog: np.ndarray | None = None
    digital: np.ndarray | None = None


@dataclass(frozen=True)
class OuterRecord:
    iteration: int
    penalized_objective: float
    isac_objective: float
    grad_norm: float
    power_residual: float
    moment_residual_m4: float
    moment_residual_m6: float


@dataclass
class SolveDiagnostics:
    records: list[OuterRecord] = field(default_factory=list)
    inner_traces: list[np.ndarray] = field(default_factory=list)
    rescues: int = 0
    growth_rounds: int = 0
    penalty1_final: float = 0.0
    penalty2_final: float = 0.0
    converged: bool = False
    final_power_residual: float = 0.0


def tangent_project(M: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Project M onto the tangent space of the norm sphere at F."""
    norm_sq = float(np.real(np.vdot(F, F)))
    if norm_sq == 0.0:
        raise ValueError("F = 0 is not a valid point on the sphere")
    radial = float(np.real(np.vdot(F, M))) / norm_sq
    return M - radial * F


def riemannian_gradient(eucl_grad: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Riemannian gradient on the sphere: tangent projection of the Euclidean one."""
    return tangent_project(eucl_grad, F)


def retract(F: np.ndarray, tangent_step: np.ndarray, c1: float) -> np.ndarray:
    """Map F + step back onto the sphere of squared Frobenius norm c1."""
    if c1 <= 0.0:
        raise InfeasibleMomentBudget(f"sphere radius squared must be positive, got {c1}")
    moved = F + tangent_step
    norm = float(np.linalg.norm(moved))
    if norm == 0.0:
        raise ValueError("cannot retract the zero matrix")
    return (np.sqrt(c1) / norm) * moved


def sphere_radius_sq(m4: np.ndarray, m6: np.ndarray, config: SystemConfig) -> float:
    """Squared precoder norm left by the power budget at the current moments."""
    re_b = (config.beta1.conjugate() * config.beta3).real
    return (
        config.p_tot
        - 4.0 * re_b * float(np.real(np.trace(m4)))
        - 6.0 * abs(config.beta3) ** 2 * float(np.real(np.trace(m6)))
    ) / abs(config.beta1) ** 2


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

    Returns the final point and the per-iteration objective trace (length 1 +
    number of accepted steps, non-decreasing by the Armijo acceptance rule).
    """
    c1 = sphere_radius_sq(m4, m6, config)
    penalty = moment_penalty(m4, m6, penalty1, penalty2)
    it = MoIterate(point=retract(F_init, np.zeros_like(F_init), c1))
    n_tx, k = it.point.shape
    grad_tol = options.mo_grad_tol(n_tx, k)
    restart_period = n_tx * k

    obj = penalized_objective(it.point, penalty, channels, config)
    it.objective_trace.append(obj)
    prev_grad_sq = 0.0
    since_restart = 0
    stall_window = 10

    for _ in range(options.max_mo_iters):
        egrad = euclidean_gradient(it.point, penalty, channels, config)
        grad = tangent_project(egrad, it.point)
        grad_sq = float(np.real(np.vdot(grad, grad)))
        grad_norm = np.sqrt(grad_sq)
        if grad_norm <= grad_tol:
            break

        if it.direction is None or since_restart >= restart_period:
            it.fr_coeff = 0.0
            it.direction = grad
            since_restart = 0
        else:
            it.fr_coeff = grad_sq / prev_grad_sq
            it.direction = grad + it.fr_coeff * tangent_project(it.direction, it.point)
            if float(np.real(np.vdot(it.direction, grad))) <= 0.0:
                it.fr_coeff = 0.0
                it.direction = grad
                since_restart = 0

        # Warm-started backtracking: reuse the previous accepted step (with
        # headroom) so stiff stretches do not pay a full backtrack cascade
        # every iteration; the cap is the configured 1/||grad|| initial step.
        cap = options.armijo_init_step / grad_norm
        step = min(4.0 * it.step, cap) if it.step > 0.0 else cap
        accepted = False
        while True:
            for _ in range(options.armijo_max_backtracks):
                candidate = retract(it.point, step * it.direction, c1)
                cand_obj = penalized_objective(candidate, penalty, channels, config)
                if cand_obj >= obj + options.armijo_slope * step * grad_sq:
                    accepted = True
                    break
                step *= options.armijo_contraction
            if accepted or it.fr_coeff == 0.0:
                break
            # The momentum direction can be too misaligned with the gradient
            # for the acceptance rule; retry once along the gradient itself.
            it.fr_coeff = 0.0
            it.direction = grad
            since_restart = 0
            step = cap
        if not accepted:
            break  # stationary within line-search resolution

        it.point = candidate
        it.step = step
        it.objective_trace.append(cand_obj)
        obj = cand_obj
        prev_grad_sq = grad_sq
        since_restart += 1
        # Stall stop: relative objective change over a short window of
        # accepted steps, so a single cautious step cannot end the run.
        if len(it.objective_trace) > stall_window:
            gained = obj - it.objective_trace[-1 - stall_window]
            if gained < options.outer_tol / 10.0 * max(abs(obj), 1e-12):
                break

    return it.point, np.asarray(it.objective_trace)


def update_quartic_moment(
    F: np.ndarray,
    m6: np.ndarray,
    config: SystemConfig,
    penalty1: float,
    penalty2: float,
) -> tuple[np.ndarray, float]:
    """Trace-constrained maximizer of the penalty terms over the quartic moment.

    The update is entrywise (the quadratic decouples); the real dual shifts
    the diagonal so the trace matches the power-budget residual exactly.
    """
    re_b = (config.beta1.conjugate() * config.beta3).real
    if re_b == 0.0:
        raise DegeneratePA("quartic-moment trace target undefined for Re(beta1* beta3) = 0")
    norm_sq = float(np.real(np.vdot(F, F)))
    trace_target = (
        config.p_tot
        - abs(config.beta1) ** 2 * norm_sq
        - 6.0 * abs(config.beta3) ** 2 * float(np.real(np.trace(m6)))
    ) / (4.0 * re_b)

    cov = F @ F.conj().T
    sq_cov = np.abs(cov) ** 2
    xi = penalty1 + penalty2 * sq_cov  # strictly negative entrywise
    base = (penalty1 * sq_cov + penalty2 * (m6 * cov.conj())) / xi
    xi_diag = np.real(np.diag(xi))
    dual = (trace_target - float(np.real(np.trace(base)))) / (0.5 * float(np.sum(1.0 / xi_diag)))
    m4 = base.astype(complex)
    m4[np.diag_indices_from(m4)] += (dual / 2.0) / xi_diag
    m4 = 0.5 * (m4 + m4.conj().T)
    return m4, dual


def update_sextic_moment(F: np.ndarray, m4: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Projection of m4 .* C_x onto the trace hyperplane set by the power budget."""
    if config.beta3 == 0:
        raise DegeneratePA("sextic-moment trace target undefined for beta3 = 0")
    re_b = (config.beta1.conjugate() * config.beta3).real
    norm_sq = float(np.real(np.vdot(F, F)))
    trace_target = (
        config.p_tot
        - abs(config.beta1) ** 2 * norm_sq
        - 4.0 * re_b * float(np.real(np.trace(m4)))
    ) / (6.0 * abs(config.beta3) ** 2)
    target = m4 * (F @ F.conj().T)
    n_tx = F.shape[0]
    m6 = target - ((np.trace(target) - trace_target) / n_tx) * np.eye(n_tx)
    return 0.5 * (m6 + m6.conj().T)


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
    channels: ChannelRealization,
    config: SystemConfig,
    f_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Power-matched start, exact moments, and the working penalty weights.

    Configured penalty strengths are treated as dimensionless and divided by
    the squared norms of the initial moment targets; raw weights would make
    the penalty curvature scale with p_tot^4 and freeze the precoder update.
    """
    F = _mrt_direction(channels) if f_init is None else np.array(f_init, dtype=complex)
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
    """Objective trace of the first conjugate-gradient run of the alternation.

    Starts exactly as ``optimize_full_digital`` does (power-matched
    matched-filter columns, moments at their exact values) and records the
    penalized objective per accepted inner step. At this starting point the
    penalty terms are zero, so the first entry equals the weighted rate
    objective of the initializer.
    """
    options = options or config.solver
    F, m4, m6, lam1, lam2 = _initial_point(channels, config)
    _, trace = manifold_cg(F, m4, m6, channels, config, options, lam1, lam2)
    return trace


def optimize_full_digital(
    channels: ChannelRealization,
    config: SystemConfig,
    options: SolverOptions | None = None,
    f_init: np.ndarray | None = None,
) -> tuple[PrecoderState, SolveDiagnostics]:
    """Solve the penalized design problem by alternating exact subproblem updates.

    Starts from power-matched matched-filter columns (or ``f_init`` rescaled
    to the power budget) with the moment matrices at their exact values. If
    the moment residuals exceed tolerance at convergence, the penalty
    magnitudes grow and the alternation continues.
    """
    options = options or config.solver
    beta1, beta3 = config.beta1, config.beta3
    re_b = (beta1.conjugate() * beta3).real
    hold_m4 = re_b == 0.0
    hold_m6 = beta3 == 0
    F, m4, m6, lam1, lam2 = _initial_point(channels, config, f_init)

    diag = SolveDiagnostics()
    prev_obj = penalized_objective(F, moment_penalty(m4, m6, lam1, lam2), channels, config)
    outer_index = 0

    while True:
        converged = False
        # Growth stages only re-tighten the moments around an already good
        # precoder, so they get a reduced round budget.
        stage_budget = (
            options.max_outer_iters
            if diag.growth_rounds == 0
            else max(10, options.max_outer_iters // 5)
        )
        for _ in range(stage_budget):
            outer_index += 1
            try:
                F_new, trace = manifold_cg(F, m4, m6, channels, config, options, lam1, lam2)
            except InfeasibleMomentBudget:
                diag.rescues += 1
                if diag.rescues > options.max_rescues:
                    raise InfeasibleMomentBudget(
                        "moment matrices repeatedly exhausted the power budget "
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
            F = scale_to_power(F, config.p_tot, beta1, beta3)
            if hold_m4:
                m4 = moment_targets(F)[0]
            else:
                m4, _ = update_quartic_moment(F, m6, config, lam1, lam2)
            if hold_m6:
                m6 = m4 * (F @ F.conj().T)
            else:
                m6 = update_sextic_moment(F, m4, config)

            penalty = moment_penalty(m4, m6, lam1, lam2)
            obj = penalized_objective(F, penalty, channels, config)
            egrad = euclidean_gradient(F, penalty, channels, config)
            grad_norm = float(np.linalg.norm(tangent_project(egrad, F)))
            power = radiated_power(F, beta1, beta3)[0]
            r4, r6 = _moment_residuals(F, m4, m6)
            diag.records.append(
                OuterRecord(
                    iteration=outer_index,
                    penalized_objective=obj,
                    isac_objective=weighted_objective(F, channels, config),
                    grad_norm=grad_norm,
                    power_residual=abs(power - config.p_tot) / config.p_tot,
                    moment_residual_m4=r4,
                    moment_residual_m6=r6,
                )
            )
            rel = abs(obj - prev_obj) / max(abs(prev_obj), 1e-12)
            prev_obj = obj
            if rel < options.outer_tol:
                converged = True
                break

        r4, r6 = _moment_residuals(F, m4, m6)
        within_tol = r4 <= options.moment_residual_tol and r6 <= options.moment_residual_tol
        if within_tol or diag.growth_rounds >= options.max_growth_rounds or (lam1 == 0.0 and lam2 == 0.0):
            diag.converged = converged
            break
        lam1 *= options.penalty_growth
        lam2 *= options.penalty_growth
        diag.growth_rounds += 1
        prev_obj = penalized_objective(F, moment_penalty(m4, m6, lam1, lam2), channels, config)

    diag.penalty1_final = lam1
    diag.penalty2_final = lam2

    # Feasibility restoration: the penalty equilibrium leaves a small bias in
    # the true output power, so return a precoder rescaled onto the exact
    # budget with the moment matrices at their exact values.
    F = scale_to_power(F, config.p_tot, beta1, beta3, rel_tol=1e-14)
    m4, m6 = moment_targets(F)
    diag.final_power_residual = (
        abs(radiated_power(F, beta1, beta3)[0] - config.p_tot) / config.p_tot
    )
    return PrecoderState(full_digital=F, moment4=m4, moment6=m6), diag
