"""Independent reference implementations used to check the package's math.

Everything here is deliberately written along a different path than the
library code: Monte-Carlo estimators for the amplifier statistics, central
finite differences for gradients, brute-force quadratic assembly plus a
KKT linear solve for the constrained moment updates, the closed-form moment
updates over full n_tx x n_tx Hermitian matrices (whose diagonals the
library's vector updates must equal), dense n_tx x n_tx forms of the
link terms, the distortion covariance, the moment penalties and their
gradient, a bisection for the power-matching scale, the
one-trial-at-a-time Armijo search of the conjugate-gradient ascent, which
the library's stacked search must reproduce exactly, and the block-by-block
loops of the hybrid factorization, which its vectorized updates must
reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np

from dabf.solver import DegeneratePA, tangent_project


def mc_amplifier_stats(
    F: np.ndarray,
    beta1: complex,
    beta3: complex,
    n_draws: int,
    seed: int,
    chunk: int = 200_000,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Monte-Carlo estimates of (Bussgang diag, distortion covariance, power).

    Draws standard circularly-symmetric Gaussian symbols s, pushes x = F s
    through phi(x) = beta1 x + beta3 x |x|^2 and accumulates the moment
    estimators. The distortion sample is e = phi(x) - B x with the analytic
    diagonal gain, matching the residual-covariance definition.
    """
    n_tx, k = F.shape
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    b_diag = beta1 + 2.0 * beta3 * sig2

    rng = np.random.default_rng(seed)
    acc_xy = np.zeros(n_tx, dtype=complex)
    acc_xx = np.zeros(n_tx)
    acc_ee = np.zeros((n_tx, n_tx), dtype=complex)
    acc_pow = 0.0
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        s = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)
        x = s @ F.T
        phi = beta1 * x + beta3 * x * np.abs(x) ** 2
        acc_xy += np.sum(phi * x.conj(), axis=0)
        acc_xx += np.sum(np.abs(x) ** 2, axis=0)
        acc_pow += float(np.sum(np.abs(phi) ** 2))
        e = phi - x * b_diag[None, :]
        acc_ee += e.T @ e.conj()
        done += m
    return acc_xy / acc_xx, acc_ee / n_draws, acc_pow / n_draws


def fd_wirtinger_grad(
    fun: Callable[[np.ndarray], float],
    F: np.ndarray,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference conjugate Wirtinger gradient of a real function.

    For real f, df = 2 Re<dF, g> with g = df/dF*, so
    g = (df/dRe + j df/dIm) / 2 entry by entry.
    """
    grad = np.zeros_like(F, dtype=complex)
    for idx in np.ndindex(*F.shape):
        h = step * max(1.0, abs(F[idx]))
        parts = []
        for direction in (1.0, 1.0j):
            probe = np.zeros_like(F)
            probe[idx] = h * direction
            parts.append((fun(F + probe) - fun(F - probe)) / (2.0 * h))
        grad[idx] = (parts[0] + 1.0j * parts[1]) / 2.0
    return grad


def _assemble_quadratic(
    fun: Callable[[np.ndarray], float], dim: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact (constant, gradient, Hessian) of a real quadratic on R^dim."""
    f0 = fun(np.zeros(dim))
    g = np.zeros(dim)
    hess = np.zeros((dim, dim))
    basis = np.eye(dim)
    f_plus = np.array([fun(basis[i]) for i in range(dim)])
    f_minus = np.array([fun(-basis[i]) for i in range(dim)])
    g = (f_plus - f_minus) / 2.0
    for i in range(dim):
        hess[i, i] = f_plus[i] + f_minus[i] - 2.0 * f0
        for j in range(i + 1, dim):
            fij = fun(basis[i] + basis[j])
            hess[i, j] = hess[j, i] = fij - f_plus[i] - f_plus[j] + f0
    return f0, g, hess


def solve_trace_constrained_quadratic(
    fun: Callable[[np.ndarray], float],
    n: int,
    trace_value: float,
) -> np.ndarray:
    """Maximize a concave quadratic over complex n x n matrices with Tr = c.

    ``fun`` maps a real parameter vector (real parts then imaginary parts,
    row-major) to the objective. The stationarity system is assembled by
    brute force and solved as one KKT linear system. Returns the complex
    matrix maximizer.
    """
    dim = 2 * n * n

    f0, g, hess = _assemble_quadratic(fun, dim)
    # Constraint rows: real trace = trace_value, imaginary trace = 0.
    a_re = np.zeros(dim)
    a_im = np.zeros(dim)
    for i in range(n):
        a_re[i * n + i] = 1.0
        a_im[n * n + i * n + i] = 1.0
    kkt = np.zeros((dim + 2, dim + 2))
    kkt[:dim, :dim] = hess
    kkt[:dim, dim] = a_re
    kkt[:dim, dim + 1] = a_im
    kkt[dim, :dim] = a_re
    kkt[dim + 1, :dim] = a_im
    rhs = np.concatenate([-g, [trace_value, 0.0]])
    sol = np.linalg.solve(kkt, rhs)
    x = sol[:dim]
    return x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)


def vec_to_matrix(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of the real parametrization used by the QP oracle."""
    return x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)


# --- Closed-form moment updates over full n_tx x n_tx matrices. -------------
# The library keeps only the diagonal moments, which is all the power budget
# reads. Each diagonal entry of these updates depends only on diagonal
# inputs, so the library's vector updates must equal their diagonals; these
# full-matrix forms are in turn checked against the KKT oracle above.


def moment_matrices(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact full moment matrices (|C_x|^2, |C_x|^2 .* C_x) with C_x = F F^H."""
    cov = F @ F.conj().T
    m4 = np.abs(cov) ** 2
    return m4, m4 * cov


def update_quartic_moment(F, m6, config, penalty1, penalty2) -> tuple[np.ndarray, float]:
    """Trace-constrained maximizer of the penalty terms over the quartic moment matrix."""
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


def update_sextic_moment(F, m4, config) -> np.ndarray:
    """Projection of the matrix m4 .* C_x onto the trace hyperplane set by the power budget."""
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


# --- Dense n_tx x n_tx forms of the link terms, penalties and gradient. -----
# The library evaluates these through thin face-splitting factors and the
# penalties through row powers; the forms below build C_x = F F^H and its
# Hadamard products explicitly. The diagonal moments m4, m6 (length n_tx)
# enter as diagonal matrices, and the penalties as the diagonal mismatches.

_LOG2E = 1.0 / np.log(2.0)


def distortion_covariance(F: np.ndarray, beta3: complex) -> np.ndarray:
    """Covariance of the uncorrelated distortion: 2|beta3|^2 * C_x .* |C_x|^2."""
    cov = F @ F.conj().T
    return 2.0 * abs(beta3) ** 2 * cov * np.abs(cov) ** 2


def power_match_scale(F: np.ndarray, p_tot: float, beta1: complex, beta3: complex) -> float:
    """Scale s with output power p_tot for s*F, by bisection to float resolution.

    The power of s*F is expanded from the explicit diagonal of C_x = F F^H;
    the bracket doubles until it holds the budget and is then halved until
    its midpoint no longer moves.
    """
    sig2 = np.real(np.diag(F @ F.conj().T))
    if not np.any(sig2 > 0.0):
        raise ValueError("cannot power-match an all-zero precoder")

    def power_at(scale: float) -> float:
        s2 = scale * scale * sig2
        return float(
            abs(beta1) ** 2 * np.sum(s2)
            + 4.0 * np.real(np.conj(beta1) * beta3) * np.sum(s2**2)
            + 6.0 * abs(beta3) ** 2 * np.sum(s2**3)
        )

    hi = 1.0
    while power_at(hi) < p_tot:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if power_at(mid) < p_tot:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class DistortionModel:
    """Second-order amplifier statistics for a fixed precoder."""

    bussgang_gain: np.ndarray  # diagonal (n_tx, n_tx)
    distortion_cov: np.ndarray  # Hermitian PSD (n_tx, n_tx)
    tx_cov: np.ndarray  # F F^H, Hermitian PSD, rank <= n_users

    @classmethod
    def from_precoder(cls, F: np.ndarray, beta1: complex, beta3: complex) -> "DistortionModel":
        cov = F @ F.conj().T
        gain = np.diag(beta1 + 2.0 * beta3 * np.real(np.diag(cov)))
        dist = 2.0 * abs(beta3) ** 2 * cov * np.abs(cov) ** 2
        return cls(bussgang_gain=gain, distortion_cov=dist, tx_cov=cov)

    @property
    def gain_diag(self) -> np.ndarray:
        return np.diag(self.bussgang_gain)


def user_sindr(h: np.ndarray, F: np.ndarray, k: int, distortion: DistortionModel, noise: float) -> float:
    """SINDR of the user with channel h served by column k of F."""
    rx = (h.conj() * distortion.gain_diag) @ F
    powers = np.abs(rx) ** 2
    interference = float(np.sum(powers) - powers[k])
    dist = float(np.real(h.conj() @ distortion.distortion_cov @ h))
    return float(powers[k] / (interference + dist + noise))


def sensing_sndr(
    steering: np.ndarray, target_gain: complex, F: np.ndarray, distortion: DistortionModel, noise: float
) -> float:
    """SNDR of the monostatic sensing link toward ``steering``."""
    rx = (steering.conj() * distortion.gain_diag) @ F
    signal = abs(target_gain) ** 2 * float(np.sum(np.abs(rx) ** 2))
    dist = abs(target_gain) ** 2 * float(np.real(steering.conj() @ distortion.distortion_cov @ steering))
    return signal / (dist + noise)


def link_terms(F, channels, beta1, beta3, target_gain):
    """(signal, interference, distortion, sense_signal, sense_distortion) with dense quadratic forms."""
    cov = F @ F.conj().T
    gain_diag = beta1 + 2.0 * beta3 * np.real(np.diag(cov))
    dist_core = cov * np.abs(cov) ** 2  # C_x .* |C_x|^2
    d3 = 2.0 * abs(beta3) ** 2

    H = channels.user_channels  # (K, n_tx)
    rx = (H.conj() * gain_diag[None, :]) @ F  # rx[k, i] = h_k^H B f_i
    powers = np.abs(rx) ** 2
    signal = np.diag(powers).copy()
    interference = powers.sum(axis=1) - signal
    distortion = d3 * np.real(np.einsum("ki,ij,kj->k", H.conj(), dist_core, H))

    a = channels.sense_steering
    arx = (a.conj() * gain_diag) @ F
    sense_signal = abs(target_gain) ** 2 * float(np.sum(np.abs(arx) ** 2))
    sense_distortion = d3 * abs(target_gain) ** 2 * float(np.real(a.conj() @ dist_core @ a))
    return signal, interference, distortion, sense_signal, sense_distortion


def weighted_objective(F, channels, config) -> float:
    """Weighted sum of user rates and sensing MI from the dense link terms."""
    signal, interference, distortion, sense_signal, sense_distortion = link_terms(
        F, channels, config.beta1, config.beta3, config.target_gain
    )
    gammas = signal / (interference + distortion + config.noise_user_array)
    gamma_s = sense_signal / (sense_distortion + config.noise_sense)
    return config.weight_comm * float(np.log2(1.0 + gammas).sum()) + config.weight_sense * float(
        np.log2(1.0 + gamma_s)
    )


def penalty_values(F: np.ndarray, m4: np.ndarray, m6: np.ndarray) -> tuple[float, float]:
    """Squared mismatches of the diagonal moments against the diagonal of the dense targets."""
    cov = F @ F.conj().T
    eye = np.eye(cov.shape[0])
    c1 = float(np.sum(np.abs(np.diag(m4) - eye * np.abs(cov) ** 2) ** 2))
    c2 = float(np.sum(np.abs(np.diag(m6) - np.diag(m4) * cov) ** 2))
    return c1, c2


def penalized_objective(F, m4, m6, channels, config, penalty1, penalty2) -> float:
    c1, c2 = penalty_values(F, m4, m6)
    return weighted_objective(F, channels, config) + penalty1 * c1 + penalty2 * c2


def _pair_grad(h, F, sig2, z_i, i, beta1, beta3) -> np.ndarray:
    """d|h^H B f_i|^2 / dF* including the F-dependence of the diagonal gain."""
    out = 2.0 * beta3 * z_i.conjugate() * (F[:, i] * h.conj())[:, None] * F
    out += z_i * 2.0 * beta3.conjugate() * (F[:, i].conj() * h)[:, None] * F
    out[:, i] += z_i * (beta1.conjugate() * h + 2.0 * beta3.conjugate() * (h * sig2))
    return out


def _distortion_grad(h: np.ndarray, cov: np.ndarray, F: np.ndarray, beta3: complex) -> np.ndarray:
    """d(2|beta3|^2 h^H (C_x .* |C_x|^2) h) / dF*."""
    outer = np.outer(h, h.conj())
    core = 2.0 * outer * cov * cov.conj() + outer.conj() * cov * cov
    return 2.0 * abs(beta3) ** 2 * (core @ F)


def _moment4_penalty_grad(cov: np.ndarray, m4: np.ndarray, F: np.ndarray) -> np.ndarray:
    """d||m4 - diag(|C_x|^2)||^2 / dF*: the full-matrix gradient with both matrices masked to the diagonal."""
    eye = np.eye(cov.shape[0])
    M4 = np.diag(m4)
    return 4.0 * (eye * cov * cov * cov.conj()) @ F - 2.0 * ((M4 + M4.T) * cov) @ F


def _moment6_penalty_grad(cov: np.ndarray, m4: np.ndarray, m6: np.ndarray, F: np.ndarray) -> np.ndarray:
    """d||m6 - m4 .* diag(C_x)||^2 / dF*, from the full-matrix gradient at diagonal moments."""
    M4, M6 = np.diag(m4), np.diag(m6)
    quad = (M4 * M4.conj() * cov + M4.T * M4.conj().T * cov) @ F
    cross = (M6 * M4.conj() + M6.conj().T * M4.T) @ F
    return quad - cross


def euclidean_gradient(F, m4, m6, channels, config, penalty1, penalty2) -> np.ndarray:
    """Conjugate Wirtinger gradient of ``penalized_objective``, one probe pair at a time."""
    k = F.shape[1]
    beta1, beta3 = config.beta1, config.beta3
    cov = F @ F.conj().T
    sig2 = np.real(np.diag(cov))
    gain_diag = beta1 + 2.0 * beta3 * sig2

    H = channels.user_channels
    rx = (H.conj() * gain_diag[None, :]) @ F
    powers = np.abs(rx) ** 2
    dist_core = cov * np.abs(cov) ** 2
    d3 = 2.0 * abs(beta3) ** 2
    user_dist = d3 * np.real(np.einsum("ki,ij,kj->k", H.conj(), dist_core, H))

    grad = np.zeros_like(F)
    noise = config.noise_user_array
    for u in range(k):
        h = H[u]
        s_grad = _pair_grad(h, F, sig2, rx[u, u], u, beta1, beta3)
        i_grad = np.zeros_like(F)
        for i in range(k):
            if i != u:
                i_grad += _pair_grad(h, F, sig2, rx[u, i], i, beta1, beta3)
        n_grad = i_grad + _distortion_grad(h, cov, F, beta3)
        s_val = powers[u, u]
        n_val = powers[u].sum() - s_val + user_dist[u] + noise[u]
        scale = config.weight_comm * _LOG2E / (1.0 + s_val / n_val)
        grad += scale * (n_val * s_grad - s_val * n_grad) / n_val**2

    a = channels.sense_steering
    gain_abs2 = abs(config.target_gain) ** 2
    arx = (a.conj() * gain_diag) @ F
    ss_grad = np.zeros_like(F)
    for i in range(k):
        ss_grad += _pair_grad(a, F, sig2, arx[i], i, beta1, beta3)
    ss_grad *= gain_abs2
    ns_grad = gain_abs2 * _distortion_grad(a, cov, F, beta3)
    ss_val = gain_abs2 * float(np.sum(np.abs(arx) ** 2))
    ns_val = d3 * gain_abs2 * float(np.real(a.conj() @ dist_core @ a)) + config.noise_sense
    scale = config.weight_sense * _LOG2E / (1.0 + ss_val / ns_val)
    grad += scale * (ns_val * ss_grad - ss_val * ns_grad) / ns_val**2

    grad += penalty1 * _moment4_penalty_grad(cov, m4, F)
    grad += penalty2 * _moment6_penalty_grad(cov, m4, m6, F)
    return grad


def ascend(
    point: np.ndarray,
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    retract: Callable[[np.ndarray, np.ndarray], np.ndarray],
    events: dict | None = None,
    normal: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    max_mo_steps: int = 200,
    outer_tol: float = 1e-5,
    grad_tol_scale: float = 1e-6,
    armijo_init_step: float = 1.0,
    armijo_contraction: float = 0.5,
    armijo_slope: float = 1e-4,
    armijo_max_backtracks: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Fletcher-Reeves/Armijo ascent that tries one trial step per objective call.

    The same rules as ``dabf.solver._ascend`` on single points:
    ``objective(X)`` is a float, ``gradient(X)`` the Euclidean gradient and
    ``retract(X, step)`` one retracted point. The gradient and the previous
    direction are projected onto the orthogonal complement of
    ``normal(X)``, which defaults to X itself (the tangent space of a norm
    sphere). ``events``, if given, counts ``"deep"`` searches (more than 4
    backtracks before acceptance), ``"retry"`` momentum searches that
    failed and were redone along the gradient, and ``"failed"`` searches
    that found no step, which end the ascent. The keyword constants are
    the paper's; each is the lower-case name of the ``dabf.solver``
    constant it mirrors.
    """
    events = {} if events is None else events
    normal = (lambda X: X) if normal is None else normal
    grad_tol = grad_tol_scale * math.sqrt(point.shape[0] * point.shape[1])
    restart_period = point.size
    obj = objective(point)
    trace = [obj]
    direction = None
    fr_coeff = 0.0
    prev_step = 0.0
    prev_grad_sq = 0.0
    since_restart = 0
    stall_window = 10

    for _ in range(max_mo_steps):
        grad = tangent_project(gradient(point), normal(point))
        grad_sq = float(np.real(np.vdot(grad, grad)))
        grad_norm = np.sqrt(grad_sq)
        if grad_norm <= grad_tol:
            break

        if direction is None or since_restart >= restart_period:
            fr_coeff = 0.0
            direction = grad
            since_restart = 0
        else:
            fr_coeff = grad_sq / prev_grad_sq
            direction = grad + fr_coeff * tangent_project(direction, normal(point))
            if float(np.real(np.vdot(direction, grad))) <= 0.0:
                fr_coeff = 0.0
                direction = grad
                since_restart = 0

        cap = armijo_init_step / grad_norm
        step = min(4.0 * prev_step, cap) if prev_step > 0.0 else cap
        accepted = False
        while True:
            for tried in range(armijo_max_backtracks):
                candidate = retract(point, step * direction)
                cand_obj = objective(candidate)
                if cand_obj >= obj + armijo_slope * step * grad_sq:
                    accepted = True
                    if tried > 4:
                        events["deep"] = events.get("deep", 0) + 1
                    break
                step *= armijo_contraction
            if accepted or fr_coeff == 0.0:
                break
            events["retry"] = events.get("retry", 0) + 1
            fr_coeff = 0.0
            direction = grad
            since_restart = 0
            step = cap
        if not accepted:
            events["failed"] = events.get("failed", 0) + 1
            break

        point = candidate
        prev_step = step
        trace.append(cand_obj)
        obj = cand_obj
        prev_grad_sq = grad_sq
        since_restart += 1
        if len(trace) > stall_window:
            gained = obj - trace[-1 - stall_window]
            if gained < outer_tol / 10.0 * max(abs(obj), 1e-12):
                break

    return point, np.asarray(trace)


def analog_from_phases(phases: np.ndarray, n_tx: int, n_rf: int) -> np.ndarray:
    """Block-diagonal analog matrix, one subarray block at a time."""
    size = n_tx // n_rf
    F_A = np.zeros((n_tx, n_rf), dtype=complex)
    for i in range(n_rf):
        rows = slice(i * size, (i + 1) * size)
        F_A[rows, i] = np.exp(1j * phases[rows])
    return F_A


def decompose(F, n_rf, max_iters=100, tol=1e-8, init_phases=None):
    """Alternating factorization F ~= F_A @ F_D with a loop over the subarray blocks."""
    n_tx, k = F.shape
    size = n_tx // n_rf
    blocks = [slice(i * size, (i + 1) * size) for i in range(n_rf)]
    if init_phases is not None:
        phases = np.array(init_phases, dtype=float)
    else:
        phases = np.zeros(n_tx)
        for rows in blocks:
            energies = np.sum(np.abs(F[rows, :]) ** 2, axis=0)
            lead = F[rows, int(np.argmax(energies))]
            phases[rows] = np.where(np.abs(lead) > 0.0, np.angle(lead), 0.0)
    F_A = analog_from_phases(phases, n_tx, n_rf)

    residuals = []
    prev = None
    F_D = np.zeros((n_rf, k), dtype=complex)
    for _ in range(max_iters):
        F_D = (n_rf / n_tx) * (F_A.conj().T @ F)
        residual = float(np.linalg.norm(F - F_A @ F_D))
        residuals.append(residual)
        if prev is not None and abs(prev - residual) <= tol * max(prev, 1e-300):
            break
        prev = residual
        correlation = F @ F_D.conj().T
        for i, rows in enumerate(blocks):
            z = correlation[rows, i]
            phases[rows] = np.where(np.abs(z) > 0.0, np.angle(z), phases[rows])
        F_A = analog_from_phases(phases, n_tx, n_rf)
    else:
        F_D = (n_rf / n_tx) * (F_A.conj().T @ F)
        residuals.append(float(np.linalg.norm(F - F_A @ F_D)))
    return F_A, F_D, np.asarray(residuals)
