"""Penalized objective and its exact conjugate gradient w.r.t. the precoder.

The objective is the weighted sum of user rates and sensing mutual
information, plus two negative-weighted quadratic penalties tying the
auxiliary moment matrices to their exact values:

    m4 target = |C_x|^2 (entrywise squared modulus), m6 target = m4 .* C_x.

The dense C_x = F F^H is never formed. Distortion quadratic forms go
through the face-splitting factor T of F (C_x .* |C_x|^2 = T T^H). For the
gradient the penalties are expanded once per fixed pair of moments
(``moment_penalty``), so a gradient costs O(n_tx K^4) plus two thin products
against the fixed n_tx x n_tx matrices of that expansion. The penalty value
is summed from its residuals, a few rows of C_x at a time: the expansion
would cancel terms of size |penalty| ||m||^2 down to rounding error at the
targets.

``euclidean_gradient`` returns d(objective)/dF* in the Wirtinger sense, so
for a real objective the differential is 2*Re<dF, grad>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .metrics import _probe_rows, _probe_terms, link_terms, weighted_objective_from_terms

_LOG2E = 1.0 / np.log(2.0)


def moment_targets(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact auxiliary moments (m4, m6) implied by the precoder."""
    cov = F @ F.conj().T
    m4 = np.abs(cov) ** 2
    return m4, m4 * cov


# Entries of C = F F^H formed at a time when summing the penalty residuals:
# 4096 complex entries (64 KiB) keep every temporary of one objective
# evaluation well below one dense n_tx x n_tx matrix at 256 antennas.
_BLOCK_ENTRIES = 4096


@dataclass(frozen=True)
class MomentPenalty:
    """penalty1*||m4 - |C|^2||_F^2 + penalty2*||m6 - m4 .* C||_F^2 at fixed moments.

    The value is summed from the residuals, a block of rows of C = F F^H at a
    time, so it vanishes at the targets up to rounding of the residuals
    themselves. For the gradient, with <X, Y> = sum_ij X_ij Y_ij, the two
    terms expand to

        const + <A, |C|^2> + Re<B, C> + penalty1 * sum_ij |C_ij|^4,
        A = -2 penalty1 Re(m4) + penalty2 |m4|^2,  B = -2 penalty2 conj(m6) .* m4.

    C is Hermitian, so only A + A^T (real) and B + B^H enter; those are
    stored. ``MomentPenalty()`` is the zero penalty.
    """

    penalty1: float = 0.0
    penalty2: float = 0.0
    m4: np.ndarray | None = None
    m6: np.ndarray | None = None
    sym_a: np.ndarray | None = None
    sym_b: np.ndarray | None = None


NO_PENALTY = MomentPenalty()


def moment_penalty(m4: np.ndarray, m6: np.ndarray, penalty1: float, penalty2: float) -> MomentPenalty:
    """The two moment penalties around fixed (m4, m6), with their gradient expansion."""
    if penalty1 == 0.0 and penalty2 == 0.0:
        return NO_PENALTY
    m4_re = np.real(m4)
    A = -2.0 * penalty1 * m4_re + penalty2 * (m4_re**2 + np.imag(m4) ** 2)
    B = (-2.0 * penalty2) * (m6.conj() * m4)
    return MomentPenalty(penalty1, penalty2, m4, m6, A + A.T, B + B.conj().T)


def _penalty_value(penalty: MomentPenalty, F: np.ndarray) -> float:
    n_tx = F.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n_tx)
    F_h = F.conj().T
    c1 = c2 = 0.0
    for start in range(0, n_tx, rows):
        block = slice(start, start + rows)
        cov = F[block] @ F_h
        cov_sq = cov.real**2
        cov_sq += cov.imag**2
        r4 = penalty.m4[block] - cov_sq
        cov *= penalty.m4[block]
        r6 = np.subtract(penalty.m6[block], cov, out=cov)
        c1 += np.vdot(r4, r4).real
        c2 += np.vdot(r6, r6).real
    return penalty.penalty1 * float(c1) + penalty.penalty2 * float(c2)


def penalized_objective(
    F: np.ndarray,
    penalty: MomentPenalty,
    channels: ChannelRealization,
    config: SystemConfig,
) -> float:
    terms = link_terms(F, channels, config.beta1, config.beta3, config.target_gain)
    _, _, objective = weighted_objective_from_terms(terms, config)
    if penalty.m4 is None:
        return objective
    return objective + _penalty_value(penalty, F)


def euclidean_gradient(
    F: np.ndarray,
    penalty: MomentPenalty,
    channels: ChannelRealization,
    config: SystemConfig,
) -> np.ndarray:
    """Conjugate Wirtinger gradient of the penalized objective at F."""
    n_tx, k = F.shape
    if channels.user_channels.shape != (config.n_users, config.n_tx) or k != config.n_users:
        raise ValueError("precoder/channel dimensions do not match the configuration")
    beta3 = config.beta3
    # Probe rows r^H: the k users, then the sensing link (steering vector
    # scaled by the target gain's magnitude).
    probes = _probe_rows(channels, config.target_gain)
    gain_diag, W, T, rx, U = _probe_terms(F, probes, config.beta1, beta3)
    d3 = 2.0 * abs(beta3) ** 2

    # Probe r contributes c_r * log2(total_r / rest_r): total_r adds the useful
    # power to rest_r, which holds the interference (users only), the
    # distortion and the noise.
    coeff = _LOG2E * np.append(np.full(k, config.weight_comm), config.weight_sense)
    in_rest = np.ones((k + 1, k)) - np.eye(k + 1, k)
    in_rest[k] = 0.0
    powers = np.abs(rx) ** 2
    dist = d3 * np.sum(np.abs(U) ** 2, axis=1)
    rest = np.sum(powers * in_rest, axis=1) + dist + np.append(config.noise_user_array, config.noise_sense)
    total = rest + np.sum(powers * (1.0 - in_rest), axis=1)
    inv_total, inv_rest = coeff / total, coeff / rest
    power_w = inv_total[:, None] - in_rest * inv_rest[:, None]  # d objective / d |r^H B f_i|^2
    dist_w = d3 * (inv_total - inv_rest)  # d objective / d ||T^H r||^2

    # sum_ri power_w[r, i] d|r^H B f_i|^2/dF*, through both f_i and the gain B(F).
    M = probes.T @ (power_w * rx.conj())
    grad = np.conj(gain_diag[:, None] * M)
    grad += (4.0 * np.real(beta3 * np.einsum("ia,ia->i", F, M)))[:, None] * F
    # sum_r dist_w[r] d||T^H r||^2/dF*, from G* = conj(sum_r dist_w[r] r r^H T)
    # and T_(abc) = F_a F_b conj(F_c).
    G_conj = probes.T @ (dist_w[:, None] * U.conj())
    FF = (F[:, :, None] * F[:, None, :]).reshape(n_tx, k * k)
    grad += np.einsum("pkc,pk->pc", G_conj.reshape(n_tx, k * k, k), FF)
    grad += 2.0 * np.conj(np.einsum("pak,pk->pa", G_conj.reshape(n_tx, k, k * k), W))

    if penalty.m4 is not None:
        # A real matrix times the interleaved real view of W: no complex copy of A.
        AW = (penalty.sym_a @ W.view(np.float64)).view(np.complex128)
        grad += np.einsum("pab,pb->pa", AW.reshape(n_tx, k, k), F)  # ((A + A^T) .* C) F
        grad += 0.5 * np.conj(penalty.sym_b @ F.conj())  # (B^T F + conj(B conj(F))) / 2
        grad += (4.0 * penalty.penalty1) * (T @ (F.conj().T @ T).conj().T)  # 4 penalty1 T T^H F
    return grad
