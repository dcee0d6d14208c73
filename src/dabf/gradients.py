"""Penalized objective and its exact conjugate gradient w.r.t. the precoder.

The objective is the weighted sum of user rates and sensing mutual
information, plus two negative-weighted quadratic penalties tying the
auxiliary moments to their exact values. The power budget reads the moments
only through their traces, so they are kept as diagonals: real vectors over
the antennas with targets

    m4 target = sigma^4, m6 target = m4 .* sigma^2 (= sigma^6 at m4's target),

where sigma^2 are the row powers of F (the diagonal of C_x = F F^H). The
penalties and their gradient are then O(n_tx K) row operations. The rate
terms do not form C_x either: distortion quadratic forms go through the
face-splitting factor T of F (C_x .* |C_x|^2 = T T^H).

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


def _row_powers(F: np.ndarray) -> np.ndarray:
    """Per-antenna input powers sigma^2, the diagonal of F F^H."""
    return np.einsum("ia,ia->i", F, F.conj()).real


def moment_targets(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact diagonal moments (sigma^4, sigma^6) implied by the precoder."""
    sig2 = _row_powers(F)
    m4 = sig2**2
    return m4, m4 * sig2


@dataclass(frozen=True)
class MomentPenalty:
    """penalty1*||m4 - sigma^4||^2 + penalty2*||m6 - m4 .* sigma^2||^2 at fixed diagonal moments.

    ``m4`` and ``m6`` are real length-n_tx vectors; ``MomentPenalty()`` is
    the zero penalty.
    """

    penalty1: float = 0.0
    penalty2: float = 0.0
    m4: np.ndarray | None = None
    m6: np.ndarray | None = None

    def residuals(self, sig2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m4 - sigma^4, m6 - m4 .* sigma^2) at row powers ``sig2``."""
        return self.m4 - sig2**2, self.m6 - self.m4 * sig2


NO_PENALTY = MomentPenalty()


def moment_penalty(m4: np.ndarray, m6: np.ndarray, penalty1: float, penalty2: float) -> MomentPenalty:
    """The two moment penalties around fixed diagonal moments (m4, m6)."""
    if penalty1 == 0.0 and penalty2 == 0.0:
        return NO_PENALTY
    return MomentPenalty(penalty1, penalty2, m4, m6)


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
    r4, r6 = penalty.residuals(_row_powers(F))
    return objective + penalty.penalty1 * float(r4 @ r4) + penalty.penalty2 * float(r6 @ r6)


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
    gain_diag, W, _, rx, U = _probe_terms(F, probes, config.beta1, beta3)
    d3 = 2.0 * abs(beta3) ** 2

    # Probe r contributes c_r * log2(total_r / rest_r): total_r adds the useful
    # power to rest_r, which holds the interference (users only), the
    # distortion and the noise.
    coeff = _LOG2E * np.append(np.full(k, config.weight_comm), config.weight_sense)
    in_rest = np.ones((k + 1, k))
    np.fill_diagonal(in_rest, 0.0)
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
        # Both penalties depend on F only through sigma^2, and d sigma_i^2 / dF*_ia = F_ia.
        sig2 = _row_powers(F)
        r4, r6 = penalty.residuals(sig2)
        grad -= (4.0 * penalty.penalty1 * r4 * sig2 + 2.0 * penalty.penalty2 * r6 * penalty.m4)[:, None] * F
    return grad
