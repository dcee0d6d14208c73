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

``penalized_objective`` also evaluates a (B, n_tx, K) stack of precoders in
one call, bit for bit equal to B single calls, and can hand back the probe
terms behind each value (``Terms``); ``euclidean_gradient`` takes those
terms in place of recomputing them. ``Link`` holds what both need that does
not depend on F, so an ascent builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .metrics import _probe_rows, _probe_terms, _received_powers, _split_powers, weighted_objective_from_terms

_LOG2E = 1.0 / np.log(2.0)


def _row_powers(F: np.ndarray) -> np.ndarray:
    """Per-antenna input powers sigma^2, the diagonal of F F^H (per slice of a stack)."""
    return np.einsum("...ia,...ia->...i", F, F.conj()).real


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


@dataclass(frozen=True)
class Link:
    """What the objective and its gradient need that does not depend on F.

    Probe rows r^H (the k users, then the sensing link: steering vector
    scaled by the target gain's magnitude), the noise per probe, the mask
    ``in_rest`` (1 where stream i is interference at probe r), its
    complement ``useful`` and the objective weights over ln 2 per probe.
    """

    config: SystemConfig
    probes: np.ndarray
    noise: np.ndarray
    in_rest: np.ndarray
    useful: np.ndarray
    coeff: np.ndarray

    @classmethod
    def of(cls, channels: ChannelRealization, config: SystemConfig) -> Link:
        k = config.n_users
        in_rest = np.ones((k + 1, k))
        np.fill_diagonal(in_rest, 0.0)
        in_rest[k] = 0.0
        return cls(
            config,
            _probe_rows(channels, config.target_gain),
            np.append(config.noise_user_array, config.noise_sense),
            in_rest,
            1.0 - in_rest,
            _LOG2E * np.append(np.full(k, config.weight_comm), config.weight_sense),
        )


@dataclass(frozen=True)
class Terms:
    """Probe terms of one precoder, or of each slice of a stack of them.

    ``gain`` is the Bussgang gain diagonal, ``W`` the face-splitting factor
    of |C|^2, ``rx``/``U`` the probed signal and distortion products,
    ``powers``/``dist`` their powers; ``sig2`` and the moment residuals
    ``r4``/``r6`` are None without a penalty. ``terms[b]`` is slice b.
    """

    link: Link
    gain: np.ndarray
    W: np.ndarray
    rx: np.ndarray
    U: np.ndarray
    powers: np.ndarray
    dist: np.ndarray
    sig2: np.ndarray | None = None
    r4: np.ndarray | None = None
    r6: np.ndarray | None = None

    def __getitem__(self, b: int) -> Terms:
        at = lambda a: None if a is None else a[b]
        return Terms(
            self.link, self.gain[b], self.W[b], self.rx[b], self.U[b], self.powers[b], self.dist[b],
            at(self.sig2), at(self.r4), at(self.r6),
        )


def _terms(F: np.ndarray, penalty: MomentPenalty, link: Link) -> Terms:
    config = link.config
    gain, W, _, rx, U = _probe_terms(F, link.probes, config.beta1, config.beta3)
    powers, dist = _received_powers(rx, U, config.beta3)
    if penalty.m4 is None:
        return Terms(link, gain, W, rx, U, powers, dist)
    sig2 = _row_powers(F)
    return Terms(link, gain, W, rx, U, powers, dist, sig2, *penalty.residuals(sig2))


def _sum_sq(r: np.ndarray) -> np.ndarray:
    # r @ r per slice, as a matmul of (1, n) by (n, 1): the same dot product
    # (and so the same bits) as the 1-D ``r @ r``.
    return (r[..., None, :] @ r[..., :, None])[..., 0, 0]


def penalized_objective(
    F: np.ndarray,
    penalty: MomentPenalty,
    channels: ChannelRealization,
    config: SystemConfig,
    *,
    link: Link | None = None,
    with_terms: bool = False,
):
    """Weighted rate objective plus the moment penalties at F.

    F is one precoder (returns a float) or a (B, n_tx, K) stack (returns B
    values, each equal bit for bit to the call on its slice). ``link`` is a
    prebuilt ``Link.of(channels, config)``. With ``with_terms`` the result
    is ``(value(s), Terms)``, for ``euclidean_gradient``.
    """
    terms = _terms(F, penalty, link or Link.of(channels, config))
    objective = weighted_objective_from_terms(_split_powers(terms.powers, terms.dist), config)[2]
    if penalty.m4 is not None:
        objective = objective + penalty.penalty1 * _sum_sq(terms.r4) + penalty.penalty2 * _sum_sq(terms.r6)
    if F.ndim == 2:
        objective = float(objective)
    return (objective, terms) if with_terms else objective


def euclidean_gradient(
    F: np.ndarray,
    penalty: MomentPenalty,
    channels: ChannelRealization,
    config: SystemConfig,
    *,
    terms: Terms | None = None,
) -> np.ndarray:
    """Conjugate Wirtinger gradient of the penalized objective at F.

    ``terms`` are F's probe terms from ``penalized_objective(..., with_terms=True)``;
    without them they are computed here.
    """
    n_tx, k = F.shape
    if channels.user_channels.shape != (config.n_users, config.n_tx) or k != config.n_users:
        raise ValueError("precoder/channel dimensions do not match the configuration")
    if terms is None:
        terms = _terms(F, penalty, Link.of(channels, config))
    link, rx, U, powers = terms.link, terms.rx, terms.U, terms.powers
    beta3 = config.beta3
    d3 = 2.0 * abs(beta3) ** 2

    # Probe r contributes c_r * log2(total_r / rest_r): total_r adds the useful
    # power to rest_r, which holds the interference (users only), the
    # distortion and the noise.
    in_rest = link.in_rest
    rest = (powers * in_rest).sum(axis=1) + terms.dist + link.noise
    total = rest + (powers * link.useful).sum(axis=1)
    inv_total, inv_rest = link.coeff / total, link.coeff / rest
    power_w = inv_total[:, None] - in_rest * inv_rest[:, None]  # d objective / d |r^H B f_i|^2
    dist_w = d3 * (inv_total - inv_rest)  # d objective / d ||T^H r||^2

    # sum_ri power_w[r, i] d|r^H B f_i|^2/dF*, through both f_i and the gain B(F).
    probes = link.probes
    M = probes.T @ (power_w * rx.conj())
    grad = (terms.gain[:, None] * M).conj()
    grad += (4.0 * (beta3 * np.einsum("ia,ia->i", F, M)).real)[:, None] * F
    # sum_r dist_w[r] d||T^H r||^2/dF*, from G* = conj(sum_r dist_w[r] r r^H T)
    # and T_(abc) = F_a F_b conj(F_c).
    G_conj = probes.T @ (dist_w[:, None] * U.conj())
    FF = (F[:, :, None] * F[:, None, :]).reshape(n_tx, k * k)
    grad += np.einsum("pkc,pk->pc", G_conj.reshape(n_tx, k * k, k), FF)
    grad += 2.0 * np.einsum("pak,pk->pa", G_conj.reshape(n_tx, k, k * k), terms.W).conj()

    if penalty.m4 is not None:
        # Both penalties depend on F only through sigma^2, and d sigma_i^2 / dF*_ia = F_ia.
        row = 4.0 * penalty.penalty1 * terms.r4 * terms.sig2 + 2.0 * penalty.penalty2 * terms.r6 * penalty.m4
        grad -= row[:, None] * F
    return grad
