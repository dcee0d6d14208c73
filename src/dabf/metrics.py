"""Link-quality metrics: per-user SINDR, sensing SNDR, weighted objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .distortion import radiated_power


@dataclass(frozen=True)
class MetricsReport:
    user_sindr: np.ndarray  # (n_users,)
    user_rates: np.ndarray  # (n_users,) bits/s/Hz
    sense_sndr: float
    sense_mi: float
    weighted_objective: float
    radiated_power: float  # mW


@dataclass(frozen=True)
class LinkTerms:
    """Signal/interference/distortion powers entering the rate expressions.

    ``signal``/``interference``/``distortion`` are per-user arrays; the
    ``sense_*`` scalars are the sensing-link analogues. For a stack of
    precoders every field gains the stack's leading axes.
    """

    signal: np.ndarray
    interference: np.ndarray
    distortion: np.ndarray
    sense_signal: float | np.ndarray
    sense_distortion: float | np.ndarray


def _face_split(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin factors of the Hadamard powers of C = F F^H.

    Returns (W, T) with |C|^2 = W W^H and C .* C .* conj(C) = T T^H. Row i of
    W (n_tx, K^2) holds F_ia conj(F_ib); row i of T (n_tx, K^3) holds
    F_ia F_ib conj(F_ic). These are face-splitting products of F, so every
    distortion quadratic form r^H (C .* |C|^2) r equals ||T^H r||^2. A
    (B, n_tx, K) stack of precoders gives stacks of factors.
    """
    *lead, n_tx, k = F.shape
    W = (F[..., :, None] * F.conj()[..., None, :]).reshape(*lead, n_tx, k * k)
    T = (F[..., :, None] * W[..., None, :]).reshape(*lead, n_tx, k**3)
    return W, T


def _probe_terms(F: np.ndarray, probes: np.ndarray, beta1: complex, beta3: complex):
    """Amplified-signal and distortion products of F seen through probe rows r^H.

    Returns (gain_diag, W, T, rx, U): rx[r, i] = r^H B f_i with the Bussgang
    gain B, and U = probes @ T, so r^H C_e r = 2|beta3|^2 ||U[r]||^2. Every
    result carries the leading stack axes of F, if any.
    """
    W, T = _face_split(F)
    # Columns a*(K+1) of W hold |F_ia|^2, so they sum to the antenna powers.
    gain_diag = beta1 + 2.0 * beta3 * W[..., :: F.shape[-1] + 1].real.sum(axis=-1)
    return gain_diag, W, T, probes @ (gain_diag[..., None] * F), probes @ T


def _received_powers(rx: np.ndarray, U: np.ndarray, beta3: complex) -> tuple[np.ndarray, np.ndarray]:
    """(|rx|^2, 2|beta3|^2 ||U[r]||^2): per-stream received and per-probe distortion powers."""
    return np.abs(rx) ** 2, 2.0 * abs(beta3) ** 2 * (np.abs(U) ** 2).sum(axis=-1)


def _probe_rows(channels: ChannelRealization, target_gain: complex) -> np.ndarray:
    """Rows r^H: the user channels, then the sensing steering vector times |target_gain|."""
    return np.vstack((channels.user_channels, abs(target_gain) * channels.sense_steering)).conj()


def probe_powers(
    F: np.ndarray, probes: np.ndarray, beta1: complex, beta3: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream received powers |r^H B f_i|^2 (m, K) and distortion powers r^H C_e r (m,)."""
    _, _, _, rx, U = _probe_terms(F, probes, beta1, beta3)
    return _received_powers(rx, U, beta3)


def _split_powers(powers: np.ndarray, distortion: np.ndarray) -> LinkTerms:
    """Link terms from the probe powers: user probes first, the sensing probe last."""
    k = powers.shape[-1]
    signal = np.diagonal(powers, axis1=-2, axis2=-1).copy()
    interference = powers[..., :k, :].sum(axis=-1) - signal
    return LinkTerms(
        signal, interference, distortion[..., :k], powers[..., k, :].sum(axis=-1), distortion[..., k]
    )


def link_terms(
    F: np.ndarray,
    channels: ChannelRealization,
    beta1: complex,
    beta3: complex,
    target_gain: complex,
) -> LinkTerms:
    """Evaluate the quadratic forms behind SINDR and sensing SNDR for F."""
    return _split_powers(*probe_powers(F, _probe_rows(channels, target_gain), beta1, beta3))


def weighted_objective_from_terms(
    terms: LinkTerms, config: SystemConfig
) -> tuple[np.ndarray, float, float]:
    """(per-user SINDR, sensing SNDR, weighted rate objective) from powers.

    Terms with leading stack axes give one SNDR and one objective per slice.
    """
    noise = config.noise_user_array
    gammas = terms.signal / (terms.interference + terms.distortion + noise)
    gamma_s = terms.sense_signal / (terms.sense_distortion + config.noise_sense)
    rates = np.log2(1.0 + gammas)
    mi = np.log2(1.0 + gamma_s)
    objective = config.weight_comm * rates.sum(axis=-1) + config.weight_sense * mi
    return gammas, gamma_s, objective


def weighted_objective(F: np.ndarray, channels: ChannelRealization, config: SystemConfig) -> float:
    """Weighted sum of user rates and sensing MI (no penalty terms)."""
    terms = link_terms(F, channels, config.beta1, config.beta3, config.target_gain)
    return float(weighted_objective_from_terms(terms, config)[2])


def evaluate_metrics(
    channels: ChannelRealization,
    precoder: np.ndarray,
    config: SystemConfig,
) -> MetricsReport:
    """Full metrics report for a digital precoder (n_tx, n_users).

    For a hybrid pair, pass the product analog @ digital.
    """
    F = np.asarray(precoder)
    if F.shape != (config.n_tx, config.n_users):
        raise ValueError(f"precoder must be ({config.n_tx}, {config.n_users}), got {F.shape}")
    terms = link_terms(F, channels, config.beta1, config.beta3, config.target_gain)
    gammas, gamma_s, objective = weighted_objective_from_terms(terms, config)
    power, _, _ = radiated_power(F, config.beta1, config.beta3)
    return MetricsReport(
        user_sindr=gammas,
        user_rates=np.log2(1.0 + gammas),
        sense_sndr=float(gamma_s),
        sense_mi=float(np.log2(1.0 + gamma_s)),
        weighted_objective=float(objective),
        radiated_power=power,
    )
