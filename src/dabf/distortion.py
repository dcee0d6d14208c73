"""Bussgang linearization of the third-order amplifier array.

The amplifier acts per antenna as phi(x) = beta1*x + beta3*x*|x|^2. For a
Gaussian input vector x = F s with covariance C_x = F F^H, the output splits
into B x + e with B diagonal and e uncorrelated with x. All second-order
statistics below are exact closed forms for that model.

The mean output power is the budget polynomial

    P(F) = a * sum_i sigma_i^2 + b * sum_i sigma_i^4 + c * sum_i sigma_i^6

in the per-antenna input powers sigma_i^2 = [F F^H]_ii, with the
coefficients of ``budget_coefficients``.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def bussgang_gain_diag(F: np.ndarray, beta1: complex, beta3: complex) -> np.ndarray:
    """Diagonal of the linear-equivalent gain: beta1 + 2*beta3*diag(F F^H)."""
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    return beta1 + 2.0 * beta3 * sig2


# Cached: a batched ascent asks for each member's coefficients at every step.
@functools.lru_cache(maxsize=256)
def budget_coefficients(beta1: complex, beta3: complex) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the budget polynomial: |beta1|^2, 4 Re(beta1* beta3) and 6 |beta3|^2."""
    return abs(beta1) ** 2, 4.0 * (beta1.conjugate() * beta3).real, 6.0 * abs(beta3) ** 2


def radiated_power(F: np.ndarray, beta1: complex, beta3: complex) -> tuple[float, float, float]:
    """Mean output power E||phi(F s)||^2 [mW] with the exact moment traces.

    Returns (power, tr_m4, tr_m6) where tr_m4 = sum_i sigma_i^4 and
    tr_m6 = sum_i sigma_i^6 over the per-antenna input powers
    sigma_i^2 = [F F^H]_ii.
    """
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    tr_m4 = float(np.sum(sig2**2))
    tr_m6 = float(np.sum(sig2**3))
    a, b, c = budget_coefficients(beta1, beta3)
    return a * float(np.sum(sig2)) + b * tr_m4 + c * tr_m6, tr_m4, tr_m6


# Newton steps polishing the closed-form root (each doubles its correct digits).
_NEWTON_STEPS = 8


def _budget_root(a: float, b: float, c: float, p_tot: float) -> float:
    """The positive root u of c*u^3 + b*u^2 + a*u = p_tot, for a > 0, c >= 0 and b^2 < 3ac.

    Under b^2 < 3ac the cubic is strictly increasing, so the root is its only
    real one: Cardano's formula in the cancellation-free form u = w - P/(3w)
    - b/(3c) of the depressed cubic t^3 + P t + Q = 0, then Newton steps to
    full precision. A linear amplifier (c = 0, so b = 0) gives p_tot / a.
    """
    u = p_tot / a
    if c != 0.0:
        P = (3.0 * a * c - b * b) / (3.0 * c * c)
        Q = (2.0 * b**3 - 9.0 * a * b * c - 27.0 * c * c * p_tot) / (27.0 * c**3)
        w = float(np.cbrt(-0.5 * Q - math.copysign(math.sqrt(0.25 * Q * Q + P**3 / 27.0), Q)))
        cardano = w - P / (3.0 * w) - b / (3.0 * c)
        if math.isfinite(cardano) and cardano > 0.0:
            u = cardano
    for _ in range(_NEWTON_STEPS):
        step = (u * (a + u * (b + u * c)) - p_tot) / (a + u * (2.0 * b + 3.0 * u * c))
        u -= step
        if abs(step) <= 1e-16 * u:
            break
    return u


def power_match_scale(F: np.ndarray, p_tot, beta1, beta3):
    """Positive scalar s such that the mean output power of s*F equals p_tot.

    The power of s*F is a*u + b*u^2 + c*u^3 in u = s^2, with a, b, c fixed by
    the per-antenna input powers; by Cauchy-Schwarz b^2 <= (8/3) a c < 3ac,
    so the power is strictly increasing in u and ``_budget_root`` gives its
    unique root. F is one precoder (returns a float) or a (..., n_tx, K)
    stack (returns one scale per slice, each equal bit for bit to the call
    on its slice). ``p_tot``, ``beta1`` and ``beta3`` are scalars, or
    sequences with one entry per member when the stack's last leading axis
    holds members, (..., M, n_tx, K). Raises if F (or a slice) is zero.
    """
    x = np.ascontiguousarray(F, dtype=complex).view(float)  # (re, im) pairs: |F_ia|^2 summed along the rows
    sig2 = (x * x).sum(axis=-1)
    sig4 = sig2 * sig2
    sums = [np.reshape(s.sum(axis=-1), -1).tolist() for s in (sig2, sig4, sig4 * sig2)]
    if np.isscalar(beta3):
        budgets = [(p_tot, *budget_coefficients(beta1, beta3))]
    else:
        budgets = [(float(p), *budget_coefficients(complex(b1), complex(b3))) for p, b1, b3 in zip(p_tot, beta1, beta3)]
    roots = []
    # Slice i of the flattened stack belongs to member i mod M.
    for total, tr4, tr6, (p, coef_a, coef_b, coef_c) in zip(*sums, budgets * (len(sums[0]) // len(budgets))):
        if total == 0.0:
            raise ValueError("cannot power-match an all-zero precoder")
        roots.append(math.sqrt(_budget_root(coef_a * total, coef_b * tr4, coef_c * tr6, p)))
    return roots[0] if F.ndim == 2 else np.array(roots).reshape(F.shape[:-2])


def scale_to_power(F: np.ndarray, p_tot: float, beta1: complex, beta3: complex) -> np.ndarray:
    """F rescaled so its mean amplifier output power equals p_tot."""
    return power_match_scale(F, p_tot, beta1, beta3) * F
