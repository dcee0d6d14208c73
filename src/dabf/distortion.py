"""Bussgang linearization of the third-order amplifier array.

The amplifier acts per antenna as phi(x) = beta1*x + beta3*x*|x|^2. For a
Gaussian input vector x = F s with covariance C_x = F F^H, the output splits
into B x + e with B diagonal and e uncorrelated with x. All second-order
statistics below are exact closed forms for that model.
"""

from __future__ import annotations

import numpy as np


def bussgang_gain_diag(F: np.ndarray, beta1: complex, beta3: complex) -> np.ndarray:
    """Diagonal of the linear-equivalent gain: beta1 + 2*beta3*diag(F F^H)."""
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    return beta1 + 2.0 * beta3 * sig2


def radiated_power(F: np.ndarray, beta1: complex, beta3: complex) -> tuple[float, float, float]:
    """Mean output power E||phi(F s)||^2 [mW] with the exact moment traces.

    Returns (power, tr_m4, tr_m6) where tr_m4 = sum_i sigma_i^4 and
    tr_m6 = sum_i sigma_i^6 over the per-antenna input powers
    sigma_i^2 = [F F^H]_ii.
    """
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    tr_m4 = float(np.sum(sig2**2))
    tr_m6 = float(np.sum(sig2**3))
    power = (
        abs(beta1) ** 2 * float(np.sum(sig2))
        + 4.0 * (beta1.conjugate() * beta3).real * tr_m4
        + 6.0 * abs(beta3) ** 2 * tr_m6
    )
    return power, tr_m4, tr_m6


def power_match_scale(
    F: np.ndarray,
    p_tot: float,
    beta1: complex,
    beta3: complex,
    rel_tol: float = 1e-12,
) -> float:
    """Positive scalar c such that the mean output power of c*F equals p_tot.

    The power of c*F is A c^2 + B c^4 + C c^6 with coefficients fixed by the
    per-antenna input powers; a bracketing bisection solves for c. Raises if
    F is zero or the amplifier output never reaches p_tot.
    """
    sig2 = np.sum(np.abs(F) ** 2, axis=1)
    total = float(np.sum(sig2))
    if total == 0.0:
        raise ValueError("cannot power-match an all-zero precoder")
    a = abs(beta1) ** 2 * total
    b = 4.0 * (beta1.conjugate() * beta3).real * float(np.sum(sig2**2))
    c = 6.0 * abs(beta3) ** 2 * float(np.sum(sig2**3))

    def power_at(scale: float) -> float:
        u = scale * scale
        return u * (a + u * (b + u * c))

    hi = 1.0
    for _ in range(200):
        if power_at(hi) >= p_tot:
            break
        hi *= 2.0
    else:
        raise ValueError("amplifier output power never reaches the requested budget")
    lo = 0.0
    mid = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = power_at(mid)
        if abs(p - p_tot) <= rel_tol * p_tot:
            break
        if p < p_tot:
            lo = mid
        else:
            hi = mid
    return mid


def scale_to_power(
    F: np.ndarray,
    p_tot: float,
    beta1: complex,
    beta3: complex,
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """F rescaled so its mean amplifier output power equals p_tot."""
    return power_match_scale(F, p_tot, beta1, beta3, rel_tol) * F
