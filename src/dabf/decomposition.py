"""Factorization of a digital precoder into partially-connected hybrid form.

Each transmit chain drives a disjoint antenna subarray, so the analog matrix
is block diagonal with unit-modulus entries and satisfies
F_A^H F_A = (n_tx/n_rf) * I for every feasible phase choice. That makes both
alternating updates exact coordinate minimizers of ||F - F_A F_D||_F^2.

Frobenius-optimal factors are not metric-optimal: the subarray structure
cannot reproduce arbitrary per-antenna amplitude profiles, and fine features
of the unconstrained precoder (for instance distortion nulls) wash out. The
``refine_digital`` pass therefore re-optimizes the digital factor against the
actual rate objective at fixed analog phases. It runs the same
Fletcher-Reeves/Armijo engine as the full-digital solver, with a rescale onto
the power budget as the retraction in place of the sphere's.
"""

from __future__ import annotations

import numpy as np

from . import gradients
from .config import ConfigError, SystemConfig
from .distortion import power_match_scale
from .metrics import weighted_objective
from .solver import _ascend


def _block_slices(n_tx: int, n_rf: int) -> list[slice]:
    size = n_tx // n_rf
    return [slice(i * size, (i + 1) * size) for i in range(n_rf)]


def analog_from_phases(phases: np.ndarray, n_tx: int, n_rf: int) -> np.ndarray:
    """Assemble the block-diagonal analog matrix from per-antenna phases."""
    F_A = np.zeros((n_tx, n_rf), dtype=complex)
    for i, rows in enumerate(_block_slices(n_tx, n_rf)):
        F_A[rows, i] = np.exp(1j * phases[rows])
    return F_A


def decompose(
    F: np.ndarray,
    n_rf: int,
    max_iters: int = 100,
    tol: float = 1e-8,
    init_phases: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating closed-form factorization F ~= F_A @ F_D.

    Analog update: each supported entry takes the phase of the matching entry
    of F @ F_D^H (zero-magnitude entries keep their previous phase). Digital
    update: least squares, F_D = (n_rf/n_tx) * F_A^H @ F. Returns the factors
    plus the trace of Frobenius residuals, which is non-increasing.

    ``init_phases`` overrides the warm start (one phase per antenna).
    """
    n_tx, k = F.shape
    if n_tx % n_rf != 0:
        raise ConfigError(f"n_tx={n_tx} must be divisible by n_rf={n_rf}")
    if k > n_rf:
        raise ConfigError(f"need n_users={k} <= n_rf={n_rf}")
    blocks = _block_slices(n_tx, n_rf)

    if init_phases is not None:
        phases = np.array(init_phases, dtype=float)
        if phases.shape != (n_tx,):
            raise ConfigError(f"init_phases must have shape ({n_tx},)")
    else:
        # Warm start: copy phases of each subarray's strongest column.
        phases = np.zeros(n_tx)
        for rows in blocks:
            energies = np.sum(np.abs(F[rows, :]) ** 2, axis=0)
            lead = F[rows, int(np.argmax(energies))]
            phases[rows] = np.where(np.abs(lead) > 0.0, np.angle(lead), 0.0)
    F_A = analog_from_phases(phases, n_tx, n_rf)

    residuals: list[float] = []
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


def analog_feasibility_check(F_A: np.ndarray, n_tx: int, n_rf: int, tol: float = 1e-10) -> bool:
    """True iff F_A has the exact subarray support with unit-modulus entries."""
    if F_A.shape != (n_tx, n_rf) or n_tx % n_rf != 0:
        return False
    mask = np.zeros((n_tx, n_rf), dtype=bool)
    for i, rows in enumerate(_block_slices(n_tx, n_rf)):
        mask[rows, i] = True
    if np.any(F_A[~mask] != 0):
        return False
    return bool(np.all(np.abs(np.abs(F_A[mask]) - 1.0) <= tol))


def refine_digital(F_A: np.ndarray, F_D: np.ndarray, channels, config: SystemConfig) -> np.ndarray:
    """Ascend the weighted rate objective over the digital factor.

    Runs the solver's Fletcher-Reeves/Armijo engine at fixed analog phases,
    with ``config.solver`` as its options, the pulled-back gradient
    ``F_A^H grad`` and, as the retraction, a rescale onto the exact
    output-power budget of ``config``. Pass the design-model configuration
    (e.g. one with the cubic coefficient zeroed) to refine a transmitter
    that believes in that model. The returned factor never has a lower
    design-model objective than the power-matched input.
    """

    def fit(X: np.ndarray, step: np.ndarray) -> np.ndarray:
        moved = X + step
        return moved * power_match_scale(F_A @ moved, config.p_tot, config.beta1, config.beta3)

    def gradient(X: np.ndarray) -> np.ndarray:
        return F_A.conj().T @ gradients.euclidean_gradient(F_A @ X, gradients.NO_PENALTY, channels, config)

    objective = lambda X: weighted_objective(F_A @ X, channels, config)
    return _ascend(fit(F_D, 0.0), objective, gradient, fit, config.solver)[0]


def match_hybrid_power(
    F_A: np.ndarray,
    F_D: np.ndarray,
    config: SystemConfig,
    assume_linear: bool = False,
) -> np.ndarray:
    """Digital factor rescaled so the hybrid pair meets the power budget.

    With ``assume_linear`` the budget is evaluated as if the amplifiers were
    ideal (|beta1|^2 ||F_A F_D||_F^2 = p_tot), which is how a transmitter
    unaware of its nonlinearity would set its gain.
    """
    product = F_A @ F_D
    if assume_linear:
        norm = np.linalg.norm(product)
        if norm == 0.0:
            raise ValueError("cannot power-match an all-zero precoder")
        scale = np.sqrt(config.p_tot) / (abs(config.beta1) * norm)
    else:
        scale = power_match_scale(product, config.p_tot, config.beta1, config.beta3)
    return scale * F_D
