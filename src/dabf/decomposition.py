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

from typing import Sequence

import numpy as np

from .config import ConfigError, SystemConfig
from .distortion import power_match_scale
from . import solver

# Iteration limit and relative residual-change stop of the alternating factorization.
DECOMPOSE_MAX_ITERS = 100
DECOMPOSE_TOL = 1e-8


def analog_from_phases(phases: np.ndarray, n_tx: int, n_rf: int) -> np.ndarray:
    """Assemble the block-diagonal analog matrix from per-antenna phases (chain i drives subarray i)."""
    F_A = np.zeros((n_tx, n_rf), dtype=complex)
    F_A[np.arange(n_tx), np.arange(n_tx) // (n_tx // n_rf)] = np.exp(1j * phases)
    return F_A


def decompose(
    F: np.ndarray,
    n_rf: int,
    init_phases: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating closed-form factorization F ~= F_A @ F_D.

    Analog update: each supported entry takes the phase of the matching entry
    of F @ F_D^H (zero-magnitude entries keep their previous phase). Digital
    update: least squares, F_D = (n_rf/n_tx) * F_A^H @ F. Returns the factors
    plus the trace of Frobenius residuals, which is non-increasing. It stops
    after ``DECOMPOSE_MAX_ITERS`` rounds or when a round changes the
    residual by at most ``DECOMPOSE_TOL`` relative.

    ``init_phases`` overrides the warm start (one phase per antenna).
    """
    n_tx, k = F.shape
    if n_tx % n_rf != 0:
        raise ConfigError(f"n_tx={n_tx} must be divisible by n_rf={n_rf}")
    if k > n_rf:
        raise ConfigError(f"need n_users={k} <= n_rf={n_rf}")
    supported = np.arange(n_tx), np.arange(n_tx) // (n_tx // n_rf)  # the (antenna, chain) entries of F_A

    if init_phases is not None:
        phases = np.array(init_phases, dtype=float)
        if phases.shape != (n_tx,):
            raise ConfigError(f"init_phases must have shape ({n_tx},)")
    else:
        # Warm start: copy phases of each subarray's strongest column.
        blocks = F.reshape(n_rf, n_tx // n_rf, k)
        strongest = np.argmax(np.sum(np.abs(blocks) ** 2, axis=1), axis=1)
        lead = blocks[np.arange(n_rf), :, strongest].reshape(n_tx)
        phases = np.where(np.abs(lead) > 0.0, np.angle(lead), 0.0)
    F_A = analog_from_phases(phases, n_tx, n_rf)

    residuals: list[float] = []
    prev = None
    F_D = np.zeros((n_rf, k), dtype=complex)
    for _ in range(DECOMPOSE_MAX_ITERS):
        F_D = (n_rf / n_tx) * (F_A.conj().T @ F)
        residual = float(np.linalg.norm(F - F_A @ F_D))
        residuals.append(residual)
        if prev is not None and abs(prev - residual) <= DECOMPOSE_TOL * max(prev, 1e-300):
            break
        prev = residual

        z = (F @ F_D.conj().T)[supported]
        phases = np.where(np.abs(z) > 0.0, np.angle(z), phases)
        F_A = analog_from_phases(phases, n_tx, n_rf)
    else:
        F_D = (n_rf / n_tx) * (F_A.conj().T @ F)
        residuals.append(float(np.linalg.norm(F - F_A @ F_D)))
    return F_A, F_D, np.asarray(residuals)


def analog_feasibility_check(F_A: np.ndarray, n_tx: int, n_rf: int, tol: float = 1e-10) -> bool:
    """True iff F_A has the exact subarray support with unit-modulus entries."""
    if F_A.shape != (n_tx, n_rf) or n_tx % n_rf != 0:
        return False
    mask = analog_from_phases(np.zeros(n_tx), n_tx, n_rf) != 0
    return not np.any(F_A[~mask] != 0) and bool(np.all(np.abs(np.abs(F_A[mask]) - 1.0) <= tol))


def refine_digital(
    F_A: np.ndarray, F_D: np.ndarray, channels, config: SystemConfig | Sequence[SystemConfig]
) -> np.ndarray:
    """Ascend the weighted rate objective over the digital factor.

    One ``_budget_ascent`` of ``F_A @ F_D`` at fixed analog phases, for at
    most ``solver.MAX_MO_STEPS`` steps: the solver's Fletcher-Reeves/Armijo
    engine, with its constants, the pulled-back gradient ``F_A^H grad`` and,
    as the retraction, a rescale of each trial onto the exact output-power
    budget of ``config``. Pass the design-model configuration (e.g. one
    with the cubic coefficient zeroed) to refine a transmitter that believes
    in that model. The returned factor never has a lower design-model
    objective than the power-matched input.

    ``config`` may be a sequence of configs, one per refinement on the same
    channels, with ``F_A`` (M, n_tx, n_rf) and ``F_D`` (M, n_rf, K) stacks:
    the refinements then run as lockstep ascents and the (M, n_rf, K) stack
    of factors is returned, each bit for bit that of its own call.
    """
    if isinstance(config, SystemConfig):
        return solver._budget_ascent(F_A[None], F_D[None], channels, [config], solver.MAX_MO_STEPS)[0][0]
    return solver._budget_ascent(np.asarray(F_A), np.asarray(F_D), channels, list(config), solver.MAX_MO_STEPS)[0]


def match_hybrid_power(F_A: np.ndarray, F_D: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Digital factor rescaled so the hybrid pair meets the power budget of ``config``."""
    return power_match_scale(F_A @ F_D, config.p_tot, config.beta1, config.beta3) * F_D
