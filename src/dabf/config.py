"""System configuration and solver options.

All internal math runs in linear units (mW) and radians. dBm/dB and degree
values are converted once, either here (helpers) or at experiment-config
parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates a structural invariant."""


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(mw)


def noise_from_snr(p_tot_mw: float, snr_db: float) -> float:
    """Noise power N0 [mW] for a given total power and SNR = P_tot/N0."""
    return p_tot_mw / 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and iteration limits of the Fletcher-Reeves/Armijo ascent.

    ``max_mo_iters``, ``mo_grad_tol_scale``, the ``armijo_*`` options and the
    stall threshold ``outer_tol / 10`` govern every ascent that shares the
    engine: the exact-budget design of a full-digital precoder, the
    digital-factor refinement of a hybrid and the sphere-constrained
    ``manifold_cg`` of the convergence figure.
    ``armijo_init_step`` is a dimensionless scale: the first trial step of
    the backtracking search is ``armijo_init_step / ||grad||_F``. The search
    evaluates its ``armijo_max_backtracks`` trial steps a few at a time as
    one stack, the first trial that passes the Armijo test wins, and the
    gradient at the accepted point reuses that trial's probe terms; the
    steps taken are exactly those of a one-by-one search.
    ``max_outer_iters`` and ``outer_tol`` bound the full-digital design: at
    most ``max_outer_iters`` exact-budget ascents, stopped once one gains
    less than ``outer_tol`` relative. A design that spends the ascents
    first reports ``converged = False``.
    """

    max_outer_iters: int = 50
    outer_tol: float = 1e-5
    max_mo_iters: int = 200
    mo_grad_tol_scale: float = 1e-6  # multiplied by sqrt(n_tx * n_users)
    armijo_init_step: float = 1.0
    armijo_contraction: float = 0.5
    armijo_slope: float = 1e-4
    armijo_max_backtracks: int = 30

    def __post_init__(self) -> None:
        positive = {
            "max_outer_iters": self.max_outer_iters,
            "outer_tol": self.outer_tol,
            "max_mo_iters": self.max_mo_iters,
            "mo_grad_tol_scale": self.mo_grad_tol_scale,
            "armijo_init_step": self.armijo_init_step,
            "armijo_max_backtracks": self.armijo_max_backtracks,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not 0.0 < self.armijo_contraction < 1.0:
            raise ConfigError("armijo_contraction must lie strictly in (0, 1)")
        if not 0.0 < self.armijo_slope < 1.0:
            raise ConfigError("armijo_slope must lie strictly in (0, 1)")

    def mo_grad_tol(self, n_tx: int, n_users: int) -> float:
        return self.mo_grad_tol_scale * math.sqrt(n_tx * n_users)


@dataclass(frozen=True)
class SystemConfig:
    """Physical and algorithmic parameters of the transmitter model.

    Powers are linear milliwatts, angles are degrees (converted to radians
    where the array response is built). ``noise_user`` broadcasts a scalar
    to all users; per-user values are allowed.
    """

    n_tx: int = 64
    n_rf: int = 16
    n_users: int = 2
    n_paths: int = 5
    p_tot: float = dbm_to_mw(13.0)
    noise_user: tuple[float, ...] | float = noise_from_snr(dbm_to_mw(13.0), 20.0)
    noise_sense: float = noise_from_snr(dbm_to_mw(13.0), 20.0)
    weight_comm: float = 0.5
    weight_sense: float = 0.5
    beta1: complex = 1.14 - 0.08j
    beta3: complex = -0.08 + 0.1j
    target_angle_deg: float = 60.0
    target_gain: complex = 1.0 + 0.0j
    penalty1: float = -10.0
    penalty2: float = -10.0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.n_tx < 1 or self.n_rf < 1 or self.n_users < 1 or self.n_paths < 1:
            raise ConfigError("antenna, chain, user and path counts must be positive")
        if self.n_tx % self.n_rf != 0:
            raise ConfigError(
                f"n_tx={self.n_tx} must be divisible by n_rf={self.n_rf} "
                "(partially-connected subarrays)"
            )
        if not self.n_users <= self.n_rf <= self.n_tx:
            raise ConfigError("need n_users <= n_rf <= n_tx")
        if not (0.0 <= self.weight_comm <= 1.0 and 0.0 <= self.weight_sense <= 1.0):
            raise ConfigError("weights must lie in [0, 1]")
        if abs(self.weight_comm + self.weight_sense - 1.0) > 1e-12:
            raise ConfigError("weight_comm + weight_sense must equal 1")
        if self.p_tot <= 0:
            raise ConfigError("p_tot must be positive")
        noise = np.atleast_1d(np.asarray(self.noise_user, dtype=float))
        if noise.size == 1:
            noise = np.full(self.n_users, float(noise[0]))
        if noise.size != self.n_users:
            raise ConfigError("noise_user must be scalar or length n_users")
        if np.any(noise <= 0) or self.noise_sense <= 0:
            raise ConfigError("noise powers must be positive")
        object.__setattr__(self, "noise_user", tuple(float(v) for v in noise))
        if self.penalty1 >= 0 or self.penalty2 >= 0:
            raise ConfigError("penalty factors must be negative")
        object.__setattr__(self, "beta1", complex(self.beta1))
        object.__setattr__(self, "beta3", complex(self.beta3))
        object.__setattr__(self, "target_gain", complex(self.target_gain))

    @property
    def target_angle_rad(self) -> float:
        return math.radians(self.target_angle_deg)

    @property
    def noise_user_array(self) -> np.ndarray:
        return np.asarray(self.noise_user, dtype=float)

    def with_updates(self, **changes) -> "SystemConfig":
        """Copy with fields replaced (re-runs validation)."""
        return replace(self, **changes)
