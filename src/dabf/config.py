"""System configuration.

All internal math runs in linear units (mW) and radians. dBm/dB and degree
values are converted once, either here (helpers) or at experiment-config
parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates a structural invariant."""


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def require_int(value, key: str) -> int:
    """``value`` as an int; a float, a string or a boolean raises a ``ConfigError`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def require_real(value, key: str) -> float:
    """``value`` as a float; a string or a boolean raises a ``ConfigError`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a real number, got {value!r}")
    return float(value)


def noise_from_snr(p_tot_mw: float, snr_db: float) -> float:
    """Noise power N0 [mW] for a given total power and SNR = P_tot/N0."""
    return p_tot_mw / 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of the transmitter model and the objective's weights.

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

    def __post_init__(self) -> None:
        for name in ("n_tx", "n_rf", "n_users", "n_paths"):
            require_int(getattr(self, name), name)
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
        object.__setattr__(self, "beta1", complex(self.beta1))
        if self.beta1 == 0:
            raise ConfigError("beta1 must be nonzero: a zero linear gain leaves no power budget to match")
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
