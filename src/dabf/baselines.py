"""Classical precoders plus the nonlinearity-blind variant of the optimizer.

The classical baselines are matched to the power budget through the exact
nonlinear output-power formula; they know how much power they radiate, they
just do not shape the beams around the distortion. The nonlinearity-blind
variant meets only the budget of its linear model.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .distortion import scale_to_power
from .solver import PrecoderState, SolveDiagnostics, _mrt_direction, optimize_full_digital


def mrt_precoder(channels: ChannelRealization, config: SystemConfig) -> np.ndarray:
    """Matched-filter columns, globally scaled to the power budget."""
    return scale_to_power(_mrt_direction(channels), config.p_tot, config.beta1, config.beta3)


# Largest Gram condition number of a channel that the zero-forcing precoder inverts.
ZF_COND_LIMIT = 1e12


def zf_precoder(channels: ChannelRealization, config: SystemConfig) -> np.ndarray:
    """Channel-inverting columns (zero cross-user leakage before amplification)."""
    H = channels.user_channels.T  # (n_tx, k)
    gram = H.conj().T @ H
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > ZF_COND_LIMIT:
        raise ValueError(f"channel matrix is rank deficient (Gram condition number {cond:.3e})")
    F = H @ np.linalg.inv(gram)
    return scale_to_power(F, config.p_tot, config.beta1, config.beta3)


def rbf_precoder(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Random i.i.d. complex Gaussian precoder, power matched."""
    shape = (config.n_tx, config.n_users)
    F = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return scale_to_power(F, config.p_tot, config.beta1, config.beta3)


def pa_blind_precoder(channels: ChannelRealization, config: SystemConfig) -> tuple[PrecoderState, SolveDiagnostics]:
    """Run the optimizer as if the amplifiers were ideal (cubic term zero).

    With the cubic term zero the solve is the exact-budget ascent alone,
    with no alternation (see ``optimize_full_digital``). The returned
    precoder satisfies |beta1|^2 ||F||_F^2 = p_tot, i.e. the power budget
    the designer believes it meets. Its true radiated power under the
    actual amplifier model is up to the caller to evaluate.
    """
    linear_config = config.with_updates(beta3=0j)
    return optimize_full_digital(channels, linear_config)
