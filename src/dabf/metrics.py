"""Link-quality metrics: per-user SINDR, sensing SNDR, weighted objective.

Every evaluation runs one probe kernel, ``_probe``, on probe rows r^H (the
user channels, then the sensing steering vector times |target gain|). It
holds a precoder with the antennas on the last axis, X = F^T (..., K, n_tx),
so elementwise steps run along the antennas, and never forms C = F F^H: the
distortion covariance 2|beta3|^2 C .* |C|^2 is 2|beta3|^2 T T^H with
T[(a,b,c)] = X_a X_b conj(X_c). Rows (a,b,c) and (b,a,c) are equal, so only
the K^2(K+1)/2 rows with a <= b are built, and those with a < b count twice.
One matrix product probes B X (B the Bussgang gain) and T together, so an
evaluation costs O(n_tx K^3) per probe. Per probe, ``rest`` is the leaked,
distortion and noise power and ``total`` adds the useful power: the SINDR
and SNDR are useful / rest, the objective is sum_r coeff_r ln(total_r /
rest_r), and the gradient weights come from coeff_r / total_r and / rest_r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .distortion import radiated_power

_LOG2E = 1.0 / np.log(2.0)


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
    """Per-probe powers behind the SINDR and sensing SNDR (probes: the users, then the sensing link).

    ``parts[..., :, r]``: probe r's useful power, the power other users' streams leak into it, its distortion power."""

    parts: np.ndarray

    signal = property(lambda self: self.parts[..., 0, :-1])
    interference = property(lambda self: self.parts[..., 1, :-1])
    distortion = property(lambda self: self.parts[..., 2, :-1])
    sense_signal = property(lambda self: self.parts[..., 0, -1])
    sense_distortion = property(lambda self: self.parts[..., 2, -1])


@dataclass(frozen=True)
class Link:
    """What the probe kernel and the gradient need that does not depend on F, for ``k`` streams.

    ``probes``: the probe rows r^H (probe r < k is user r's, later probes
    count every stream as useful); ``probed``/``spread``: their real forms,
    transposed and not; ``pairs``: the stream pairs a <= b of T's rows;
    ``masks``: weights of the squared kernel rows into each probe's useful,
    leaked and distortion powers. The gradient weighs rows ``grad_rows`` of
    the probed kernel (the streams, then every (a,b,c) of T) by
    ``grad_weights`` over total and rest. ``noise`` and ``coeff`` (objective
    weights over ln 2) are per probe. Each table is built on first use, so an
    evaluation without a gradient never builds the gradient's.
    ``scratch`` reuses the kernel's large temporaries per stack shape (one caller at a time).

    A link of several members (``Link.of`` with a sequence of configs) holds
    each member's amplifier, noise and weights on a leading member axis:
    ``beta1``/``beta3`` as (M, 1), ``noise``/``coeff`` as (M, m), and its
    tables as (M, ...). A stack it evaluates holds the members on its last
    leading axis, (..., M, n_tx, K). The members share the probe rows.
    """

    probes: np.ndarray
    k: int
    beta1: complex | np.ndarray
    beta3: complex | np.ndarray
    noise: np.ndarray | float = 0.0
    coeff: np.ndarray | float = 0.0
    scratch: dict = field(default_factory=dict, repr=False, compare=False)

    probed = functools.cached_property(lambda self: _real_form(self.probes.T))
    spread = functools.cached_property(lambda self: _real_form(self.probes))
    pairs = functools.cached_property(lambda self: _layout(self.k, len(self.probes))[0])
    grad_rows = functools.cached_property(lambda self: _layout(self.k, len(self.probes))[2])

    @classmethod
    def of(cls, channels: ChannelRealization, config: SystemConfig | Sequence[SystemConfig]) -> Link:
        """The link of one config, or of a sequence of configs (one member each) that share the probe rows."""
        if isinstance(config, SystemConfig):
            probes = _probe_rows(channels, config.target_gain)
            return cls(probes, config.n_users, config.beta1, config.beta3, *_noise_coeff(config))
        first = config[0]
        if any((c.n_users, c.target_gain) != (first.n_users, first.target_gain) for c in config):
            raise ValueError("the members of a link must share n_users and target_gain")
        noise, coeff = zip(*map(_noise_coeff, config))
        beta1, beta3 = (np.array([[getattr(c, name)] for c in config]) for name in ("beta1", "beta3"))
        probes = _probe_rows(channels, first.target_gain)
        return cls(probes, first.n_users, beta1, beta3, np.array(noise), np.array(coeff))

    def select(self, ids: np.ndarray) -> Link:
        """The link of the members ``ids``, sharing this one's probe tables and scratch.

        A link without a member axis is its own selection; one member's link
        has no member axis, as ``Link.of`` its config.
        """
        if np.ndim(self.beta3) == 0:
            return self
        if len(ids) == 1:
            i = ids[0]
            picked = Link(self.probes, self.k, complex(self.beta1[i, 0]), complex(self.beta3[i, 0]),
                          self.noise[i], self.coeff[i], self.scratch)
        else:
            picked = Link(self.probes, self.k, self.beta1[ids], self.beta3[ids], self.noise[ids], self.coeff[ids],
                          self.scratch)
        picked.__dict__.update(probed=self.probed, spread=self.spread)
        return picked

    @functools.cached_property
    def d3(self) -> float | np.ndarray:
        """2|beta3|^2, the distortion weight: a float, or (M,) per member (each in Python arithmetic, as for one)."""
        if np.ndim(self.beta3) == 0:
            return 2.0 * abs(self.beta3) ** 2
        return np.array([2.0 * abs(complex(b)) ** 2 for b in self.beta3[:, 0]])

    @functools.cached_property
    def masks(self) -> np.ndarray:
        scale = np.ones((*np.shape(self.d3), 3))
        scale[..., 2] = self.d3
        return _layout(self.k, len(self.probes))[1] * scale[..., :, None, None]

    @functools.cached_property
    def grad_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The gradient's weights of the probed rows, over total and over rest."""
        unit = _layout(self.k, len(self.probes))[3]
        scale = np.where(np.arange(len(self.grad_rows)) < self.k, 1.0, np.reshape(self.d3, (*np.shape(self.d3), 1)))
        weights = unit * self.coeff[..., None, None, :] * scale[..., None, :, None]
        return weights[..., 0, :, :], weights[..., 1, :, :]


def _noise_coeff(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per probe (the users, then the sensing link): the noise power and the objective weight over ln 2."""
    weights = np.append(np.full(config.n_users, config.weight_comm), config.weight_sense)
    return np.append(config.noise_user_array, config.noise_sense), _LOG2E * weights


@functools.cache
def _layout(k: int, m: int) -> tuple:
    """Read-only pairs, masks, gradient rows and weights of ``Link`` for 2|beta3|^2 = 1 and unit coeff."""
    pair_a, pair_b = np.triu_indices(k)
    leaked = np.zeros((k, m))
    leaked[:, :k] = 1.0 - np.eye(k)[:, :m]
    masks = np.zeros((3, k + k * len(pair_a), m))
    masks[:2, :k] = 1.0 - leaked, leaked
    masks[2, k:] = np.repeat(np.where(pair_a == pair_b, 1.0, 2.0), k)[:, None]
    sym = np.zeros((k, k), dtype=int)  # index of the pair (a, b) among the pairs a <= b
    sym[pair_a, pair_b] = sym[pair_b, pair_a] = np.arange(len(pair_a))
    a, b, c = np.indices((k, k, k)).reshape(3, -1)
    grad_weights = np.stack((np.ones((k + k**3, m)), -np.vstack((leaked, np.ones((k**3, m))))))
    tables = (pair_a, pair_b), masks, np.append(np.arange(k), k + k * sym[a, b] + c), grad_weights
    for table in (pair_a, pair_b, *tables[1:]):
        table.flags.writeable = False
    return tables


def _real_form(P: np.ndarray) -> np.ndarray:
    """Real matrix R with (x.view(float) @ R).view(complex) = x @ P for complex rows x."""
    R = np.empty((len(P), 2, P.shape[1], 2))
    R[:, 0, :, 0] = R[:, 1, :, 1] = P.real
    R[:, 0, :, 1], R[:, 1, :, 0] = P.imag, -P.imag
    return R.reshape(2 * len(P), -1)


def _probe_rows(channels: ChannelRealization, target_gain: complex) -> np.ndarray:
    """Rows r^H: the user channels, then the sensing steering vector times |target_gain|."""
    return np.vstack((channels.user_channels, abs(target_gain) * channels.sense_steering)).conj()


def _work(link: Link, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Complex work arrays of ``shapes``, cut from one block per link (``link.scratch``).

    A stack shape recurs at every step of an ascent, so a kernel cuts its
    arrays once per shape and keeps them in ``link.scratch``. The block only
    grows, to the largest call's need, so repeated calls allocate no large
    temporaries (whose pages the allocator would return and map again on
    every call).
    """
    sizes = [math.prod(shape) for shape in shapes]
    block = link.scratch.get("block")
    if block is None or block.size < sum(sizes):
        link.scratch.clear()  # the arrays cut from the old block
        block = link.scratch["block"] = np.empty(sum(sizes), dtype=complex)
    starts = np.cumsum([0, *sizes]).tolist()
    return [block[a:a + size].reshape(shape) for a, size, shape in zip(starts, sizes, shapes)]


def _probe(F: np.ndarray, link: Link) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sigma^2, gain, Y, parts) of F (n_tx, K), or of each slice of a (..., n_tx, K) stack.

    ``sigma^2`` are the antenna input powers and ``gain`` the Bussgang gain
    diagonal. Y (..., K + R, m) holds r^H B f_i in its first K rows, then
    the probed rows of T: row K + s*K + c for pair s and stream c. ``parts``
    (..., 3, m) are the per-probe powers of ``LinkTerms``.
    """
    key = ("probe", F.shape)
    work = link.scratch.get(key)
    if work is None:
        *lead, n, k = F.shape
        p = len(link.pairs[0])
        left, right, rows = _work(link, [(*lead, p, n)] * 2 + [(*lead, k + k * p, n)])
        # Splitting an axis of a slice is always a view, so the last view writes into ``rows``.
        work = link.scratch[key] = left, right, rows, rows[..., :k, :], rows[..., k:, :].reshape(*lead, p, k, n)
    left, right, rows, streams, distorted = work
    X = np.ascontiguousarray(F.swapaxes(-1, -2))
    Xc = X.conj()
    sig2 = (X * Xc).real.sum(axis=-2)
    gain = link.beta1 + 2.0 * link.beta3 * sig2
    np.multiply(gain[..., None, :], X, out=streams)
    # mode="clip" (the indices are in range) lets ``take`` write into ``out`` unbuffered.
    np.take(X, link.pairs[0], axis=-2, out=left, mode="clip")
    pairs = np.multiply(left, np.take(X, link.pairs[1], axis=-2, out=right, mode="clip"), out=left)
    np.multiply(pairs[..., :, None, :], Xc[..., None, :, :], out=distorted)
    Y = (rows.view(float) @ link.probed).view(complex)
    return sig2, gain, Y, ((Y * Y.conj()).real[..., None, :, :] * link.masks).sum(axis=-2)


def _rates(parts: np.ndarray, noise, coeff) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per probe rest (leaked + distortion + noise) and total (rest + useful) powers; the objective per slice."""
    rest = parts[..., 1, :] + parts[..., 2, :] + noise
    total = rest + parts[..., 0, :]
    return rest, total, (coeff * np.log(total / rest)).sum(axis=-1)


def probe_powers(
    F: np.ndarray, probes: np.ndarray, beta1: complex, beta3: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream received powers |r^H B f_i|^2 (m, K) and distortion powers r^H C_e r (m,)."""
    k = F.shape[-1]
    _, _, Y, parts = _probe(F, Link(probes, k, complex(beta1), complex(beta3)))
    return (Y[..., :k, :] * Y[..., :k, :].conj()).real.swapaxes(-1, -2), parts[..., 2, :]


def link_terms(
    F: np.ndarray,
    channels: ChannelRealization,
    beta1: complex,
    beta3: complex,
    target_gain: complex,
) -> LinkTerms:
    """Evaluate the powers behind SINDR and sensing SNDR for F."""
    link = Link(_probe_rows(channels, target_gain), F.shape[-1], complex(beta1), complex(beta3))
    return LinkTerms(_probe(F, link)[3])


def weighted_objective(F: np.ndarray, channels: ChannelRealization, config: SystemConfig) -> float:
    """Weighted sum of user rates and sensing MI (no penalty terms)."""
    return evaluate_metrics(channels, F, config).weighted_objective


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
    noise, coeff = _noise_coeff(config)
    parts = link_terms(F, channels, config.beta1, config.beta3, config.target_gain).parts
    rest, _, objective = _rates(parts, noise, coeff)
    gammas = parts[0] / rest
    rates = np.log2(1.0 + gammas)
    return MetricsReport(
        user_sindr=gammas[:-1],
        user_rates=rates[:-1],
        sense_sndr=float(gammas[-1]),
        sense_mi=float(rates[-1]),
        weighted_objective=float(objective),
        radiated_power=radiated_power(F, config.beta1, config.beta3)[0],
    )
