"""Penalized objective and its exact conjugate gradient w.r.t. the precoder.

The objective is the weighted sum of user rates and sensing mutual
information, plus two negative-weighted quadratic penalties tying the
auxiliary moments, kept as their diagonals, to their exact values m4 =
sigma^4 and m6 = m4 .* sigma^2 (sigma^2 the row powers of F); the penalties
and their gradient are O(n_tx K) row operations.

Both functions read the probe kernel of ``metrics``; ``Link`` holds what
does not depend on F, so an ascent builds it once. Both evaluate one
precoder or a (..., n_tx, K) stack, each result bit for bit that of the
call on its slice; a ``Link`` of members (one or more) evaluates a stack whose
last leading axis holds the members. ``penalized_objective`` can hand back
the kernel results (``Terms``). ``euclidean_gradient`` returns
d(objective)/dF* in the Wirtinger sense (the differential is 2 Re<dF, grad>)
from those results, in the kernel's antenna-last layout and with no
``einsum``. It runs only at accepted points, so only there does it build
the factor W of |C|^2 and probe every row (a,b,c) of T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .metrics import Link, _probe, _rates, _work


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


@dataclass(slots=True)
class Terms:
    """Probe-kernel results of one precoder, or of each slice of a stack (``terms[i]`` indexes the slices).

    ``gain`` is the Bussgang gain diagonal, ``Y`` the probed kernel rows (``metrics._probe``),
    ``rest``/``total`` the per-probe powers of ``metrics._rates``, ``sig2`` the antenna input
    powers, and ``r4``/``r6`` the moment residuals (None without a penalty). ``terms[i] = other``
    writes ``other``'s slices into slices ``i``.
    """

    link: Link
    gain: np.ndarray
    Y: np.ndarray
    rest: np.ndarray
    total: np.ndarray
    sig2: np.ndarray
    r4: np.ndarray | None = None
    r6: np.ndarray | None = None

    def _arrays(self) -> tuple:
        return self.gain, self.Y, self.rest, self.total, self.sig2, self.r4, self.r6

    def __getitem__(self, index) -> Terms:
        return Terms(self.link, *[None if a is None else a[index] for a in self._arrays()])

    def __setitem__(self, index, other: Terms) -> None:
        for mine, theirs in zip(self._arrays(), other._arrays()):
            if mine is not None:
                mine[index] = theirs


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

    F is one precoder (returns a float) or a (..., n_tx, K) stack (returns
    one value per slice, each equal bit for bit to the call on its slice).
    ``link`` is a prebuilt ``Link.of(channels, config)``, or the link of the
    members on the stack's last leading axis. With ``with_terms`` the result
    is ``(value(s), Terms)``, for ``euclidean_gradient``.
    """
    link = link or Link.of(channels, config)
    sig2, gain, Y, parts = _probe(F, link)
    rest, total, objective = _rates(parts, link.noise, link.coeff)
    r4 = r6 = None
    if penalty.m4 is not None:
        r4, r6 = penalty.residuals(sig2)
        objective = objective + penalty.penalty1 * _sum_sq(r4) + penalty.penalty2 * _sum_sq(r6)
    if F.ndim == 2:
        objective = float(objective)
    return (objective, Terms(link, gain, Y, rest, total, sig2, r4, r6)) if with_terms else objective


def euclidean_gradient(
    F: np.ndarray,
    penalty: MomentPenalty,
    channels: ChannelRealization,
    config: SystemConfig,
    *,
    terms: Terms | None = None,
) -> np.ndarray:
    """Conjugate Wirtinger gradient of the penalized objective at F.

    F is one precoder or a (..., n_tx, K) stack, whose gradients are each
    equal bit for bit to the call on their slice. ``terms`` are F's probe
    terms from ``penalized_objective(..., with_terms=True)``; without them
    they are computed here, with ``Link.of(channels, config)``.
    """
    n_tx, k = F.shape[-2:]
    if channels.user_channels.shape != (config.n_users, config.n_tx) or k != config.n_users:
        raise ValueError("precoder/channel dimensions do not match the configuration")
    if terms is None:
        terms = penalized_objective(F, penalty, channels, config, with_terms=True)[1]
    link = terms.link
    key = ("gradient", F.shape)
    work = link.scratch.get(key)
    if work is None:
        lead = F.shape[:-2]
        shapes = [(*lead, k, k, n_tx)] * 2 + [(*lead, len(link.grad_rows), n_tx)]
        W, XX, G, by_w, by_xx = _work(link, shapes + [(*lead, k, k * k, n_tx), (*lead, k * k, k, n_tx)])
        # Views of the buffers, cut once: M and GT are G's rows (see below), in the two shapes used.
        M, GT = G[..., :k, :], G[..., k:, :]
        flat = (*lead, k * k, n_tx)
        GT_abc, GT_cab = GT.reshape(*lead, k, k * k, n_tx), GT.reshape(*lead, k * k, k, n_tx)
        views = (W.reshape(flat), XX.reshape(flat), M, GT_abc, GT_cab)
        work = link.scratch[key] = W, XX, G, by_w, by_xx, *views
    W4, XX4, G, by_w, by_xx, W, XX, M, GT_abc, GT_cab = work
    X = np.ascontiguousarray(F.swapaxes(-1, -2))

    # Probe r contributes coeff_r ln(total_r / rest_r). Row j of ``weights``
    # is d objective / d|Y_j|^2 over the rows of Y behind r^H B f_i, then
    # over every row (a,b,c) of T: the distortion power is
    # 2|beta3|^2 sum_abc |(T r)_abc|^2.
    over_total, over_rest = link.grad_weights
    weights = over_total / terms.total[..., None, :] + over_rest / terms.rest[..., None, :]
    np.matmul((weights * np.take(terms.Y, link.grad_rows, axis=-2).conj()).view(float), link.spread, out=G.view(float))
    # G[:k] = M with M_i = sum_r weights_ir conj(r^H B f_i) r^H. Through both
    # f_i and the gain B(F), sum_ir weights_ir d|r^H B f_i|^2/dX*_i is
    # conj(gain M_i) + 4 Re(beta3 sum_a X_a M_a) X_i. G[k:] = GT.
    Xa = X[..., :, None, :]
    np.multiply(Xa, X.conj()[..., None, :, :], out=W4)  # W: X_b conj(X_c)
    np.multiply(Xa, X[..., None, :, :], out=XX4)  # XX: X_a X_b
    # The distortion part, with GT[abc] = sum_r weights_r conj((T r)_abc) r^H
    # and T_abc = X_a X_b conj(X_c): sum_ab GT[abj] X_a X_b + 2 conj(sum_bc GT[jbc] W_bc).
    grad = (terms.gain[..., None, :] * M + 2.0 * np.multiply(GT_abc, W[..., None, :, :], out=by_w).sum(axis=-2)).conj()
    grad += np.multiply(GT_cab, XX[..., :, None, :], out=by_xx).sum(axis=-3)
    grad += (4.0 * link.beta3 * (X * M).sum(axis=-2)).real[..., None, :] * X

    if penalty.m4 is not None:
        # Both penalties depend on F only through sigma^2, and d sigma_i^2 / dF*_ia = F_ia.
        row = 4.0 * penalty.penalty1 * terms.r4 * terms.sig2 + 2.0 * penalty.penalty2 * terms.r6 * penalty.m4
        grad -= row[..., None, :] * X
    return grad.swapaxes(-1, -2)
