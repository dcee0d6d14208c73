"""Output checks written apart from ``dabf.metrics`` and ``dabf.distortion``.

Everything here is plain NumPy on arrays captured from a run, so a fault in
the program's own link terms, power formula or power matching cannot hide
behind itself. Each check returns a list of failure messages; an empty list
means the check passed.

Amplifier model: phi(x) = beta1*x + beta3*x*|x|^2 per antenna, driven by the
zero-mean circular Gaussian vector x = F s with covariance C = F F^H. The
Bussgang closed forms used below are

* gain        g_i = E[phi(x_i) x_i^*] / E|x_i|^2 = beta1 + 2*beta3*C_ii
* distortion  C_e = 2|beta3|^2 * C .* C .* conj(C)
* power       E|phi(x_i)|^2 = |beta1|^2 s + 2 Re(beta1^* beta3) E|x|^4 + |beta3|^2 E|x|^6,
              with E|x|^(2n) = n! s^n for s = C_ii.
"""

from __future__ import annotations

import math

import numpy as np

# Reported numbers pass through a different summation order than this
# module's, and power matching stops at a relative tolerance of 1e-12.
REL_TOL = 1e-9


def _antenna_power(F: np.ndarray) -> np.ndarray:
    return np.einsum("ik,ik->i", F, F.conj()).real


def radiated_power(F: np.ndarray, beta1: complex, beta3: complex) -> float:
    """Mean amplifier output power E||phi(F s)||^2 from Gaussian moments."""
    s = _antenna_power(F)
    cross = 2.0 * (np.conj(beta1) * beta3).real
    per_antenna = (
        abs(beta1) ** 2 * s
        + cross * math.factorial(2) * s**2
        + abs(beta3) ** 2 * math.factorial(3) * s**3
    )
    return float(per_antenna.sum())


def _distortion_form(v: np.ndarray, F: np.ndarray, beta3: complex) -> float:
    """v^H C_e v through the face-splitting factor T with C.*C.*conj(C) = T T^H."""
    n, k = F.shape
    T = (F[:, :, None, None] * F[:, None, :, None] * F.conj()[:, None, None, :]).reshape(n, k**3)
    return 2.0 * abs(beta3) ** 2 * float(np.sum(np.abs(T.conj().T @ v) ** 2))


def weighted_objective(F: np.ndarray, channels: dict, model: dict) -> float:
    """Weighted sum of user rates and sensing mutual information of F.

    ``channels`` holds ``user_channels`` (K x n) and ``sense_steering`` (n,);
    ``model`` holds the amplifier, noise, weight and target-gain values.
    """
    beta1, beta3 = model["beta1"], model["beta3"]
    gain = beta1 + 2.0 * beta3 * _antenna_power(F)
    H = channels["user_channels"]
    rates = 0.0
    for k, h in enumerate(H):
        received = np.abs((h.conj() * gain) @ F) ** 2
        interference = received.sum() - received[k]
        denominator = interference + _distortion_form(h, F, beta3) + model["noise_user"][k]
        rates += math.log2(1.0 + received[k] / denominator)
    a = channels["sense_steering"]
    alpha2 = abs(model["target_gain"]) ** 2
    echo = alpha2 * float(np.sum(np.abs((a.conj() * gain) @ F) ** 2))
    clutter = alpha2 * _distortion_form(a, F, beta3) + model["noise_sense"]
    return model["weight_comm"] * rates + model["weight_sense"] * math.log2(1.0 + echo / clutter)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def partially_connected(P: np.ndarray, n_rf: int, tol: float = 1e-9) -> bool:
    """True iff, within each subarray, every row of P is a unit-modulus multiple of one row.

    That is the shape of F_A @ F_D for a block-diagonal unit-modulus F_A: the
    rows of subarray i are exp(j*theta_m) times row i of F_D.
    """
    n = P.shape[0]
    if n % n_rf != 0:
        return False
    size = n // n_rf
    for start in range(0, n, size):
        block = P[start : start + size]
        ref = block[int(np.argmax(np.linalg.norm(block, axis=1)))]
        ref_sq = float(np.vdot(ref, ref).real)
        if ref_sq == 0.0:
            continue  # chain switched off: every row is zero
        for row in block:
            c = np.vdot(ref, row) / ref_sq
            if abs(abs(c) - 1.0) > tol or np.linalg.norm(row - c * ref) > tol * math.sqrt(ref_sq):
                return False
    return True


def sweep_models(config: dict, kind: str) -> list[dict]:
    """Amplifier/noise model of every grid point, derived from the workload config."""
    system = config["system"]
    p_tot = 10.0 ** (system["p_tot_dbm"] / 10.0)
    beta1 = complex(*system["beta1"])
    beta3 = complex(*system["beta3"])
    models = []
    for value in config["sweep"]["grid"]:
        if kind == "sweep_nonlinearity":
            cubic = 0j if value == 0.0 else value * abs(beta1) * beta3 / abs(beta3)
            snr_db = system["snr_db"]
        else:
            cubic, snr_db = beta3, value
        noise = p_tot / 10.0 ** (snr_db / 10.0)
        models.append(
            dict(
                p_tot=p_tot,
                beta1=beta1,
                beta3=cubic,
                noise_user=[noise] * system["n_users"],
                noise_sense=noise,
                weight_comm=system["weight_comm"],
                weight_sense=system["weight_sense"],
                target_gain=complex(*system["target_gain"]),
            )
        )
    return models


def check_sweep(rows: list[list[str]], captures: list[dict], config: dict, kind: str) -> list[str]:
    """Recompute a sweep CSV from the captured hybrid designs and check its contracts.

    ``rows`` are the CSV data rows (grid value, scheme, mean objective, mean
    power, realizations); ``captures`` holds one record per realization with
    ``user_channels``, ``sense_steering`` and ``designs`` (grid x scheme x n x K).
    """
    failures = []
    schemes = config["schemes"]
    grid = config["sweep"]["grid"]
    n_rf = config["system"]["n_rf"]
    models = sweep_models(config, kind)
    if len(rows) != len(grid) * len(schemes):
        return [f"CSV has {len(rows)} rows, expected {len(grid) * len(schemes)}"]
    means = {}
    for gi, model in enumerate(models):
        for si, scheme in enumerate(schemes):
            row = rows[gi * len(schemes) + si]
            where = f"grid={grid[gi]} scheme={scheme}"
            if float(row[0]) != grid[gi] or row[1] != scheme or int(row[4]) != len(captures):
                failures.append(f"{where}: unexpected CSV row {row}")
                continue
            objectives, powers = [], []
            for r, cap in enumerate(captures):
                F = cap["designs"][gi, si]
                if not partially_connected(F, n_rf):
                    failures.append(f"{where} realization {r}: product is not partially connected")
                objectives.append(weighted_objective(F, cap, model))
                powers.append(radiated_power(F, model["beta1"], model["beta3"]))
                # The PA-blind design sets its gain by the linear budget it believes in.
                budget = (
                    abs(model["beta1"]) ** 2 * float(np.sum(_antenna_power(F)))
                    if scheme == "proposed_unknown"
                    else powers[-1]
                )
                if not _close(budget, model["p_tot"]):
                    failures.append(f"{where} realization {r}: power budget {budget!r} != {model['p_tot']!r}")
            objective, power = float(np.mean(objectives)), float(np.mean(powers))
            if not _close(objective, float(row[2])):
                failures.append(f"{where}: reported objective {row[2]} != recomputed {objective!r}")
            if not _close(power, float(row[3])):
                failures.append(f"{where}: reported power {row[3]} != recomputed {power!r}")
            means[gi, scheme] = float(row[2])
    if "proposed_known" in schemes:
        for gi in range(len(grid)):
            for other in ("mrt", "zf", "rbf"):
                if other in schemes and means[gi, "proposed_known"] < means[gi, other]:
                    failures.append(
                        f"grid={grid[gi]}: proposed_known {means[gi, 'proposed_known']} < {other} {means[gi, other]}"
                    )
    return failures


def power_scale(F: np.ndarray, model: dict) -> float:
    """c > 0 such that c*F radiates exactly p_tot.

    The power of c*F is a*u + b*u^2 + d*u^3 in u = c^2; its positive real
    root is found with ``numpy.roots``.
    """
    s = _antenna_power(F)
    a = abs(model["beta1"]) ** 2 * s.sum()
    b = 4.0 * (np.conj(model["beta1"]) * model["beta3"]).real * np.sum(s**2)
    d = 6.0 * abs(model["beta3"]) ** 2 * np.sum(s**3)
    roots = np.roots([d, b, a, -model["p_tot"]])
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0]
    if len(real) != 1:
        raise ValueError(f"power cubic has {len(real)} positive roots")
    return math.sqrt(real[0])


def matched_filter_start(user_channels: np.ndarray, model: dict) -> np.ndarray:
    """Unit-norm matched-filter columns scaled onto the exact output-power budget."""
    F = (user_channels / np.linalg.norm(user_channels, axis=1)[:, None]).T
    return power_scale(F, model) * F


def non_decreasing(trace: np.ndarray) -> bool:
    return bool(np.all(np.diff(trace) >= 0.0))


def check_convergence(rows: list[list[str]], captures: list[dict], config: dict) -> list[str]:
    """Check a convergence CSV against the captured per-realization traces.

    Each averaged trace must never decrease, must equal the padded mean of
    the captured traces, and must start at the objective of the power-matched
    matched-filter start.
    """
    failures = []
    grid = config["sweep"]["grid"]
    models = sweep_models(config, "sweep_snr")  # the trace grid is an SNR grid too
    for gi, snr_db in enumerate(grid):
        reported = np.array([float(r[2]) for r in rows if float(r[1]) == snr_db])
        where = f"snr_db={snr_db}"
        if not non_decreasing(reported):
            failures.append(f"{where}: averaged trace decreases")
        traces = [cap["traces"][gi] for cap in captures]
        length = max(len(t) for t in traces)
        padded = np.mean([np.concatenate([t, np.full(length - len(t), t[-1])]) for t in traces], axis=0)
        if len(reported) != length or not np.allclose(reported, padded, rtol=REL_TOL, atol=0.0):
            failures.append(f"{where}: CSV trace differs from the mean of the captured traces")
        for r, (cap, trace) in enumerate(zip(captures, traces)):
            if not non_decreasing(trace):
                failures.append(f"{where} realization {r}: trace decreases")
            start = weighted_objective(matched_filter_start(cap["user_channels"], models[gi]), cap, models[gi])
            if not _close(start, float(trace[0]), 1e-8):
                failures.append(f"{where} realization {r}: first entry {trace[0]!r} != start objective {start!r}")
    return failures


def objective_bits(rows: list[list[str]], kind: str) -> float:
    """Mean proposed_known objective over a sweep grid, or the mean final value of convergence traces."""
    if kind == "convergence":
        finals = {}
        for row in rows:
            finals[float(row[1])] = float(row[2])  # rows run in iteration order
        return float(np.mean(list(finals.values())))
    return float(np.mean([float(r[2]) for r in rows if r[1] == "proposed_known"]))
