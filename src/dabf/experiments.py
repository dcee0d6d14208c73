"""Batch experiment runners: ergodic sweeps, convergence traces, beam patterns.

Every runner fans out over seeded channel realizations (optionally across a
process pool), reduces in realization order, and writes one UTF-8 CSV per
experiment plus a manifest of the fully resolved parameters. Reruns with the
same configuration and seed produce byte-identical files regardless of the
worker count. A design or evaluation that raises inside a realization task
surfaces as an ``ExperimentError`` naming the seed, realization, scheme and
grid point.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .baselines import mrt_precoder, pa_blind_precoder, rbf_precoder, zf_precoder
from .channel import ChannelRealization, draw_channels, steering_vector
from .config import ConfigError, SystemConfig, noise_from_snr
from .decomposition import decompose, match_hybrid_power, refine_digital
from .metrics import evaluate_metrics, probe_powers
from .solver import first_mo_trace, optimize_full_digital

SCHEMES = ("proposed_known", "proposed_unknown", "mrt", "zf", "rbf")
EXPERIMENT_KINDS = ("sweep_nonlinearity", "sweep_snr", "convergence", "beam_pattern")

DB_FLOOR = -200.0
ANGLE_MAX_DEG = 180.0
GRID_COLUMNS = {"sweep_nonlinearity": "rho", "sweep_snr": "snr_db", "convergence": "snr_db"}


class ExperimentError(RuntimeError):
    """A design or evaluation raised; the message names where, so one command reproduces it."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one batch experiment."""

    kind: str
    system: SystemConfig
    grid: tuple[float, ...]
    realizations: int
    out_dir: str
    schemes: tuple[str, ...] = SCHEMES
    workers: int = 1
    seed: int = 0
    user_angle_deg: float = 106.0
    angle_step_deg: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.realizations < 1:
            raise ConfigError("realizations must be at least 1")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must be non-empty")
        if list(self.grid) != sorted(self.grid):
            raise ConfigError("sweep grid must be sorted ascending")
        if self.kind == "sweep_nonlinearity" and self.grid[0] < 0.0:
            raise ConfigError(f"rho must be non-negative, got {self.grid[0]!r}")
        if len(self.schemes) == 0:
            raise ConfigError("scheme list must be non-empty")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; valid: {', '.join(SCHEMES)}")
            if s in self.schemes[:i]:
                raise ConfigError(f"scheme {s!r} is listed twice")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not 0.0 < self.angle_step_deg <= 10.0:
            raise ConfigError("angle_step_deg must lie in (0, 10]")


@contextmanager
def _failure_context(spec: ExperimentSpec, index: int, scheme: str, value: float):
    """Re-raise an exception of the block as an ``ExperimentError`` naming where it happened."""
    try:
        yield
    except Exception as exc:
        raise ExperimentError(
            f"{spec.kind} failed at seed {spec.seed}, realization {index}, scheme {scheme}, "
            f"{GRID_COLUMNS[spec.kind]} = {value!r}: {type(exc).__name__}: {exc}"
        ) from exc


def realization_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (master seed, realization, stream)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index, stream]))


def scaled_cubic_coefficient(beta1: complex, beta3: complex, rho: float) -> complex:
    """Cubic PA coefficient with magnitude rho*|beta1| and beta3's phase."""
    if rho == 0.0:
        return 0j
    if beta3 == 0:
        raise ConfigError("cannot scale the cubic coefficient: base beta3 is zero")
    return rho * abs(beta1) * (beta3 / abs(beta3))


def _known_pa_hybrid(
    channels: ChannelRealization,
    cfg: SystemConfig,
    F_known: np.ndarray,
    blind_factors: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Best distortion-aware hybrid over two analog-phase sources.

    The optimizer's precoder carries strongly non-uniform per-antenna
    amplitudes that the subarray structure represents poorly, so its
    factorization can inherit weak analog phases. The linear design's
    factorization is a second, often better-conditioned source. The
    transmitter knows its amplifier model, so it evaluates both refined
    candidates and keeps the better one. ``blind_factors`` are the (analog,
    digital) factors of the linear design.
    """
    factors = (decompose(F_known, cfg.n_rf)[:2], blind_factors)
    candidates = [F_A @ refine_digital(F_A, F_D, channels, cfg) for F_A, F_D in factors]
    return max(candidates, key=lambda H: evaluate_metrics(channels, H, cfg).weighted_objective)


def _scheme_designer(channels: ChannelRealization, base: SystemConfig, rbf_rng: np.random.Generator):
    """Function ``(scheme, grid config) -> reported hybrid`` for one channel realization.

    Work that does not depend on the grid point is done once per designer.
    Classical directions, and so their hybrid factors, depend only on the
    channels: they are designed at ``base``, factored once and re-matched to
    the power of each grid config. The linear design, its hybrid factors and
    its linear-model hybrid depend on a grid config only through its linear
    version (``beta3 = 0``), so one instance serves a whole nonlinearity
    grid. With a linear amplifier the distortion-aware design is the linear
    one, so ``proposed_known`` then reports the ``proposed_unknown`` hybrid.

    The digital factor of a hybrid is fitted to the power budget of its
    design model. Classical baselines are only rescaled to the budget of the
    grid config (``match_hybrid_power``); they commit to their textbook
    directions. The optimizer-driven schemes refine the digital factor
    (``refine_digital``) with their own design model: the true amplifier for
    the distortion-aware design, the linear version of the grid config for
    the PA-blind design.
    """
    memo: dict = {}
    classical = {
        "mrt": lambda: mrt_precoder(channels, base),
        "zf": lambda: zf_precoder(channels, base),
        "rbf": lambda: rbf_precoder(base, rbf_rng),
    }

    def once(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def hybrid(scheme: str, cfg: SystemConfig) -> np.ndarray:
        if scheme in classical:
            F_A, F_D, _ = once(scheme, lambda: decompose(classical[scheme](), base.n_rf))
            return F_A @ match_hybrid_power(F_A, F_D, cfg)
        linear = cfg.with_updates(beta3=0j)
        blind = once(
            ("blind", linear),
            lambda: decompose(pa_blind_precoder(channels, linear)[0].full_digital, cfg.n_rf)[:2],
        )
        if scheme == "proposed_known" and cfg.beta3 != 0:
            full = optimize_full_digital(channels, cfg)[0].full_digital
            return _known_pa_hybrid(channels, cfg, full, blind)
        return once(("unknown", linear), lambda: blind[0] @ refine_digital(*blind, channels, linear))

    return hybrid


def _sweep_one_realization(args: tuple[ExperimentSpec, int]) -> np.ndarray:
    """(objective, radiated power) per (grid point, scheme) for one realization.

    Channel realizations are shared by every scheme and every grid point of
    the sweep (paired comparison).
    """
    spec, index = args
    base = spec.system
    channels = draw_channels(base, realization_rng(spec.seed, index, 0))
    hybrid = _scheme_designer(channels, base, realization_rng(spec.seed, index, 1))

    out = np.zeros((len(spec.grid), len(spec.schemes), 2))
    for gi, value in enumerate(spec.grid):
        if spec.kind == "sweep_nonlinearity":
            cfg = base.with_updates(beta3=scaled_cubic_coefficient(base.beta1, base.beta3, value))
        else:  # sweep_snr
            noise = noise_from_snr(base.p_tot, value)
            cfg = base.with_updates(noise_user=noise, noise_sense=noise)
        for si, scheme in enumerate(spec.schemes):
            with _failure_context(spec, index, scheme, value):
                report = evaluate_metrics(channels, hybrid(scheme, cfg), cfg)
            out[gi, si, 0] = report.weighted_objective
            out[gi, si, 1] = report.radiated_power
    return out


def _map_over_realizations(spec: ExperimentSpec, task, payloads) -> list:
    if spec.workers == 1:
        return [task(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        return list(pool.map(task, payloads))


def _format_value(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, comments: list[str], header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write CSV {path!r}: {exc}") from exc


def _resolved_comment(spec: ExperimentSpec) -> str:
    payload = dataclasses.asdict(spec)
    payload["system"]["beta1"] = str(spec.system.beta1)
    payload["system"]["beta3"] = str(spec.system.beta3)
    payload["system"]["target_gain"] = str(spec.system.target_gain)
    return f"config: {payload}"


def _write_manifest(spec: ExperimentSpec, out_name: str) -> None:
    path = os.path.join(spec.out_dir, f"{out_name}-manifest.txt")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"experiment: {spec.kind}\n")
            fh.write(f"seed: {spec.seed}\n")
            fh.write(f"workers: {spec.workers}\n")
            fh.write(f"realizations: {spec.realizations}\n")
            fh.write(f"grid: {list(spec.grid)}\n")
            fh.write(f"schemes: {list(spec.schemes)}\n")
            fh.write(f"system: {spec.system}\n")
            fh.write(f"solver: {spec.system.solver}\n")
            if spec.kind == "beam_pattern":
                fh.write(f"user_angle_deg: {spec.user_angle_deg}\n")
                fh.write(f"angle_step_deg: {spec.angle_step_deg}\n")
    except OSError as exc:
        raise OSError(f"failed to write manifest {path!r}: {exc}") from exc


def _run_sweep(spec: ExperimentSpec, grid_column: str, out_name: str) -> str:
    os.makedirs(spec.out_dir, exist_ok=True)
    payloads = [(spec, i) for i in range(spec.realizations)]
    per_real = _map_over_realizations(spec, _sweep_one_realization, payloads)
    stacked = np.stack(per_real)  # (realizations, grid, schemes, 2)
    means = stacked.mean(axis=0)

    rows = []
    for gi, value in enumerate(spec.grid):
        for si, scheme in enumerate(spec.schemes):
            rows.append(
                [float(value), scheme, float(means[gi, si, 0]), float(means[gi, si, 1]), spec.realizations]
            )
    header = [grid_column, "scheme", "mean_sum_rate_bits", "mean_radiated_power_mw", "realizations"]
    path = os.path.join(spec.out_dir, f"{out_name}.csv")
    _write_csv(path, [_resolved_comment(spec), f"seed: {spec.seed}"], header, rows)
    _write_manifest(spec, out_name)
    return path


def run_sweep_nonlinearity(spec: ExperimentSpec) -> str:
    """Ergodic weighted sum rate vs. cubic-to-linear PA coefficient ratio."""
    return _run_sweep(spec, GRID_COLUMNS[spec.kind], "sweep_nonlin")


def run_sweep_snr(spec: ExperimentSpec) -> str:
    """Ergodic weighted sum rate vs. SNR (noise set to p_tot / SNR)."""
    return _run_sweep(spec, GRID_COLUMNS[spec.kind], "sweep_snr")


def _convergence_one_realization(args: tuple[ExperimentSpec, int]) -> list[np.ndarray]:
    spec, index = args
    channels_rng = realization_rng(spec.seed, index, 0)
    base = spec.system
    channels = draw_channels(base, channels_rng)
    traces = []
    for snr_db in spec.grid:
        noise = noise_from_snr(base.p_tot, snr_db)
        cfg = base.with_updates(noise_user=noise, noise_sense=noise)
        with _failure_context(spec, index, "proposed_known", snr_db):
            traces.append(first_mo_trace(channels, cfg))
    return traces


def average_padded(traces: list[np.ndarray]) -> np.ndarray:
    """Mean of traces padded to a common length by their last values."""
    length = max(len(t) for t in traces)
    padded = np.stack([np.concatenate([t, np.full(length - len(t), t[-1])]) for t in traces])
    return padded.mean(axis=0)


def run_convergence(spec: ExperimentSpec) -> str:
    """Average the first manifold-ascent objective trace per SNR grid point."""
    os.makedirs(spec.out_dir, exist_ok=True)
    payloads = [(spec, i) for i in range(spec.realizations)]
    per_real = _map_over_realizations(spec, _convergence_one_realization, payloads)

    rows = []
    for si, snr_db in enumerate(spec.grid):
        averaged = average_padded([per_real[r][si] for r in range(spec.realizations)])
        for it, value in enumerate(averaged):
            rows.append([it, float(snr_db), float(value)])
    header = ["iteration", "snr_db", "mean_objective"]
    path = os.path.join(spec.out_dir, "convergence.csv")
    _write_csv(path, [_resolved_comment(spec), f"seed: {spec.seed}"], header, rows)
    _write_manifest(spec, "convergence")
    return path


def deterministic_single_path_channel(cfg: SystemConfig, user_angle_deg: float) -> ChannelRealization:
    """K=1, L=1 channel with unit path gain at a fixed angle (reproducible)."""
    if cfg.n_users != 1 or cfg.n_paths != 1:
        raise ConfigError("beam-pattern channel requires n_users=1 and n_paths=1")
    angle = np.radians(user_angle_deg)
    gain = np.array([[1.0 + 0.0j]])
    h = np.sqrt(cfg.n_tx) * steering_vector(angle, cfg.n_tx)
    return ChannelRealization(
        user_channels=h[None, :],
        path_angles=np.array([[angle]]),
        path_gains=gain,
        sense_steering=steering_vector(cfg.target_angle_rad, cfg.n_tx),
        target_angle_rad=cfg.target_angle_rad,
        target_gain=cfg.target_gain,
    )


def beam_patterns(F: np.ndarray, cfg: SystemConfig, angles_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(linear, nonlinear) radiated patterns in dB over the angle grid."""
    steer = np.stack([steering_vector(a, cfg.n_tx) for a in np.radians(angles_deg)])
    powers, nonlinear = probe_powers(F, steer.conj(), cfg.beta1, cfg.beta3)
    linear = np.sum(powers, axis=1)
    to_db = lambda p: np.maximum(10.0 * np.log10(np.maximum(p, 0.0) + 1e-300), DB_FLOOR)
    return to_db(linear), to_db(nonlinear)


def run_beam_pattern(spec: ExperimentSpec) -> str:
    """Linear and distortion beam patterns for the optimizer and the matched filter."""
    os.makedirs(spec.out_dir, exist_ok=True)
    cfg = spec.system
    channels = deterministic_single_path_channel(cfg, spec.user_angle_deg)
    angles = np.arange(0.0, ANGLE_MAX_DEG + spec.angle_step_deg / 2, spec.angle_step_deg)

    rows = []
    hybrid = _scheme_designer(channels, cfg, realization_rng(spec.seed, 0, 1))
    for scheme in spec.schemes:
        lin_db, nl_db = beam_patterns(hybrid(scheme, cfg), cfg, angles)
        for a, ld, nd in zip(angles, lin_db, nl_db):
            rows.append([float(a), scheme, float(ld), float(nd)])
    header = ["angle_deg", "scheme", "linear_db", "nonlinear_db"]
    path = os.path.join(spec.out_dir, "beam_pattern.csv")
    _write_csv(path, [_resolved_comment(spec), f"seed: {spec.seed}"], header, rows)
    _write_manifest(spec, "beam_pattern")
    return path


RUNNERS = {
    "sweep_nonlinearity": run_sweep_nonlinearity,
    "sweep_snr": run_sweep_snr,
    "convergence": run_convergence,
    "beam_pattern": run_beam_pattern,
}


def run_experiment(spec: ExperimentSpec) -> str:
    return RUNNERS[spec.kind](spec)
