"""Experiment kinds, their realization tasks and the one result writer.

``KINDS`` holds every fact of each experiment kind: its CLI subcommand, its
output file stem, its grid column, its reference-point defaults and the
function that turns a spec into CSV rows. ``run_experiment`` is the only
place that writes results: one UTF-8 CSV per experiment plus a manifest of
the fully resolved parameters. The pooled kinds fan out over seeded channel
realizations (optionally across a process pool) and reduce in realization
order, so reruns with the same configuration and seed produce byte-identical
data rows regardless of the worker count. A design or evaluation that raises
inside a realization task surfaces as an ``ExperimentError`` naming the
seed, realization, scheme and grid point.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import mrt_precoder, pa_blind_precoder, rbf_precoder, zf_precoder
from .channel import ChannelRealization, draw_channels, steering_vector
from .config import ConfigError, SystemConfig, noise_from_snr
from .decomposition import decompose, match_hybrid_power, refine_digital
from .metrics import evaluate_metrics, probe_powers
from .solver import first_mo_trace, optimize_full_digital

SCHEMES = ("proposed_known", "proposed_unknown", "mrt", "zf", "rbf")

DB_FLOOR = -200.0
ANGLE_MAX_DEG = 180.0


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
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.realizations < 1:
            raise ConfigError("realizations must be at least 1")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must be non-empty")
        if list(self.grid) != sorted(self.grid):
            raise ConfigError("sweep grid must be sorted ascending")
        if self.kind == "sweep_nonlinearity" and self.grid[0] < 0.0:
            raise ConfigError(f"rho must be non-negative, got {self.grid[0]!r}")
        if self.kind == "convergence" and self.schemes != ("proposed_known",):
            raise ConfigError(f"convergence traces proposed_known only; got schemes {list(self.schemes)}")
        if len(self.schemes) == 0:
            raise ConfigError("scheme list must be non-empty")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; valid: {', '.join(SCHEMES)}")
            if s in self.schemes[:i]:
                raise ConfigError(f"scheme {s!r} is listed twice")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
            f"{KINDS[spec.kind].column} = {value!r}: {type(exc).__name__}: {exc}"
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


def _grid_config(spec: ExperimentSpec, value: float) -> SystemConfig:
    """The system at one grid point: cubic coefficient scaled to rho, or noise set to p_tot / SNR."""
    base = spec.system
    if spec.kind == "sweep_nonlinearity":
        return base.with_updates(beta3=scaled_cubic_coefficient(base.beta1, base.beta3, value))
    noise = noise_from_snr(base.p_tot, value)
    return base.with_updates(noise_user=noise, noise_sense=noise)


def _known_pa_hybrid(channels: ChannelRealization, cfg: SystemConfig, candidates: tuple[np.ndarray, ...]) -> np.ndarray:
    """Best distortion-aware hybrid over two analog-phase sources.

    The optimizer's precoder carries strongly non-uniform per-antenna
    amplitudes that the subarray structure represents poorly, so its
    factorization can inherit weak analog phases. The linear design's
    factorization is a second, often better-conditioned source. The
    transmitter knows its amplifier model, so it evaluates both refined
    candidates (the hybrids of the two factorizations, each refined under
    the true amplifier) and keeps the better one.
    """
    return max(candidates, key=lambda H: evaluate_metrics(channels, H, cfg).weighted_objective)


def _lockstep(members: dict, batch: Callable[[], np.ndarray], alone: Callable, where) -> dict:
    """Each member's result of ``batch()``, one stacked run of every member of ``members`` (member -> report slot).

    A batch that raises cannot say which member failed, so then each member
    runs alone with ``alone(member)``, in order, inside ``where(*slot)`` of
    the first report slot that needs it; a member run alone gives the result
    it has in the batch.
    """
    if not members:
        return {}
    try:
        results = batch()
    except Exception:  # rerun one at a time below, where a failure is named
        results = []
        for member, slot in members.items():
            with where(*slot):
                results.append(alone(member))
    return dict(zip(members, results))


def _scheme_designer(
    channels: ChannelRealization,
    base: SystemConfig,
    rbf_rng: np.random.Generator,
    configs: list[SystemConfig],
    schemes: tuple[str, ...],
    where=lambda gi, scheme: nullcontext(),
):
    """Function ``(grid index, scheme) -> reported hybrid`` for one channel realization at the grid configs ``configs``.

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

    The optimizer-driven schemes are planned for the whole grid before any
    report, as two batches of lockstep ascents on the realization's
    channels. One ``optimize_full_digital`` call runs every full-digital
    design (one PA-blind design per distinct linear config, one
    distortion-aware design per grid point with ``beta3 != 0``), and
    ``decompose`` factors each. One ``refine_digital`` call then runs every
    refinement: ``proposed_unknown``'s, and both ``_known_pa_hybrid``
    candidates of each distortion-aware grid point. ``where(grid index,
    scheme)`` is the failure context of a report slot (see ``_lockstep``).
    """
    memo: dict = {}
    classical = {
        "mrt": lambda: mrt_precoder(channels, base),
        "zf": lambda: zf_precoder(channels, base),
        "rbf": lambda: rbf_precoder(base, rbf_rng),
    }
    linear = [cfg.with_updates(beta3=0j) for cfg in configs]

    # Each ascent, keyed by what it depends on, with the first report slot
    # that needs it; slots in report order, a slot's ascents in the order it
    # uses them. A design is keyed by its config (the linear one for the
    # PA-blind design), a refinement by the config of the design it factors
    # and its design model.
    designs: dict = {}
    refinements: dict = {}
    for gi, cfg in enumerate(configs):
        for scheme in schemes:
            if scheme in classical:
                continue
            slot = (gi, scheme)
            designs.setdefault(linear[gi], slot)
            if scheme == "proposed_known" and cfg.beta3 != 0:
                designs.setdefault(cfg, slot)
                refinements.setdefault((cfg, cfg), slot)
                refinements.setdefault((linear[gi], cfg), slot)
            else:
                refinements.setdefault((linear[gi], linear[gi]), slot)

    def design_alone(cfg: SystemConfig) -> np.ndarray:
        design = pa_blind_precoder if cfg.beta3 == 0 else optimize_full_digital
        return design(channels, cfg)[0].full_digital

    full = _lockstep(
        designs, lambda: optimize_full_digital(channels, list(designs))[0].full_digital, design_alone, where
    )
    factors = {}
    for cfg, slot in designs.items():
        with where(*slot):
            factors[cfg] = decompose(full[cfg], base.n_rf)[:2]

    def refine_all() -> np.ndarray:
        F_As, F_Ds = zip(*(factors[design] for design, _ in refinements))
        return refine_digital(np.array(F_As), np.array(F_Ds), channels, [model for _, model in refinements])

    refined = _lockstep(
        refinements, refine_all, lambda key: refine_digital(*factors[key[0]], channels, key[1]), where
    )
    hybrids = {key: factors[key[0]][0] @ refined[key] for key in refinements}

    def once(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def hybrid(gi: int, scheme: str) -> np.ndarray:
        cfg = configs[gi]
        if scheme in classical:
            F_A, F_D, _ = once(scheme, lambda: decompose(classical[scheme](), base.n_rf))
            return F_A @ match_hybrid_power(F_A, F_D, cfg)
        if scheme == "proposed_known" and cfg.beta3 != 0:
            return _known_pa_hybrid(channels, cfg, (hybrids[(cfg, cfg)], hybrids[(linear[gi], cfg)]))
        return hybrids[(linear[gi], linear[gi])]

    return hybrid


def _sweep_one_realization(args: tuple[ExperimentSpec, int]) -> np.ndarray:
    """(objective, radiated power) per (grid point, scheme) for one realization.

    Channel realizations are shared by every scheme and every grid point of
    the sweep (paired comparison).
    """
    spec, index = args
    base = spec.system
    channels = draw_channels(base, realization_rng(spec.seed, index, 0))
    configs = [_grid_config(spec, value) for value in spec.grid]

    def where(gi: int, scheme: str):
        return _failure_context(spec, index, scheme, spec.grid[gi])

    hybrid = _scheme_designer(channels, base, realization_rng(spec.seed, index, 1), configs, spec.schemes, where)
    out = np.zeros((len(spec.grid), len(spec.schemes), 2))
    for gi, cfg in enumerate(configs):
        for si, scheme in enumerate(spec.schemes):
            with where(gi, scheme):
                report = evaluate_metrics(channels, hybrid(gi, scheme), cfg)
            out[gi, si, 0] = report.weighted_objective
            out[gi, si, 1] = report.radiated_power
    return out


def _convergence_one_realization(args: tuple[ExperimentSpec, int]) -> list[np.ndarray]:
    spec, index = args
    channels = draw_channels(spec.system, realization_rng(spec.seed, index, 0))
    traces = []
    for snr_db in spec.grid:
        cfg = _grid_config(spec, snr_db)
        with _failure_context(spec, index, "proposed_known", snr_db):
            traces.append(first_mo_trace(channels, cfg))
    return traces


def _map_over_realizations(spec: ExperimentSpec, task) -> list:
    """``task((spec, index))`` for every realization, in realization order."""
    payloads = [(spec, index) for index in range(spec.realizations)]
    workers = min(spec.workers, len(payloads))  # a pool forks all its workers at the first submit
    if workers == 1:
        return [task(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, payloads))


def _sweep_rows(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Ergodic weighted sum rate and radiated power per (grid point, scheme)."""
    per_real = _map_over_realizations(spec, _sweep_one_realization)
    means = np.stack(per_real).mean(axis=0)  # (grid, schemes, 2)
    rows = []
    for gi, value in enumerate(spec.grid):
        for si, scheme in enumerate(spec.schemes):
            rows.append(
                [float(value), scheme, float(means[gi, si, 0]), float(means[gi, si, 1]), spec.realizations]
            )
    column = KINDS[spec.kind].column
    return [column, "scheme", "mean_sum_rate_bits", "mean_radiated_power_mw", "realizations"], rows


def average_padded(traces: list[np.ndarray]) -> np.ndarray:
    """Mean of traces padded to a common length by their last values."""
    length = max(len(t) for t in traces)
    padded = np.stack([np.concatenate([t, np.full(length - len(t), t[-1])]) for t in traces])
    return padded.mean(axis=0)


def _convergence_rows(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """The first manifold-ascent objective trace per SNR grid point, averaged over realizations."""
    per_real = _map_over_realizations(spec, _convergence_one_realization)
    rows = []
    for si, snr_db in enumerate(spec.grid):
        averaged = average_padded([per_real[r][si] for r in range(spec.realizations)])
        for it, value in enumerate(averaged):
            rows.append([it, float(snr_db), float(value)])
    return ["iteration", KINDS[spec.kind].column, "mean_objective"], rows


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


def _beam_pattern_rows(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Linear and distortion beam patterns of each scheme's hybrid on a single-path channel."""
    cfg = spec.system
    channels = deterministic_single_path_channel(cfg, spec.user_angle_deg)
    angles = np.arange(0.0, ANGLE_MAX_DEG + spec.angle_step_deg / 2, spec.angle_step_deg)

    rows = []
    hybrid = _scheme_designer(channels, cfg, realization_rng(spec.seed, 0, 1), [cfg], spec.schemes)
    for scheme in spec.schemes:
        lin_db, nl_db = beam_patterns(hybrid(0, scheme), cfg, angles)
        for a, ld, nd in zip(angles, lin_db, nl_db):
            rows.append([float(a), scheme, float(ld), float(nd)])
    return ["angle_deg", "scheme", "linear_db", "nonlinear_db"], rows


@dataclass(frozen=True)
class ExperimentKind:
    """Every fact of one experiment kind; ``rows`` turns its spec into ``(header, rows)``.

    ``system`` holds config-file keys (dBm, dB). ``section`` is the config
    section, besides the common ones, that the kind reads: ``sweep`` (grid
    and realizations) or ``beam`` (angles). The row builders look up the
    realization tasks when called, so a task replaced on this module (as
    ``bench/capture.py`` does) is the one that runs.
    """

    command: str
    stem: str
    column: str | None
    rows: Callable[[ExperimentSpec], tuple[list[str], list[list]]]
    system: dict
    grid: tuple[float, ...]
    realizations: int
    schemes: tuple[str, ...]
    section: str


_REFERENCE_ARRAY = dict(n_tx=64, n_rf=16, n_users=2, n_paths=5, p_tot_dbm=13.0, snr_db=20.0)

KINDS = {
    "sweep_nonlinearity": ExperimentKind(
        command="sweep-nonlin", stem="sweep_nonlin", column="rho", rows=_sweep_rows,
        system=_REFERENCE_ARRAY, grid=tuple(round(0.025 * i, 6) for i in range(13)),  # 0 .. 0.30
        realizations=1000, schemes=SCHEMES, section="sweep",
    ),
    "sweep_snr": ExperimentKind(
        command="sweep-snr", stem="sweep_snr", column="snr_db", rows=_sweep_rows,
        system=_REFERENCE_ARRAY, grid=tuple(float(v) for v in range(-20, 30, 5)),
        realizations=1000, schemes=SCHEMES, section="sweep",
    ),
    "convergence": ExperimentKind(
        command="convergence", stem="convergence", column="snr_db", rows=_convergence_rows,
        system=dict(n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot_dbm=13.0, snr_db=20.0), grid=(0.0, 10.0, 20.0),
        realizations=100, schemes=("proposed_known",), section="sweep",
    ),
    "beam_pattern": ExperimentKind(
        command="beam-pattern", stem="beam_pattern", column=None, rows=_beam_pattern_rows,
        system=dict(n_tx=16, n_rf=4, n_users=1, n_paths=1, p_tot_dbm=20.0, snr_db=25.0), grid=(106.0,),
        realizations=1, schemes=("proposed_known", "mrt"), section="beam",
    ),
}


def _resolved_comment(spec: ExperimentSpec) -> str:
    payload = dataclasses.asdict(spec)
    payload["system"]["beta1"] = str(spec.system.beta1)
    payload["system"]["beta3"] = str(spec.system.beta3)
    payload["system"]["target_gain"] = str(spec.system.target_gain)
    return f"config: {payload}"


def _write_lines(path: str, lines: list[str], what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    except OSError as exc:
        raise OSError(f"failed to write {what} {path!r}: {exc}") from exc


def run_experiment(spec: ExperimentSpec) -> str:
    """Run ``spec``; write ``<stem>.csv`` and ``<stem>-manifest.txt`` in ``spec.out_dir``.

    The CSV holds two comment lines (the resolved configuration and the
    seed), the header and the rows. Returns the CSV path.
    """
    kind = KINDS[spec.kind]
    os.makedirs(spec.out_dir, exist_ok=True)
    header, rows = kind.rows(spec)
    path = os.path.join(spec.out_dir, f"{kind.stem}.csv")
    csv = [f"# {_resolved_comment(spec)}", f"# seed: {spec.seed}", ",".join(header)]
    _write_lines(path, csv + [",".join(map(str, row)) for row in rows], "CSV")
    manifest = [
        f"experiment: {spec.kind}",
        f"seed: {spec.seed}",
        f"workers: {spec.workers}",
        f"realizations: {spec.realizations}",
        f"grid: {list(spec.grid)}",
        f"schemes: {list(spec.schemes)}",
        f"system: {spec.system}",
    ]
    if kind.section == "beam":
        manifest += [f"user_angle_deg: {spec.user_angle_deg}", f"angle_step_deg: {spec.angle_step_deg}"]
    _write_lines(os.path.join(spec.out_dir, f"{kind.stem}-manifest.txt"), manifest, "manifest")
    return path
