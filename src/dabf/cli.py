"""Command-line entry points and experiment-config ingestion.

Config files are YAML with nested sections; unknown keys are rejected so a
typo cannot silently fall back to a default. Every value has a per-experiment
default taken from the reference operating points, so the minimal config is
just the experiment kind (or nothing at all when using the subcommands).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

import numpy as np
import yaml

from .config import ConfigError, SolverOptions, SystemConfig, dbm_to_mw, noise_from_snr
from .experiments import EXPERIMENT_KINDS, SCHEMES, ExperimentError, ExperimentSpec, run_experiment

_SUBCOMMANDS = {
    "sweep-nonlin": "sweep_nonlinearity",
    "sweep-snr": "sweep_snr",
    "convergence": "convergence",
    "beam-pattern": "beam_pattern",
}

_SYSTEM_DEFAULTS: dict[str, dict[str, Any]] = {
    "sweep_nonlinearity": dict(n_tx=64, n_rf=16, n_users=2, n_paths=5, p_tot_dbm=13.0, snr_db=20.0),
    "sweep_snr": dict(n_tx=64, n_rf=16, n_users=2, n_paths=5, p_tot_dbm=13.0, snr_db=20.0),
    "convergence": dict(n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot_dbm=13.0, snr_db=20.0),
    "beam_pattern": dict(n_tx=16, n_rf=4, n_users=1, n_paths=1, p_tot_dbm=20.0, snr_db=25.0),
}

_GRID_DEFAULTS: dict[str, list[float]] = {
    "sweep_nonlinearity": [round(0.025 * i, 6) for i in range(13)],  # 0 .. 0.30
    "sweep_snr": [float(v) for v in range(-20, 30, 5)],
    "convergence": [0.0, 10.0, 20.0],
    "beam_pattern": [106.0],
}

_REALIZATION_DEFAULTS = {
    "sweep_nonlinearity": 1000,
    "sweep_snr": 1000,
    "convergence": 100,
    "beam_pattern": 1,
}

_SCHEME_DEFAULTS = {
    "sweep_nonlinearity": list(SCHEMES),
    "sweep_snr": list(SCHEMES),
    "convergence": ["proposed_known"],
    "beam_pattern": ["proposed_known", "mrt"],
}

_SYSTEM_KEYS = {
    "n_tx",
    "n_rf",
    "n_users",
    "n_paths",
    "p_tot_dbm",
    "snr_db",
    "noise_user_mw",
    "noise_sense_mw",
    "weight_comm",
    "weight_sense",
    "beta1",
    "beta3",
    "target_angle_deg",
    "target_gain",
    "penalty1",
    "penalty2",
}

_SOLVER_KEYS = {f.name for f in SolverOptions.__dataclass_fields__.values()}
_TOP_KEYS = {"experiment", "system", "solver", "sweep", "beam", "output", "schemes", "seed", "workers"}


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}"
        )


def _as_complex(value: Any, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse complex value {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{key}: expected number, 're+imj' string, or [re, im] pair, got {value!r}")


def _load_yaml(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path!r}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return raw


def build_spec(
    kind: str,
    raw: dict | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
    workers: int | None = None,
    realizations: int | None = None,
) -> ExperimentSpec:
    """Resolve a config mapping plus overrides into a validated spec."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    raw = dict(raw or {})
    _reject_unknown(raw, _TOP_KEYS, "config root")
    declared = raw.get("experiment")
    if declared is not None and declared != kind:
        raise ConfigError(f"config declares experiment {declared!r} but {kind!r} was requested")

    system_raw = dict(raw.get("system") or {})
    _reject_unknown(system_raw, _SYSTEM_KEYS, "system section")
    merged = dict(_SYSTEM_DEFAULTS[kind])
    merged.update(system_raw)

    p_tot = dbm_to_mw(float(merged.pop("p_tot_dbm")))
    snr_db = float(merged.pop("snr_db"))
    noise_user = merged.pop("noise_user_mw", None)
    noise_sense = merged.pop("noise_sense_mw", None)
    if noise_user is None:
        noise_user = noise_from_snr(p_tot, snr_db)
    if noise_sense is None:
        noise_sense = noise_from_snr(p_tot, snr_db)
    for key in ("beta1", "beta3", "target_gain"):
        if key in merged:
            merged[key] = _as_complex(merged[key], key)

    solver_raw = dict(raw.get("solver") or {})
    _reject_unknown(solver_raw, _SOLVER_KEYS, "solver section")
    solver = SolverOptions(**solver_raw)

    system = SystemConfig(
        p_tot=p_tot,
        noise_user=tuple(np.atleast_1d(np.asarray(noise_user, dtype=float))),
        noise_sense=float(noise_sense),
        solver=solver,
        **merged,
    )

    sweep_raw = dict(raw.get("sweep") or {})
    _reject_unknown(sweep_raw, {"grid", "realizations"}, "sweep section")
    grid = [float(v) for v in sweep_raw.get("grid", _GRID_DEFAULTS[kind])]
    n_real = int(sweep_raw.get("realizations", _REALIZATION_DEFAULTS[kind]))

    beam_raw = dict(raw.get("beam") or {})
    _reject_unknown(beam_raw, {"user_angle_deg", "angle_step_deg"}, "beam section")

    output_raw = dict(raw.get("output") or {})
    _reject_unknown(output_raw, {"dir"}, "output section")

    schemes = raw.get("schemes", _SCHEME_DEFAULTS[kind])
    if isinstance(schemes, str):
        schemes = [schemes]

    return ExperimentSpec(
        kind=kind,
        system=system,
        grid=tuple(grid),
        realizations=int(realizations if realizations is not None else n_real),
        out_dir=str(out_dir if out_dir is not None else output_raw.get("dir", "results")),
        schemes=tuple(schemes),
        workers=int(workers if workers is not None else raw.get("workers", 1)),
        seed=int(seed if seed is not None else raw.get("seed", 0)),
        user_angle_deg=float(beam_raw.get("user_angle_deg", 106.0)),
        angle_step_deg=float(beam_raw.get("angle_step_deg", 0.25)),
    )


def parse_config(path: str, kind: str | None = None, **overrides) -> ExperimentSpec:
    """Load a YAML experiment config into a fully validated spec.

    ``kind`` (usually from the CLI subcommand) takes precedence; a config
    lacking the ``experiment`` key must be given one.
    """
    raw = _load_yaml(path)
    if kind is None:
        kind = raw.get("experiment")
        if kind is None:
            raise ConfigError("config must declare 'experiment' when no subcommand kind is given")
    return build_spec(str(kind), raw, **overrides)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dabf",
        description="Distortion-aware hybrid beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        p.add_argument("--config", type=str, default=None, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed override")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=None, help="parallel worker count")
        p.add_argument("--realizations", type=int, default=None, help="channel realization count")
        p.set_defaults(kind=kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        raw = _load_yaml(args.config) if args.config else {}
        spec = build_spec(
            args.kind,
            raw,
            seed=args.seed,
            out_dir=args.out,
            workers=args.workers,
            realizations=args.realizations,
        )
        path = run_experiment(spec)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
