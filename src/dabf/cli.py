"""Command-line entry points and experiment-config ingestion.

Config files are YAML with nested sections. Unknown keys, values of the
wrong type and sections or flags the experiment does not read are rejected,
so a typo cannot silently fall back to a default. The subcommands and every
per-experiment default (the reference operating points) come from
``experiments.KINDS``, so the minimal config is just the experiment kind (or
nothing at all when using the subcommands).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

import yaml

from .config import ConfigError, SystemConfig, dbm_to_mw, noise_from_snr, require_int, require_real
from .experiments import KINDS, ExperimentError, ExperimentSpec, run_experiment

_COMPLEX_KEYS = {"beta1", "beta3", "target_gain"}
_REAL_KEYS = {"p_tot_dbm", "snr_db", "noise_sense_mw", "weight_comm", "weight_sense", "target_angle_deg"}
_SYSTEM_KEYS = {"n_tx", "n_rf", "n_users", "n_paths", "noise_user_mw"} | _COMPLEX_KEYS | _REAL_KEYS

_TOP_KEYS = {"experiment", "system", "sweep", "beam", "output", "schemes", "seed", "workers"}


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
        return complex(require_real(value[0], f"{key}[0]"), require_real(value[1], f"{key}[1]"))
    raise ConfigError(f"{key}: expected number, 're+imj' string, or [re, im] pair, got {value!r}")


def _require_list(value: Any, key: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _load_yaml(path: str | None) -> dict:
    if path is None:
        return {}
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
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    defaults = KINDS[kind]
    raw = dict(raw or {})
    _reject_unknown(raw, _TOP_KEYS, "config root")
    declared = raw.get("experiment")
    if declared is not None and declared != kind:
        raise ConfigError(f"config declares experiment {declared!r} but {kind!r} was requested")
    for section in ("sweep", "beam"):
        if section in raw and section != defaults.section:
            raise ConfigError(f"{kind} does not read the {section} section")
    if realizations is not None and defaults.section != "sweep":
        raise ConfigError(f"{kind} does not read realizations: it runs once")

    system_raw = dict(raw.get("system") or {})
    _reject_unknown(system_raw, _SYSTEM_KEYS, "system section")
    merged = dict(defaults.system)
    merged.update(system_raw)
    for key, value in merged.items():
        if key in _COMPLEX_KEYS:
            merged[key] = _as_complex(value, key)
        elif key in _REAL_KEYS:
            merged[key] = require_real(value, key)

    p_tot = dbm_to_mw(merged.pop("p_tot_dbm"))
    noise = noise_from_snr(p_tot, merged.pop("snr_db"))
    noise_user = merged.pop("noise_user_mw", noise)
    noise_sense = merged.pop("noise_sense_mw", noise)
    users = noise_user if isinstance(noise_user, (list, tuple)) else [noise_user]
    system = SystemConfig(
        p_tot=p_tot,
        noise_user=tuple(require_real(v, "noise_user_mw") for v in users),
        noise_sense=noise_sense,
        **merged,
    )

    sweep_raw = dict(raw.get("sweep") or {})
    _reject_unknown(sweep_raw, {"grid", "realizations"}, "sweep section")
    grid_raw = _require_list(sweep_raw.get("grid", defaults.grid), "sweep grid")
    if any(isinstance(v, bool) for v in grid_raw):
        raise ConfigError(f"grid values must be numbers, got {grid_raw!r}")
    grid = [require_real(v, f"grid[{i}]") for i, v in enumerate(grid_raw)]
    n_real = sweep_raw.get("realizations", defaults.realizations)

    beam_raw = dict(raw.get("beam") or {})
    _reject_unknown(beam_raw, {"user_angle_deg", "angle_step_deg"}, "beam section")
    beam = {key: require_real(value, key) for key, value in beam_raw.items()}

    output_raw = dict(raw.get("output") or {})
    _reject_unknown(output_raw, {"dir"}, "output section")

    schemes = raw.get("schemes", defaults.schemes)
    if isinstance(schemes, str):
        schemes = [schemes]
    schemes = _require_list(schemes, "schemes")

    return ExperimentSpec(
        kind=kind,
        system=system,
        grid=tuple(grid),
        realizations=require_int(realizations if realizations is not None else n_real, "realizations"),
        out_dir=str(out_dir if out_dir is not None else output_raw.get("dir", "results")),
        schemes=tuple(schemes),
        workers=require_int(workers if workers is not None else raw.get("workers", 1), "workers"),
        seed=require_int(seed if seed is not None else raw.get("seed", 0), "seed"),
        **beam,
    )


def parse_config(path: str | None, kind: str | None = None, **overrides) -> ExperimentSpec:
    """Load a YAML experiment config into a fully validated spec.

    ``kind`` (usually from the CLI subcommand) takes precedence; a config
    lacking the ``experiment`` key must be given one. No ``path`` is an
    empty config.
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
    for name, kind in KINDS.items():
        p = sub.add_parser(kind.command, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed override")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=None, help="parallel worker count")
        p.add_argument("--realizations", type=int, default=None, help="channel realization count")
        p.set_defaults(kind=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        spec = parse_config(
            args.config,
            args.kind,
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
