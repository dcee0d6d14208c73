"""Capture of the designs behind every reported number, for the output checks.

The hooks replace names in ``dabf.experiments`` only, around the per-
realization task, the final metric evaluation of each scheme and the
convergence trace. Realization tasks may run in forked pool workers, so each
task writes what it saw to ``<directory>/<realization>.npz``, and the task
wrappers are module-level functions, which pickle by reference. The hooks
keep their state in this module because a forked worker inherits exactly
that.
"""

from __future__ import annotations

import os

import numpy as np

from dabf import experiments

_originals: dict = {}
_directory: str | None = None
_seen: list = []  # (channels, precoder or trace) of the running task
_selecting = 0  # > 0 while _known_pa_hybrid compares candidates


def install(directory: str) -> None:
    """Hook ``dabf.experiments`` so that each realization task saves its designs under ``directory``."""
    global _directory
    if _originals:
        raise RuntimeError("capture hooks are already installed")
    os.makedirs(directory, exist_ok=True)
    _directory = directory
    hooks = {
        "_sweep_one_realization": _sweep_one_realization,
        "_convergence_one_realization": _convergence_one_realization,
        "_known_pa_hybrid": _known_pa_hybrid,
        "evaluate_metrics": _evaluate_metrics,
        "first_mo_trace": _first_mo_trace,
    }
    for name, hook in hooks.items():
        _originals[name] = getattr(experiments, name)
        setattr(experiments, name, hook)


def uninstall() -> None:
    global _directory
    for name, original in _originals.items():
        setattr(experiments, name, original)
    _originals.clear()
    _directory = None


def _evaluate_metrics(channels, precoder, config):
    report = _originals["evaluate_metrics"](channels, precoder, config)
    if _selecting == 0:
        _seen.append((channels, np.array(precoder)))
    return report


def _known_pa_hybrid(*args, **kwargs):
    global _selecting
    _selecting += 1
    try:
        return _originals["_known_pa_hybrid"](*args, **kwargs)
    finally:
        _selecting -= 1


def _first_mo_trace(channels, config, *args, **kwargs):
    trace = _originals["first_mo_trace"](channels, config, *args, **kwargs)
    _seen.append((channels, np.array(trace)))
    return trace


def _save(index: int, **arrays) -> None:
    channels = _seen[0][0]
    np.savez(
        os.path.join(_directory, f"{index}.npz"),
        user_channels=channels.user_channels,
        sense_steering=channels.sense_steering,
        **arrays,
    )


def _sweep_one_realization(args):
    _seen.clear()
    out = _originals["_sweep_one_realization"](args)
    _save(args[1], designs=np.stack([design for _, design in _seen]))
    return out


def _convergence_one_realization(args):
    _seen.clear()
    out = _originals["_convergence_one_realization"](args)
    _save(args[1], **{f"trace_{i}": trace for i, (_, trace) in enumerate(_seen)})
    return out


def load(directory: str, realizations: int, grid: int, schemes: int) -> list[dict]:
    """Captured records in realization order; raises ValueError if one is missing or malformed."""
    records = []
    for index in range(realizations):
        path = os.path.join(directory, f"{index}.npz")
        if not os.path.exists(path):
            raise ValueError(f"no capture for realization {index}")
        with np.load(path) as data:
            record = {key: data[key] for key in data.files}
        if "designs" in record:
            designs = record["designs"]
            if designs.shape[0] != grid * schemes:
                raise ValueError(
                    f"realization {index}: {designs.shape[0]} final evaluations, expected {grid * schemes}"
                )
            record["designs"] = designs.reshape(grid, schemes, *designs.shape[1:])
        else:
            record["traces"] = [record[f"trace_{i}"] for i in range(grid)]
        records.append(record)
    return records
