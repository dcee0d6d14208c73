"""Benchmark of the dabf experiment CLI path: build_spec, then run_experiment.

    python3 bench/run.py --workload nonlin-ref --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced one-worker session with ``--trace 1``. Workloads are the YAML files
in ``bench/workloads``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = sorted(name[:-5] for name in os.listdir(os.path.join(BENCH, "workloads")) if name.endswith(".yaml"))
# Set-up is timed in this many fresh processes besides the measured one.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """Environment of every benchmark process: one BLAS thread, so pool workers do not oversubscribe."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def descendants(pid: int) -> list[int]:
    """Process ids below ``pid``, from the Linux /proc children lists."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                children = [int(child) for child in fh.read().split()]
        except FileNotFoundError:
            continue
        for child in children:
            found += [child, *descendants(child)]
    return found


def session(*args: str) -> dict:
    """Run bench/session.py in a child process and return its JSON result."""
    command = [sys.executable, os.path.join(BENCH, "session.py"), *args, "--t0", str(time.monotonic_ns())]
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        for pid in [*descendants(proc.pid), proc.pid]:  # the session's pool workers too
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.communicate()
        raise SystemExit(f"error: session did not finish within {CHILD_TIMEOUT_S} s")
    lines = stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: session exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "dabf")):
        raise SystemExit("error: src/dabf not found; run from the root of a dabf checkout")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = [session(*common, "--probe")["setup_s"] for _ in range(0 if args.trace else SETUP_PROBES)]
    result = session(*common, "--seconds", str(args.seconds), "--trace", str(args.trace))
    setup_samples.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
