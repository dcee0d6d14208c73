"""One benchmark session in its own process: set-up, timed rounds, output checks.

``run.py`` starts this file as a child process, so that the resource usage
read here covers exactly this session and its pool workers. Set-up is timed
from the parent's clock reading ``--t0`` (a system-wide monotonic clock) to
the entry of ``run_experiment``. The last line of standard output is one
JSON object.

A round is one ``run_experiment`` call on the workload's spec. Rounds repeat
while the next one is expected to end within ``--seconds``; there is always
at least one. With ``--trace 1`` the session runs exactly two rounds with
one worker: the first untraced, the second traced, and reports the layer
metrics of the second plus the difference between the two.

    python3 bench/session.py --workload nonlin-ref --seed 1 --seconds 30 --trace 0 --t0 <ns>
    python3 bench/session.py --workload nonlin-ref --seed 1 --probe --t0 <ns>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Relative to the checkout root: the CSV records its output directory, and
# runs in different checkouts must write the same bytes.
OUT = os.path.join("bench", "out")


def config_path(workload: str) -> str:
    return os.path.join(BENCH, "workloads", f"{workload}.yaml")


def setup(workload: str, seed: int, workers: int | None = None):
    """Imports, config parse and ``build_spec``: what a ``dabf`` user pays before the run."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dabf.cli import parse_config

    return parse_config(
        config_path(workload), seed=seed, out_dir=os.path.join(OUT, workload), workers=workers
    )


def read_csv(data: bytes) -> list[list[str]]:
    lines = data.decode("utf-8").splitlines()
    body = [line for line in lines if not line.startswith("#")]
    return [line.split(",") for line in body[1:]]


def source_digest(workload: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dabf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    with open(config_path(workload), "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


class Session:
    """Rounds of one workload and seed, with their operation counts and check failures.

    The benchmark's own modules are imported where used, after ``setup``, so
    that set-up time is what a ``dabf`` user pays.
    """

    def __init__(self, workload: str, seed: int, spec) -> None:
        import yaml

        self.workload, self.seed, self.spec = workload, seed, spec
        with open(config_path(workload), encoding="utf-8") as fh:
            self.config = yaml.safe_load(fh)
        self.grid, self.schemes = len(spec.grid), len(spec.schemes)
        per_realization = self.grid * (1 if spec.kind == "convergence" else self.schemes)
        self.operations = spec.realizations * per_realization
        self.capture_dir = os.path.join(OUT, f"capture-{os.getpid()}")
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.csv: bytes | None = None

    def round(self, spec, tracer=None) -> tuple[float, float] | None:
        """Run the experiment once and check its outputs; (wall s, CPU s), or None if it raised."""
        import capture
        from dabf import experiments

        shutil.rmtree(self.capture_dir, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        capture.install(self.capture_dir)
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            path = experiments.run_experiment(spec)
        except Exception:
            traceback.print_exc()
            self.attempted += self.operations
            self.failed += self.operations
            return None
        finally:
            wall = time.perf_counter() - start
            capture.uninstall()
            if tracer is not None:
                tracer.uninstall()
        cpu = sum(
            after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            for before, after in (
                (self_before, resource.getrusage(resource.RUSAGE_SELF)),
                (children_before, resource.getrusage(resource.RUSAGE_CHILDREN)),
            )
        )
        self.attempted += self.operations
        with open(path, "rb") as fh:
            self.verify(fh.read())
        return wall, cpu

    def verify(self, data: bytes) -> None:
        import capture
        import checks

        rows = read_csv(data)
        self.objective_bits = checks.objective_bits(rows, self.spec.kind)
        if self.csv is not None and data != self.csv:
            self.failures.append("CSV differs between two rounds of one seed")
        self.csv = data
        try:
            captures = capture.load(self.capture_dir, self.spec.realizations, self.grid, self.schemes)
        except ValueError as exc:
            self.failures.append(f"capture: {exc}")
            return
        if self.spec.kind == "convergence":
            self.failures += checks.check_convergence(rows, captures, self.config)
        else:
            self.failures += checks.check_sweep(rows, captures, self.config, self.spec.kind)

    def compare_with_earlier_runs(self, workers: int) -> None:
        """Keep CSV digests per seed in the checkout; a later run of the same code must match them.

        The full file is compared for one worker count; the data rows for
        any, since the CSV's comment line records the worker count.
        """
        store = os.path.join(OUT, "digests.json")
        digests = {}
        if os.path.exists(store):
            with open(store, encoding="utf-8") as fh:
                digests = json.load(fh)
        key = f"{self.workload}|seed={self.seed}|{source_digest(self.workload)}"
        rows = b"\n".join(line for line in self.csv.splitlines() if not line.startswith(b"#"))
        for name, blob in ((f"{key}|workers={workers}", self.csv), (f"{key}|rows", rows)):
            digest = hashlib.sha256(blob).hexdigest()
            if digests.setdefault(name, digest) != digest:
                self.failures.append(f"CSV differs from an earlier run of seed {self.seed} ({name})")
        temp = f"{store}.{os.getpid()}"
        with open(temp, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
        os.replace(temp, store)

    def result(self, metrics: dict) -> dict:
        for failure in self.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def measure(session: Session, seconds: float) -> dict:
    """Untraced rounds until the next one would overrun ``seconds``; end-to-end metrics."""
    spec = session.spec
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcome = session.round(spec)
        if outcome is not None:
            rounds.append(outcome)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    if not rounds:
        raise SystemExit("error: every round raised")
    walls = ", ".join(f"{wall:.3f}" for wall, _ in rounds)
    print(f"rounds of {spec.realizations} realization(s): {walls} s", file=sys.stderr)
    session.compare_with_earlier_runs(spec.workers)
    n = spec.realizations
    # Pool workers are reaped when the pool closes; RUSAGE_CHILDREN keeps the largest.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.workers > 1:
        peak_kb += spec.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return _as_metrics(
        {
            "s_per_realization": (statistics.median(w for w, _ in rounds) / n, "s"),
            "cpu_s_per_realization": (statistics.median(c for _, c in rounds) / n, "s"),
            "objective_bits": (session.objective_bits, "bit/s/Hz"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    )


def layer_metrics(tracer, realizations: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced round; counts and totals are per realization."""
    n = realizations

    def calls(*layers):
        return sum(tracer.calls[layer] for layer in layers)

    def us_per_call(*layers):
        count = calls(*layers)
        return sum(tracer.total_ns[layer] for layer in layers) / 1e3 / count if count else 0.0

    solve = tracer.facts["solver.optimize_full_digital"]
    cg = "solver.manifold_cg"
    refine = "decomposition.refine_digital"
    cg_objectives = tracer.edges[cg, "gradients.penalized_objective"]
    penalized = "gradients.penalized_objective"
    overhead = (traced_s - untraced_s) / n
    values = {
        "gradients.euclidean_gradient.calls": (calls("gradients.euclidean_gradient") / n, "count"),
        "gradients.euclidean_gradient.us_per_call": (us_per_call("gradients.euclidean_gradient"), "us"),
        "gradients.penalized_objective.calls": (calls(penalized) / n, "count"),
        "gradients.penalized_objective.self_us_per_call": (
            tracer.self_ns(penalized) / 1e3 / calls(penalized) if calls(penalized) else 0.0,
            "us",
        ),
        "metrics.link_terms.calls": (calls("metrics.link_terms") / n, "count"),
        "metrics.link_terms.us_per_call": (us_per_call("metrics.link_terms"), "us"),
        "metrics.evaluate_metrics.calls": (calls("metrics.evaluate_metrics") / n, "count"),
        "solver.optimize_full_digital.calls": (calls("solver.optimize_full_digital") / n, "count"),
        "solver.optimize_full_digital.s_per_call": (us_per_call("solver.optimize_full_digital") / 1e6, "s"),
        "solver.optimize_full_digital.converged": (solve["converged"] / n, "count"),
        "solver.optimize_full_digital.outer_rounds": (solve["outer_rounds"] / n, "count"),
        "solver.optimize_full_digital.growth_rounds": (solve["growth_rounds"] / n, "count"),
        "solver.optimize_full_digital.rescues": (solve["rescues"] / n, "count"),
        "solver.manifold_cg.calls": (calls(cg) / n, "count"),
        "solver.manifold_cg.self_s": (tracer.self_ns(cg) / 1e9 / n, "s"),
        "solver.manifold_cg.accepted_steps": (tracer.facts[cg]["accepted_steps"] / n, "count"),
        "solver.manifold_cg.accept_ratio": (
            tracer.facts[cg]["accepted_steps"] / cg_objectives if cg_objectives else 0.0,
            "ratio",
        ),
        "solver.moment_updates.us_per_call": (
            us_per_call("solver.update_quartic_moment", "solver.update_sextic_moment"),
            "us",
        ),
        "distortion.power_match_scale.calls": (calls("distortion.power_match_scale") / n, "count"),
        "distortion.power_match_scale.us_per_call": (us_per_call("distortion.power_match_scale"), "us"),
        "decomposition.refine_digital.calls": (calls(refine) / n, "count"),
        "decomposition.refine_digital.s_per_call": (us_per_call(refine) / 1e6, "s"),
        "decomposition.refine_digital.gradient_calls": (
            tracer.edges[refine, "gradients.euclidean_gradient"] / n,
            "count",
        ),
        "decomposition.refine_digital.power_match_calls": (
            tracer.edges[refine, "distortion.power_match_scale"] / n,
            "count",
        ),
        "decomposition.decompose.calls": (calls("decomposition.decompose") / n, "count"),
        "decomposition.decompose.us_per_call": (us_per_call("decomposition.decompose"), "us"),
        "decomposition.decompose.iterations": (
            tracer.facts["decomposition.decompose"]["iterations"] / n,
            "count",
        ),
        "baselines.pa_blind_precoder.calls": (calls("baselines.pa_blind_precoder") / n, "count"),
        "baselines.classical.us_per_call": (
            us_per_call("baselines.mrt_precoder", "baselines.zf_precoder", "baselines.rbf_precoder"),
            "us",
        ),
        "channel.draw_channels.us_per_call": (us_per_call("channel.draw_channels"), "us"),
        "cli.build_spec.us": (tracer.total_ns["cli.build_spec"] / 1e3, "us"),
        "experiments.self_s": (tracer.self_ns("experiments.run_experiment") / 1e9 / n, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_pct": (100.0 * overhead * n / untraced_s, "%"),
    }
    return _as_metrics(values)


def completeness_failures(tracer) -> list[str]:
    """Every manifold_cg call must be one outer round or one rescue of a solve, or a convergence trace."""
    solve = tracer.facts["solver.optimize_full_digital"]
    in_solves = tracer.edges["solver.optimize_full_digital", "solver.manifold_cg"]
    in_traces = tracer.edges["solver.first_mo_trace", "solver.manifold_cg"]
    expected = solve["outer_rounds"] + solve["rescues"]
    failures = []
    if in_solves != expected:
        failures.append(f"trace: {in_solves} manifold_cg calls in solves, but {expected} outer rounds + rescues")
    if tracer.calls["solver.manifold_cg"] != in_solves + in_traces:
        failures.append("trace: manifold_cg called outside optimize_full_digital and first_mo_trace")
    return failures


def measure_layers(session: Session, workload: str, seed: int) -> dict:
    """One untraced and one traced round with one worker; per-layer metrics of the traced one."""
    import tracer as tracing

    untraced = session.round(session.spec)
    trace = tracing.Tracer()
    trace.install()
    try:  # set up again under the tracer, for cli.build_spec.us
        spec = setup(workload, seed, workers=1)
    finally:
        trace.uninstall()
    traced = session.round(spec, trace)
    if untraced is None or traced is None:
        raise SystemExit("error: a round raised")
    print(f"untraced round {untraced[0]:.3f} s, traced round {traced[0]:.3f} s", file=sys.stderr)
    session.failures += completeness_failures(trace)
    session.compare_with_earlier_runs(1)
    return layer_metrics(trace, spec.realizations, untraced[0], traced[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True, help="parent's time.monotonic_ns() at spawn")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    workers = 1 if args.trace else None
    spec = setup(args.workload, args.seed, workers)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    session = Session(args.workload, args.seed, spec)
    try:
        if args.trace:
            metrics = measure_layers(session, args.workload, args.seed)
        else:
            metrics = measure(session, args.seconds)
    finally:
        shutil.rmtree(session.capture_dir, ignore_errors=True)
    result = session.result(metrics)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
