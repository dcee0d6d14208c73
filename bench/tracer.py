"""Outside-in layer trace of ``dabf``.

Every public function of every ``dabf`` module is wrapped under every name
a ``dabf`` module binds it to (``solver`` and ``baselines`` import by name,
and ``refine_digital`` imports ``.gradients`` at call time, which then finds
the wrapper). A span is a call of a wrapped function; its parent is the
innermost wrapped call still open. Spans are folded into totals as they
close, so memory stays flat over the hundreds of thousands of calls of one
realization:

* per layer: calls, total time, and time covered by child spans;
* per (parent, layer) pair: calls, so work can be split by its caller;
* per layer: facts read from return values (solver rounds, CG steps,
  factorization iterations).

The trace runs in one process; pool workers would not report back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import dabf


def _solve_facts(result) -> dict:
    diag = result[1]
    return {
        "converged": int(diag.converged),
        "outer_rounds": len(diag.records),
        "growth_rounds": diag.growth_rounds,
        "rescues": diag.rescues,
    }


_FACTS = {
    "solver.optimize_full_digital": _solve_facts,
    "solver.manifold_cg": lambda result: {"accepted_steps": len(result[1]) - 1},
    "decomposition.decompose": lambda result: {"iterations": len(result[2])},
}


def dabf_modules() -> list:
    names = sorted(m.name for m in pkgutil.iter_modules(dabf.__path__))
    return [dabf] + [importlib.import_module(f"dabf.{name}") for name in names]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.child_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.facts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # open spans: [layer, child time so far]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Replace every binding of every public ``dabf`` function with a traced wrapper."""
        modules = dabf_modules()
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        facts = _FACTS.get(layer)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span = [layer, 0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[layer] += 1
                self.total_ns[layer] += elapsed
                self.child_ns[layer] += span[1]
                self.edges[parent, layer] += 1
            if facts is not None:
                for key, value in facts(result).items():
                    self.facts[layer][key] += value
            return result

        return traced

    def self_ns(self, layer: str) -> int:
        return self.total_ns[layer] - self.child_ns[layer]
