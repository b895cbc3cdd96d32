"""Span tracer that instruments martctrl from outside the package.

``Tracer.install`` replaces every public function defined in a martctrl
module, in each martctrl module namespace that holds a reference to it, by
a wrapper that records one span per call.  The ``controls_at`` methods of
the policy classes and ``AdjointSolution.y_eval`` are wrapped on their
classes.  Nothing under ``src/`` is edited; the rebinding lives only in the
traced process.

Spans nest through a per-thread parent stack.  A span's self time is its
duration minus the durations of the spans it directly encloses, so the self
times of all spans add up to the outermost span exactly once, even when
``y_eval`` chains recurse through earlier sweeps' policies.  Spans are
aggregated in memory per name (calls, total, self) and per (parent, child)
edge; ``export`` returns the aggregate when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# Submodules whose public functions are layer boundaries, and the label
# each one gets in metric names (metric names must start with a letter).
MODULES = {
    "hilbert": "hilbert",
    "martingale": "martingale",
    "_parallel": "parallel",
    "dynamics": "dynamics",
    "adjoint": "adjoint",
    "pmp": "pmp",
    "cli": "cli",
}

# Methods wrapped on their own classes: (module, class names, method).
METHODS = (
    ("dynamics", ("OpenLoopPolicy", "FeedbackPolicy", "SpikedPolicy"),
     "controls_at"),
    ("adjoint", ("AdjointSolution",), "y_eval"),
)


def _count_noise(counters, result):
    counters["martingale.noise_bytes"] += result.increments.nbytes


def _count_forward(counters, result):
    steps = result.grid.steps
    counters["dynamics.trajectory_bytes"] += result.states.nbytes
    counters["dynamics.grid_steps"] += steps
    counters["dynamics.path_steps"] += result.paths * steps


def _count_spiked(counters, result):
    k0, _ = result.spike.window(result.grid)
    steps = result.grid.steps - k0
    counters["dynamics.trajectory_bytes"] += result.states.nbytes
    counters["dynamics.grid_steps"] += steps
    counters["dynamics.path_steps"] += result.paths * steps


def _count_variational(counters, result):
    counters["dynamics.trajectory_bytes"] += result.states.nbytes


# Counters computed from the shapes a call returns (not measured traffic).
AFTER = {
    "martingale.sample_increments": _count_noise,
    "dynamics.integrate_forward": _count_forward,
    "dynamics.integrate_spiked": _count_spiked,
    "dynamics.integrate_variational": _count_variational,
}


class Tracer:
    """Aggregates spans and shape-derived counters for one process."""

    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.edges = {}      # (parent name, name) -> calls
        self.counters = {key: 0 for key in (
            "martingale.noise_bytes", "dynamics.trajectory_bytes",
            "dynamics.grid_steps", "dynamics.path_steps")}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, parent, total, self_time):
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += total
            entry[2] += self_time
            edge = (parent, name)
            self.edges[edge] = self.edges.get(edge, 0) + 1

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        after = AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]          # [name, time covered by children]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += total
                self._record(name, parent, total, total - frame[1])
            if after is not None:
                with self._lock:
                    after(self.counters, result)
            return result

        return wrapper

    def install(self):
        """Rebind martctrl's public functions and traced methods.

        Returns the number of namespace bindings replaced.
        """
        package = importlib.import_module("martctrl")
        modules = {short: importlib.import_module(f"martctrl.{short}")
                   for short in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                wrappers[obj] = self.wrap(f"{MODULES[short]}.{attr}", obj)
        rebound = 0
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])
                    rebound += 1
        for short, class_names, method in METHODS:
            for class_name in class_names:
                cls = getattr(modules[short], class_name)
                original = cls.__dict__[method]
                setattr(cls, method,
                        self.wrap(f"{MODULES[short]}.{method}", original))
                rebound += 1
        return rebound

    def export(self):
        """Plain-data snapshot of the aggregated spans and counters."""
        with self._lock:
            return {
                "stats": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in self.stats.items()},
                "edges": [[parent, name, calls]
                          for (parent, name), calls in self.edges.items()],
                "counters": dict(self.counters),
            }
