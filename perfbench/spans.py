"""Span recorder for a traced spintrap CLI call.

Wraps the public functions named in ``TARGETS`` from outside the program:
each call records a span ``[name, start, end, parent, cpu_s]`` in memory,
and some calls add work counts derived from their arguments or result.
Nothing under ``src/`` is edited; the wrappers replace the module attributes
(and every ``from ... import`` alias inside the ``spintrap`` package) for the
lifetime of one interpreter.

A target that a later refactor removes is listed in ``absent`` and simply
not traced.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time

# module -> public functions that form the layer boundaries
TARGETS = {
    "cli": ("main",),
    "config": ("load_config",),
    "seqlang": ("parse", "compile_timeline"),
    "blochsim": ("run_timeline_by_channel", "nutation_curve", "apply_pulse"),
    "trapdyn": ("transient_response", "charge_signal"),
    "spectrum": ("simulate_field_sweep",),
    "fitkit": ("fit", "compare_models", "minimize"),
    "trace": ("write_trace_csv", "read_trace_csv"),
}


def _count_events(bound, result):
    return {"seqlang.events": len(result.events)}


def _count_trajectories(bound, result):
    # trajectories x hyperfine manifolds of this call; one call per sweep point
    labels = sys.modules["spintrap.spincore"].manifold_labels(bound["species"])
    return {"blochsim.traj_points": bound["ensemble"].n_trajectories * len(labels)}


def _count_points(prefix):
    def count(bound, result):
        return {f"{prefix}.points": len(result)}
    return count


def _count_minimize(bound, result):
    return {
        "fitkit.minimize.starts": 1,
        "fitkit.minimize.nfev": int(result.nfev),
        "fitkit.minimize.converged": int(bool(result.success)),
    }


def _count_write(bound, result):
    return {
        "trace.write_trace_csv.rows": len(bound["trace"]),
        "trace.write_trace_csv.bytes": os.path.getsize(bound["path"]),
    }


def _count_read(bound, result):
    return {"trace.read_trace_csv.rows": len(result)}


# target -> (counter names, function of (bound arguments, result) -> counts)
COUNTERS = {
    "seqlang.compile_timeline": (("seqlang.events",), _count_events),
    "blochsim.run_timeline_by_channel": (("blochsim.traj_points",), _count_trajectories),
    "trapdyn.transient_response": (("trapdyn.transient_response.points",),
                                   _count_points("trapdyn.transient_response")),
    "spectrum.simulate_field_sweep": (("spectrum.simulate_field_sweep.points",),
                                      _count_points("spectrum.simulate_field_sweep")),
    "fitkit.minimize": (("fitkit.minimize.starts", "fitkit.minimize.nfev",
                         "fitkit.minimize.converged"), _count_minimize),
    "trace.write_trace_csv": (("trace.write_trace_csv.rows", "trace.write_trace_csv.bytes"),
                              _count_write),
    "trace.read_trace_csv": (("trace.read_trace_csv.rows",), _count_read),
}


class SpanRecorder:
    """Collects spans and counters of one process; see :meth:`install`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name, func, counter):
        signature = inspect.signature(func) if counter else None

        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = [name, time.perf_counter(), None, parent, time.process_time()]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = time.process_time() - span[4]
                stack.pop()
            if counter:
                self._count(name, counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, counter, signature, args, kwargs, result):
        try:
            counts = counter(signature.bind(*args, **kwargs).arguments, result)
        except (AttributeError, KeyError, TypeError):
            # the function changed shape; its counts are reported absent
            self.absent.append(f"{name} counters")
            return
        with self._lock:
            for key, value in counts.items():
                self.counters[key] = self.counters.get(key, 0) + value

    def install(self) -> None:
        """Wrap every target in the already-imported ``spintrap`` package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spintrap" or n.startswith("spintrap."))]
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(f"spintrap.{module_name}")
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(module, function, None) if module else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapped = self._wrap(name, original, COUNTERS.get(name, ((), None))[1])
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def report(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "absent": sorted(set(self.absent))}
