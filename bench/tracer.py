"""Span tracer that wraps calls into shoalwave from outside the package.

Each target is a function, method or property of a shoalwave module. While
a Tracer is active, the target is replaced, everywhere the package binds
it, by a wrapper that records one span per call: name, start, end and the
span that was open in the same thread when the call began. Spans live in
typed arrays, one set per thread, so a batch run on a thread pool keeps
its own parent chains. Leaving the context puts every original back, so
a later untraced run in the same process makes no wrapper calls.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array

import numpy as np

# (span name, dotted owner inside the package, attribute). A span name's
# first component is the layer it is charged to.
TARGETS = (
    ("solver.run", "solver", "run"),
    ("solver.step", "solver", "step"),
    ("solver._rhs", "solver", "_rhs"),
    ("solver._hll", "solver", "_hll"),
    ("solver.write_outputs", "solver", "write_outputs"),
    ("riemann.compute", "riemann", "compute"),
    ("riemann._limit_sign", "riemann", "_limit_sign"),
    ("detector.find_critical_points", "detector", "find_critical_points"),
    ("detector.classify", "detector", "classify"),
    ("detector.tangent_match_residual", "detector", "tangent_match_residual"),
    ("detector.alert_nodes", "detector", "alert_nodes"),
    ("bathymetry.eval", "bathymetry.Flat", "eval"),
    ("bathymetry.eval", "bathymetry.Linear", "eval"),
    ("bathymetry.eval", "bathymetry.TanhSafe", "eval"),
    ("bathymetry.eval", "bathymetry.Sampled", "eval"),
    ("bathymetry.slope", "bathymetry.Flat", "slope"),
    ("bathymetry.slope", "bathymetry.Linear", "slope"),
    ("bathymetry.slope", "bathymetry.TanhSafe", "slope"),
    ("bathymetry.slope", "bathymetry.Sampled", "slope"),
    ("fields.Grid.x", "fields.Grid", "x"),
    ("fields.save_state", "fields", "save_state"),
    ("fields.load_state", "fields", "load_state"),
    ("cli.cmd_detect", "cli", "cmd_detect"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.build_bathymetry", "cli.ScenarioConfig", "build_bathymetry"),
    ("cli.build_initial", "cli.ScenarioConfig", "build_initial"),
)

LAYERS = ("solver", "riemann", "detector", "bathymetry", "fields", "cli")


class _ThreadSpans:
    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []


def _resolve(dotted):
    import shoalwave

    obj = shoalwave
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Context manager that records spans for every call into TARGETS."""

    def __init__(self):
        self.names = sorted({name for name, _, _ in TARGETS})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._patched = []

    def _spans(self) -> _ThreadSpans:
        spans = _ThreadSpans()
        with self._lock:
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _wrap(self, fn, name_id):
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = self._spans()
            stack = spans.stack
            idx = len(spans.names)
            spans.names.append(name_id)
            spans.parents.append(stack[-1] if stack else -1)
            spans.starts.append(0.0)
            spans.ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.starts[idx] = t0
                spans.ends[idx] = t1

        return traced

    def __enter__(self):
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "shoalwave" or name.startswith("shoalwave.")
        ]
        for name, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            name_id = self.names.index(name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, property):
                    new = property(self._wrap(raw.fget, name_id))
                else:
                    new = self._wrap(raw, name_id)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            new = self._wrap(original, name_id)
            # Modules that imported the function by name hold their own
            # binding; replace each one so every call site is traced.
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def span_count(self) -> int:
        return sum(len(t.names) for t in self._threads)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the same thread.
        """
        k = len(self.names)
        calls = np.zeros(k)
        incl = np.zeros(k)
        self_s = np.zeros(k)
        for t in self._threads:
            if not len(t.names):
                continue
            names = np.frombuffer(t.names, dtype=np.int32)
            parents = np.frombuffer(t.parents, dtype=np.int64)
            dur = np.frombuffer(t.ends, dtype=float) - np.frombuffer(t.starts, dtype=float)
            nested = parents >= 0
            child = np.bincount(parents[nested], weights=dur[nested], minlength=names.size)
            calls += np.bincount(names, minlength=k)
            incl += np.bincount(names, weights=dur, minlength=k)
            self_s += np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def layer_self_s(self) -> dict:
        """Busy (self) seconds per layer, from the spans charged to it."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.summary().items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return out

    def save(self, path) -> None:
        """Write every span as parallel arrays; thread i's parents index its own spans."""
        arrays = {"names": np.array(self.names)}
        for i, t in enumerate(self._threads):
            arrays["t{}_name".format(i)] = np.frombuffer(t.names, dtype=np.int32)
            arrays["t{}_parent".format(i)] = np.frombuffer(t.parents, dtype=np.int64)
            arrays["t{}_start".format(i)] = np.frombuffer(t.starts, dtype=float)
            arrays["t{}_end".format(i)] = np.frombuffer(t.ends, dtype=float)
        np.savez_compressed(path, **arrays)
