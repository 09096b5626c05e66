"""Outside-in tracing of the six weakfrenet layers.

Every public function of cli, curves, polygonal, sphere, weak and forces is
replaced, in every weakfrenet module namespace that bound it, by a wrapper
that records a span (name, start, end, parent).  The curves that make_curve
returns get their `frame` callable wrapped the same way, as `curves.frame`.
Spans stay in memory while the traced commands run; self time, call counts
and the work counts below are computed from them afterwards.

Nothing in a layer queues work, so a span is all busy time: there is no
wait time to report.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "weakfrenet"
LAYERS = ("cli", "curves", "polygonal", "sphere", "weak", "forces")


class Tracer:
    """Span recorder for the public functions of the layer modules.

    Wrappers are installed only inside `installed()`, so untraced commands
    run the program's own functions.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._polygonals = []  # kept alive so their ids stay distinct
        self._wrappers = {}  # id(original) -> wrapper
        hooks = {
            "curves.inscribe": self._on_inscribe,
            "curves.make_curve": self._on_make_curve,
            "sphere.sphere_distance": self._on_sphere_distance,
            "polygonal.discrete_frenet": self._on_discrete_frenet,
        }
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    qual = f"{layer}.{name}"
                    self._wrappers[id(obj)] = self._wrap(qual, obj, hooks.get(qual))

    # -- work counters, called with (args, kwargs, result) -------------------

    def _on_inscribe(self, args, kwargs, result):
        params = args[1] if len(args) > 1 else kwargs["params"]
        self.counts["curves.inscribe.cells"] += len(params) - 1

    def _on_make_curve(self, args, kwargs, result):
        if getattr(result, "frame", None) is not None:
            result.frame = self._wrap("curves.frame", result.frame, self._on_frame)

    def _on_frame(self, args, kwargs, result):
        self.counts["curves.frame.points"] += int(np.size(args[0]))

    def _on_sphere_distance(self, args, kwargs, result):
        self.counts["sphere.sphere_distance.rows"] += int(np.size(result))

    def _on_discrete_frenet(self, args, kwargs, result):
        P = args[0] if args else kwargs["P"]
        self.counts["polygonal.discrete_frenet.segments"] += int(P.n_segments)
        self._polygonals.append(P)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers in every weakfrenet namespace; restore on exit."""
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and id(obj) in self._wrappers:
                    namespace[name] = self._wrappers[id(obj)]
                    patched.append((namespace, name, obj))
        try:
            yield self
        finally:
            for namespace, name, obj in patched:
                namespace[name] = obj

    # -- results -------------------------------------------------------------

    def summary(self, n_commands):
        """Per-command metrics: calls and self time per function, self time
        per layer, and the work counts and ratios."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name] / n_commands
            out[f"{name}.self_s"] = self_s[name] / n_commands
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            ) / n_commands
        for key, value in self.counts.items():
            out[key] = value / n_commands
        frames = calls["curves.frame"]
        out["curves.frame.points_per_call"] = (
            self.counts["curves.frame.points"] / frames if frames else 0.0)
        dists = calls["sphere.sphere_distance"]
        out["sphere.sphere_distance.rows_per_call"] = (
            self.counts["sphere.sphere_distance.rows"] / dists if dists else 0.0)
        distinct = len({id(P) for P in self._polygonals})
        out["polygonal.discrete_frenet.per_polygonal"] = (
            calls["polygonal.discrete_frenet"] / distinct if distinct else 0.0)
        out["trace.spans"] = len(self.spans) / n_commands
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
