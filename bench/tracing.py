"""Spans around every call into the package's layers.

install() replaces each public function of the layer modules, in every
package namespace that binds it, with a wrapper that records a span; the
untraced run installs nothing. uninstall() puts the originals back.

A span is [name, start, end, parent span index, op id, child time]. The
calls of one thread nest, so a span's direct children never overlap, and
self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("grid", "basis", "sampling", "solver", "diagnostics", "experiments")
# Every package namespace that may bind a layer function, so that calls
# between modules go through the wrappers too.
NAMESPACES = ("wl1approx",) + tuple("wl1approx." + m for m in LAYERS) \
    + ("wl1approx.cli",)


def _eval_table_cells(spec, K, t):
    return np.atleast_1d(np.asarray(t)).size * K


# Work counts recorded at a boundary. Each counter takes the arguments of
# the function it counts, under the same names.
COUNTERS = {"basis.eval_table": ("cells", _eval_table_cells)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                stat, count = counter
                self.counts[name + "." + stat] += count(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
        return wrapper

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module("wl1approx." + layer)
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = self._wrap(layer + "." + name, obj)
        for ns in NAMESPACES:
            mod = importlib.import_module(ns)
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in targets:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, targets[obj])

    def uninstall(self):
        while self._patched:
            mod, name, obj = self._patched.pop()
            setattr(mod, name, obj)

    @contextlib.contextmanager
    def op_span(self, op_id):
        """One op: a root span that the op's layer spans hang from."""
        self.op = op_id
        self._stack.append(len(self.spans))
        span = ["op", time.perf_counter(), 0.0, -1, op_id, 0.0]
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = -1

    def self_times(self) -> dict:
        out = defaultdict(float)
        for name, start, end, _parent, _op, child in self.spans:
            out[name] += end - start - child
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "child_s"], "spans": self.spans}, fh)

