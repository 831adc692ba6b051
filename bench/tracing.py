"""Spans around primecavity's layer boundaries, recorded from outside the package.

The package's modules import each other's public functions by name
(``from .cavity import build_basis``), so a driver looks a function up in its
own module namespace at call time. The tracer replaces every such cross-module
reference, plus the entry points the benchmark itself calls, with a wrapper
that records a span: (name, start, end, parent index, run id). The span name
is ``<defining module>.<function>``, so the layer is known from where the code
lives, not from who calls it. Nothing under ``src/`` is edited, and every
patched name is restored on exit.

Counters are attached at the same boundaries and are computed from arguments
and results, never timed: steps taken and trajectory bytes (``propagate``),
coupling bytes (``build_coupling``) and exported bytes (``write_*``).
"""

import functools
import json
import os
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("encoding", "cavity", "perturbation", "dynamics", "experiments", "cli")


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays stored on obj (computed from shapes)."""
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if hasattr(v, "nbytes"))


def _propagate_counts(counts, args, kwargs, trajectory):
    times = trajectory.times
    stride = kwargs.get("sample_stride", args[6] if len(args) > 6 else 1)
    if len(times) > 1:
        # samples sit at k*h for k = stride, 2*stride, ..., steps
        h = float(times[1] - times[0]) / stride
        steps = round(float(times[-1]) / h)
        expected_samples = 1 + steps // stride + (1 if steps % stride else 0)
        if expected_samples != len(times):
            raise RuntimeError(
                f"step count {steps} inconsistent with {len(times)} samples at stride {stride}"
            )
        counts["dynamics.steps"] += steps
    counts["dynamics.trajectory_bytes"] += _array_bytes(trajectory)


def _coupling_counts(counts, args, kwargs, coupling):
    counts["cavity.coupling_bytes"] += _array_bytes(coupling)


def _export_counts(counts, args, kwargs, result):
    for arg in list(args) + list(kwargs.values()):
        if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
            counts["experiments.export_bytes"] += os.path.getsize(arg)


def _counter_for(span_name):
    if span_name == "dynamics.propagate":
        return _propagate_counts
    if span_name == "cavity.build_coupling":
        return _coupling_counts
    if span_name.startswith("experiments.write_"):
        return _export_counts
    return None


class Tracer:
    """In-memory span recorder; install() patches, summary() derives self time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self.run_id = 0
        self._stack = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _counter_for(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self, package, entry_points):
        """Patch cross-module function references in every package module.

        entry_points lists (module, attribute) pairs the benchmark calls
        directly and that are not cross-module references themselves.
        """
        prefix = package.__name__
        modules = [package] + [
            m for m in vars(package).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(prefix + ".")
        ]
        targets = []
        for module in modules:
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith(prefix + ".")
                    and value.__module__ != module.__name__
                ):
                    targets.append((module, attr, value))
        for module, attr in entry_points:
            targets.append((module, attr, getattr(module, attr)))
        try:
            for module, attr, fn in targets:
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}"))
            yield self
        finally:
            for module, attr, fn in reversed(targets):
                setattr(module, attr, fn)

    def summary(self) -> dict:
        """Inclusive time, self time and calls per span name, plus layer self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, t in own.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + t
        return {
            "total": dict(total),
            "self": dict(own),
            "calls": dict(calls),
            "layer_self": layer_self,
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def write(self, path):
        """Dump the spans as JSON lines: [name, start, end, parent, run id] each."""
        with open(path, "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)
