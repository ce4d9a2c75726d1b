"""Probes the workloads call the library through.

``Direct`` calls straight through.  ``Calibrated`` does too, and times a
fixed reference loop whenever a workload ticks it, between ops, which shows
how fast the host ran.
``Tracer`` records spans around the calls into each sumsets module and
keeps them in memory.

A span is (name, parent, group, start, end).  The spans of one scan
repetition or one oracle-mix op share a group.  A layer's self time is its
span's duration minus the durations of its direct children.

The library's modules bind the kernel at import (``from .kernel import
sumset_layered``), so wrapping ``sumsets.kernel.sumset_layered`` alone would
see none of their calls.  ``Tracer.patched`` wraps the binding each module
calls through instead, and restores it on exit.
"""
from __future__ import annotations

import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import sumsets.bounds
import sumsets.explorer
import sumsets.inverse
import sumsets.kernel
from sumsets import sumset_layered, sumset_naive


def reference_loop_ns() -> int:
    """Time a fixed pure-Python loop that does not touch the library."""
    start = perf_counter_ns()
    seen = set()
    total = 0
    for i in range(50_000):
        total += i * i
        seen.add(total & 1023)
    return perf_counter_ns() - start


class Direct:
    """Untraced probe: calls go straight to the library."""

    group = 0

    def tick(self) -> None:
        """Called between ops, outside their timing."""

    def call(self, name, fn, *args):
        return fn(*args)

    def layered(self, a, h, kind):
        return sumset_layered(a, h, kind)

    def naive(self, a, h, kind):
        return sumset_naive(a, h, kind)


class Calibrated(Direct):
    """Untraced probe that measures the host's speed between ops."""

    def __init__(self) -> None:
        self.reference: list[int] = []

    def tick(self) -> None:
        self.reference.append(reference_loop_ns())


class Tracer(Direct):
    """Traced probe: records a span around every call it makes or wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.groups = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.mask_bits_max = 0
        self.mask_bits_sum = 0
        self.values = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.groups.append(self.group)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter_ns()
            self._stack.pop()

    def _layered(self, fn, a, h, kind, *args, **kwargs):
        # the width of the DP's bitmask, as the kernel sizes it
        bits = 2 * h * a.max_magnitude + 1
        self.mask_bits_sum += bits
        self.mask_bits_max = max(self.mask_bits_max, bits)
        result = self.call("kernel.layered." + kind.value, fn, a, h, kind, *args, **kwargs)
        self.values += result.cardinality
        return result

    def _naive(self, fn, a, h, kind, *args, **kwargs):
        return self.call("kernel.naive." + kind.value, fn, a, h, kind, *args, **kwargs)

    def layered(self, a, h, kind):
        return self._layered(sumset_layered, a, h, kind)

    def naive(self, a, h, kind):
        return self._naive(sumset_naive, a, h, kind)

    def _wrap_engine(self, fn, record):
        default_kind = inspect.signature(fn).parameters["kind"].default

        def wrapper(a, h, *args, **kwargs):
            if args:
                kind, args = args[0], args[1:]
            else:
                kind = kwargs.pop("kind", default_kind)
            return record(fn, a, h, kind, *args, **kwargs)

        return wrapper

    def _wrap_span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self):
        """Wrap the bindings the explorer, bounds, inverse and kernel
        modules call through; restore them on exit."""
        explorer, bounds, inverse, kernel = (
            sumsets.explorer, sumsets.bounds, sumsets.inverse, sumsets.kernel
        )
        plan = [
            (explorer, "sumset_layered", self._wrap_engine(explorer.sumset_layered, self._layered)),
            (explorer, "sumset_naive", self._wrap_engine(explorer.sumset_naive, self._naive)),
            (explorer, "classify_extremal", self._wrap_span("inverse.classify", explorer.classify_extremal)),
            (bounds, "sumset_layered", self._wrap_engine(bounds.sumset_layered, self._layered)),
            (bounds, "sumset_naive", self._wrap_engine(bounds.sumset_naive, self._naive)),
            (inverse, "sumset_layered", self._wrap_engine(inverse.sumset_layered, self._layered)),
            (kernel, "SumsetResult", self._wrap_span("core.result", kernel.SumsetResult)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in plan]
        try:
            for module, attr, wrapper in plan:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def aggregate(self) -> tuple[dict[str, list[float]], int, int]:
        """Per span name: [calls, seconds, self seconds]; and the numbers of
        naive and of layered calls made inside ``explorer.scan``."""
        n = len(self.names)
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        children = [0] * n
        in_scan = [False] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[i]
                in_scan[i] = in_scan[parent] or self.names[parent] == "explorer.scan"
        totals: dict[str, list[float]] = {}
        oracle_calls = layered_calls = 0
        for i, name in enumerate(self.names):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += durations[i] * 1e-9
            entry[2] += (durations[i] - children[i]) * 1e-9
            if in_scan[i]:
                if name.startswith("kernel.naive."):
                    oracle_calls += 1
                elif name.startswith("kernel.layered."):
                    layered_calls += 1
        return totals, oracle_calls, layered_calls

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as out:
            out.write("id\tparent\tgroup\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i}\t{self.parents[i]}\t{self.groups[i]}\t{name}\t"
                    f"{self.starts[i]}\t{self.ends[i]}\n"
                )
