"""Spans recorded around the public functions of `tin`, from outside it.

The traced run replaces module attributes, class methods and layer
methods with thin wrappers that record a span per call: name, start,
end, the span that was open when it started, and the benchmark phase.
Spans stay in memory; `per_layer` turns them into the per-layer metrics
when the run ends. The untraced run never imports this module, so the
code it times is exactly the shipped code.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    def __init__(self):
        # one record per call: [name, start, end, parent index, phase]
        self.spans: list = []
        self._stack: list = []
        self.phase = "setup"

    def wrap(self, name, fn):
        """Wrap fn so every call records a span; name may be a function
        of the call's positional arguments."""
        name_of = name if callable(name) else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name_of(args) if name_of else name, clock(), 0.0,
                   self._stack[-1] if self._stack else -1, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._stack.pop()

        return traced

    def patch(self, owner, attr: str, name) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def durations(self, name: str, phase: str | None = None) -> list:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (phase is None or s[4] == phase)]

    def self_times(self, name: str) -> list:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name]


def median_or_zero(values: list) -> float:
    """Median of the samples; a layer that never ran reports 0."""
    return statistics.median(values) if values else 0.0


def mean_or_zero(values: list) -> float:
    return statistics.fmean(values) if values else 0.0
