"""In-memory span tracer that wraps public attributes of the offgrid modules.

A span records a layer name, start and end (perf_counter seconds), the index
of the enclosing span and the id of the control step it belongs to. Spans
are kept in parallel lists and written out once, after the run. A layer's
self time is its span time minus the time its child spans cover; calls are
sequential in one thread, so children never overlap and that time is the sum
of their durations.
"""

from __future__ import annotations

import csv
import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.steps: list[str] = []
        self.counts: Counter = Counter()
        self.step_id = "setup"
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_result=None):
        """Return `fn` recording one span per call; `on_result(tracer, result,
        args)` runs after the span closes and may add counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.steps.append(self.step_id)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers on (owner, attribute, span name, hook) targets and
        restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of calls, total seconds and self seconds."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: defaultdict = defaultdict(float)
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += d
            if self.parents[i] >= 0:
                child[self.parents[i]] += d
        own: Counter = Counter()
        for i, name in enumerate(self.names):
            own[name] += self.ends[i] - self.starts[i] - child[i]
        return calls, total, own

    def write_csv(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "step", "parent", "start_s", "end_s"])
            for i in range(len(self.names)):
                w.writerow([i, self.names[i], self.steps[i], self.parents[i],
                            f"{self.starts[i]:.9f}", f"{self.ends[i]:.9f}"])
