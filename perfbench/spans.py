"""In-memory spans around the layer calls of the curladapt drivers.

The tracer replaces module attributes with timing wrappers at the places
the drivers look them up, records one span per call (name, start, end,
parent, run id) and the per-call counts a probe extracts from the
arguments and the result, and puts every original back on ``restore``.
Nothing is written while tracing; callers serialise ``spans`` at the end.
"""

import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run_id: int


def self_times(spans):
    """Per span: its duration minus the part of its interval covered by
    its child spans (overlapping children are counted once)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Records spans and counts; use as a context manager so that every
    patched attribute is restored even when the traced code raises."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._patches = []

    def add(self, key, value):
        self.sums[key] += value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def call(self, name, fn, *args, probe=None, **kwargs):
        """Run ``fn`` inside a span called ``name``; ``probe(tracer, args,
        result, exc)`` records counts after it returns or raises."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children see the index
        self._stack.append(index)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._finish(index, name, start, parent)
            if probe is not None:
                probe(self, args, None, exc)
            raise
        self._finish(index, name, start, parent)
        if probe is not None:
            probe(self, args, result, None)
        return result

    def _finish(self, index, name, start, parent):
        self.spans[index] = Span(name, start, self.clock(), parent, self.run_id)
        self._stack.pop()

    def patch(self, module, attr, name, probe=None):
        """Replace ``module.attr`` by a wrapper that traces each call."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, probe=probe, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False
