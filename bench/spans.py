"""In-memory spans around the package calls the benchmark makes.

A span is (name, start, end, parent, item): ``parent`` is the index of the
enclosing span or -1, ``item`` names the slide, cell or model the call
belongs to.  Spans are kept in a list while the run lasts and written out
once at the end, so the only cost inside a measured pass is two clock reads
and one list append per call.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, item=None):
        yield


class Tracer:
    """Tracing on: one span per call, nested under the open group span."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item]
        self._open = []  # indices of the group spans currently open

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        item = self.spans[parent][4] if self._open else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), parent, item])

    @contextmanager
    def span(self, name, item=None):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), None, parent, item]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = perf_counter()

    def self_times(self) -> dict:
        """Self time of every span, grouped by name: duration minus the time
        its child spans cover (children never overlap: one thread)."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _item in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name = {}
        for (name, start, end, _parent, item), child in zip(self.spans, covered):
            by_name.setdefault(name, []).append((end - start - child, item))
        return by_name

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
