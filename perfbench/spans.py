"""In-memory span recorder and the self-time arithmetic over its spans.

A span is (name, start, end, parent, run id).  Spans are kept in a list
while the benchmark runs and written out once, at the end.
"""

import json
import math
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.run_id = None

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, self.run_id]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def of_run(self, run_id):
        """(index, span) pairs recorded under one run id."""
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]

    def self_times(self, run_id):
        """Per span index: its duration minus the time covered by its direct children."""
        spans = self.of_run(run_id)
        child = {}
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {i: (s[2] - s[1]) - child.get(i, 0.0) for i, s in spans}

    def write(self, path):
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run_id": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)


def tail_percentile(values, q=0.97, beyond=10):
    """The q-quantile, lowered where needed so that `beyond` samples lie above it.

    Below `beyond + 1` samples no such rank exists and the smallest sample is
    returned; the caller records the sample count next to the value.
    """
    s = sorted(values)
    n = len(s)
    rank = min(math.ceil(q * n) - 1, n - 1 - beyond)
    return s[max(rank, 0)]


def list_schedule_makespan(durations, workers):
    """Finish time of durations handed in order to whichever worker frees first."""
    free = [0.0] * workers
    for d in durations:
        i = free.index(min(free))
        free[i] += d
    return max(free)
