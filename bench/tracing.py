"""Span tracer for the traced benchmark run.

Spans are recorded at the benchmark's own call sites and around a few names
the ttnsim modules look up at call time (module globals such as
``ttnsim.ttn.svd_econ``, class attributes such as ``FlatTree.path_between``).
They stay in memory until the run ends, are then written out, and are
reduced to per-layer self time: a span's duration minus the durations of
its direct children.
"""

import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder with a parent stack.

    Each span is a list ``[name, start, end, parent_index, run_id]``; the
    index of a span in ``spans`` is its id. ``run_id`` tags every span of one
    timed pass (or check phase), so spans of one pass can be grouped.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = {}
        self.svd_shapes: dict[tuple[int, int], list] = {}  # shape -> [calls, seconds]
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        now = time.perf_counter()
        span = self.spans[idx]
        span[2] = now
        # an exception inside a span may have left its children open
        while self._stack and self._stack.pop() != idx:
            pass
        return now - span[1]

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrapping names inside the program ----------------------------------

    def patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def svd_wrapper(self, fn):
        """Span around an SVD that also tallies calls and time by matrix shape."""
        def traced(m, *args, **kwargs):
            idx = self.begin("tensors.svd")
            try:
                return fn(m, *args, **kwargs)
            finally:
                dt = self.end(idx)
                entry = self.svd_shapes.setdefault(tuple(m.shape), [0, 0.0])
                entry[0] += 1
                entry[1] += dt
        return traced

    def count_wrapper(self, name: str, fn):
        """Call counter without a span, for functions called ~10^5 times a pass."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- reduction -----------------------------------------------------------

    def self_times(self, run_ids) -> tuple[dict, dict]:
        """Per-name (self seconds, call count) over the spans of the given runs."""
        run_ids = set(run_ids)
        child_time = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if run in run_ids and parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, (name, start, end, parent, run) in enumerate(self.spans):
            if run in run_ids:
                seconds[name] += (end - start) - child_time[idx]
                calls[name] += 1
        return seconds, calls

    def children_of(self, parent_name: str, child_names, run_ids) -> int:
        """Number of spans named in `child_names` whose direct parent is named
        `parent_name`, over the given runs."""
        run_ids = set(run_ids)
        child_names = set(child_names)
        total = 0
        for name, _, _, parent, run in self.spans:
            if run in run_ids and name in child_names and parent >= 0:
                if self.spans[parent][0] == parent_name:
                    total += 1
        return total

    def dump(self) -> dict:
        """Spans as rows; a span's id is its row index, -1 marks no parent."""
        return {"fields": ["name", "start", "end", "parent", "run"], "spans": self.spans}
