"""A small in-memory span recorder for the benchmark.

Each span records its name (``<module>.<call>``), start and end on the
``perf_counter`` clock, the span that was open when it started, the pass it
belongs to and a dictionary of problem sizes.  Spans stay in memory and are
written as JSONL once the run is over.

With tracing off the recorder hands out a throwaway sizes dictionary and
records nothing, so the timed calls are the same in both modes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("rec", "name", "sizes", "id", "parent", "pass_no", "start", "end")

    def __init__(self, rec, name, sizes):
        self.rec = rec
        self.name = name
        self.sizes = sizes

    def __enter__(self):
        rec = self.rec
        self.id = len(rec.spans)
        self.parent = rec.stack[-1].id if rec.stack else None
        self.pass_no = rec.pass_no
        rec.spans.append(self)
        rec.stack.append(self)
        self.start = time.perf_counter()
        return self.sizes

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.rec.stack.pop()
        return False

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "pass": self.pass_no,
            "start": self.start,
            "end": self.end,
            "sizes": self.sizes,
        }


class _Null:
    __slots__ = ("sizes",)

    def __init__(self, sizes):
        self.sizes = sizes

    def __enter__(self):
        return self.sizes

    def __exit__(self, *exc):
        return False


class Recorder:
    """Collects spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.pass_no = "setup"  # spans are tagged with the pass open at their start

    def span(self, name, **sizes):
        if not self.enabled:
            return _Null(sizes)
        return _Span(self, name, sizes)

    def records(self):
        return [s.as_dict() for s in self.spans]

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def self_times(records):
    """Per-pass, per-name sums of self time and of summed sizes.

    Self time is a span's duration minus the time covered by its children;
    children never overlap each other here (one caller, one thread), so the
    covered time is the sum of their durations.
    """
    child_time = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] += r["end"] - r["start"]
    busy = defaultdict(lambda: defaultdict(float))
    sizes = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    for r in records:
        dur = r["end"] - r["start"]
        busy[r["pass"]][r["name"]] += dur - child_time[r["id"]]
        for key, value in r["sizes"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                sizes[r["pass"]][r["name"]][key] += value
    return busy, sizes
