"""In-memory span recorder for the benchmark's traced runs.

A span records name, start, end (perf_counter nanoseconds), the id of the
span that caused it, the run id of the benchmark step it belongs to, the
thread it ran on and optional work counts.  Parents come from a
thread-local stack; code that hands work to a thread pool passes the
submitting span as an explicit parent, because a worker thread starts
with an empty stack.  Spans stay in memory until `write_jsonl`.

Self time of a span is its duration minus the part of its interval that
its children cover (children clipped to the parent, overlapping children
counted once).  Children that run in parallel overlap each other; that
overlap is reported separately so that

    sum(self times) - overlap == sum(root durations)

holds exactly when every span hangs off a root.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "thread", "counts")

    def __init__(self, sid, name, parent, run, start=0, end=0, thread=0, counts=None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.start = start
        self.end = end
        self.thread = thread
        self.counts = counts

    @property
    def dur(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "run": self.run,
                "thread": self.thread, "counts": self.counts}


class Tracer:
    """Records spans while `recording` is true; wrappers pass through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.run_id = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None, root: bool = False) -> Span:
        stack = self._stack()
        if parent is None and not root and stack:
            parent = stack[-1].sid
        sp = Span(next(self._ids), name, parent, self.run_id,
                  thread=threading.get_ident())
        stack.append(sp)
        sp.start = time.perf_counter_ns()
        return sp

    def end(self, sp: Span) -> None:
        sp.end = time.perf_counter_ns()
        stack = self._stack()
        if not stack or stack[-1] is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")
        stack.pop()
        self.spans.append(sp)

    def wrap(self, name: str, fn, count=None, before=None):
        """A traced version of `fn`.

        `before(*args, **kwargs)` runs before the span opens and its result
        is passed to `count(result, state, *args, **kwargs)`, which runs
        after the span closed and returns the span's work counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = before(*args, **kwargs) if before is not None else None
            sp = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sp)
            if count is not None:
                sp.counts = count(out, state, *args, **kwargs)
            return out

        return traced

    def patch(self, modules, owner, attr: str, wrapper) -> None:
        """Replace owner.attr, and every binding of the same object in
        `modules`, by `wrapper(original)`; `unpatch` restores them."""
        orig = getattr(owner, attr)
        new = wrapper(orig)
        targets = {id(owner): owner}
        for mod in modules:
            targets[id(mod)] = mod
        for tgt in targets.values():
            for key, val in list(vars(tgt).items()):
                if val is orig:
                    self._patches.append((tgt, key, orig))
                    setattr(tgt, key, new)

    def unpatch(self) -> None:
        while self._patches:
            tgt, key, orig = self._patches.pop()
            setattr(tgt, key, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")


def _union_length(intervals) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """(self_ns by span id, total parallel overlap in ns) for a span list."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    selfs = {}
    overlap = 0
    for sp in spans:
        clipped = []
        for c in children.get(sp.sid, ()):
            lo, hi = max(c.start, sp.start), min(c.end, sp.end)
            if hi > lo:
                clipped.append((lo, hi))
        covered = _union_length(clipped)
        selfs[sp.sid] = sp.dur - covered
        overlap += sum(hi - lo for lo, hi in clipped) - covered
    return selfs, overlap
