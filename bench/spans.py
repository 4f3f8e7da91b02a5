"""Spans around the library's public functions, recorded from outside.

The tracer replaces a function at the module (or class) attribute its
callers look up, for the duration of a ``with`` block, and restores it on
exit; ``src/`` is never edited.  A span is recorded only while an operation
is open, so the benchmark's own checks and generators leave no spans.

A span is ``[name, start, end, parent index, operation id, work, failed]``;
``work`` is a size (triangles, vertices) taken from the call's arguments or
result, and the operation id indexes ``op_labels``.  Spans stay in memory
until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_labels: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op_labels.append(label)
        self._op = len(self.op_labels) - 1

    def end_op(self) -> None:
        self._op = None

    def _wrap(self, fn, name, work):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self._op, 0, False]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Route ``owner.attr`` through a span named ``name``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, work))
        else:
            replacement = self._wrap(raw, name, work)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def close(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- aggregation -----------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, work, failed in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "label": self.op_labels[op], "work": work,
                    "failed": failed,
                }) + "\n")

    def summary(self, keep) -> dict[str, dict]:
        """Per span name, over the spans whose operation label passes ``keep``:
        calls, busy (self) seconds, summed work, failures and the duration of
        the first call.  Self time is a span's duration minus the time its
        child spans cover; children of one span never overlap because the
        benchmark is single-threaded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "work": 0, "failed": 0, "first_s": None}
        )
        for i, (name, start, end, parent, op, work, failed) in enumerate(self.spans):
            if not keep(self.op_labels[op]):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += (end - start) - child_time[i]
            entry["work"] += work
            entry["failed"] += failed
            if entry["first_s"] is None:
                entry["first_s"] = end - start
        return out
