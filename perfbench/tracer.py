"""Span recorder that wraps the program's public functions from outside.

While installed, every wrapped function records one span per call: its name,
start, end and the span of the caller that was open at the time.  Spans are
kept in flat in-memory arrays and written out once, after measuring.  Result
counters read values from the objects the wrapped functions return.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects spans and counters for the functions registered with ``add``."""

    def __init__(self):
        self.targets = []  # (owner, attribute, span name, counter callback)
        self._names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = defaultdict(float)

    def add(self, owner, attr, name, counters=None):
        """Register ``owner.attr`` to be traced under ``name``.

        ``counters(result)`` may return a dict of increments taken from the
        returned object.
        """
        self.targets.append((owner, attr, name, counters))

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, counters):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counters is not None:
                for key, inc in counters(result).items():
                    self.counters[key] += inc
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every registered function by its traced wrapper."""
        originals = []
        try:
            for owner, attr, name, counters in self.targets:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counters))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def totals(self) -> dict:
        """Per span name: number of calls, total time and total self time.

        Self time is a span's duration minus the durations of its direct
        children.  No traced function calls itself, so summing durations per
        name counts no interval twice.
        """
        names = self._names
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        calls = np.bincount(nid, minlength=len(names))
        total = np.bincount(nid, weights=dur, minlength=len(names))
        self_total = np.bincount(nid, weights=dur - child, minlength=len(names))
        return {n: {"calls": int(calls[i]), "s": float(total[i]),
                    "self_s": float(self_total[i])}
                for i, n in enumerate(names)}

    def write(self, path):
        """Write every span (name, parent index, start, end) to ``path``."""
        np.savez_compressed(
            path, names=np.array(self._names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
