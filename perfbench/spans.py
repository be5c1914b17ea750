"""In-memory span recorder for the traced run.

Wrappers are installed on the public functions of each ipidlab layer
from the benchmark's side (module attributes and class attributes), and
removed again afterwards. A span is (id, name, parent id, start ns, end
ns). Each thread appends to its own buffer; a worker thread's first
span takes the enclosing ``bench.run_benchmark`` span as its parent, so
time spent in benchmark workers is attributed to the trial that ran it.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from pathlib import Path

import numpy as np

TRIAL_SPAN = "bench.run_benchmark"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._patches: list = []
        self._trial_parent = 0
        self._main = threading.main_thread()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_state(self):
        loc = self._local
        loc.buf = array("q")
        root = 0 if threading.current_thread() is self._main else self._trial_parent
        loc.stack = [root]
        with self._lock:
            self._buffers.append(loc.buf)
        return loc.stack, loc.buf

    def traced(self, fn, name: str):
        """``fn`` wrapped so that each call records a span named ``name``."""
        nid = self._name_id(name)
        ids, loc, clock = self._ids, self._local, time.perf_counter_ns
        is_trial = name == TRIAL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack, buf = loc.stack, loc.buf
            except AttributeError:
                stack, buf = self._thread_state()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            if is_trial:
                self._trial_parent = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((sid, nid, parent, t0, t1))

        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def phase(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own (not a layer)."""
        return self.traced(fn, name)(*args, **kwargs)

    def spans(self) -> np.ndarray:
        """All spans as an (n, 5) int64 array: id, name, parent, t0, t1."""
        with self._lock:
            parts = [np.frombuffer(b, dtype=np.int64).reshape(-1, 5) for b in self._buffers]
        if not parts:
            return np.zeros((0, 5), dtype=np.int64)
        out = np.concatenate(parts)
        return out[np.argsort(out[:, 0])]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "spans.npy", self.spans())
        (directory / "span_names.json").write_text(json.dumps(self.names))


def summarize(spans: np.ndarray, names: list[str]) -> dict:
    """Per-name call counts and self time, plus per-span detail.

    Self time is a span's duration minus the part of it that its child
    spans cover (children of one trial may overlap across threads).
    Spans inside a timed trial are flagged: how many there are depends
    on how fast the trial ran, so counts leave them out.
    """
    n = len(spans)
    ids, nid, parent, t0, t1 = (spans[:, i] for i in range(5))
    index = {int(s): i for i, s in enumerate(ids)}
    covered = np.zeros(n, dtype=np.int64)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = index.get(int(parent[i]))
        if p is not None:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo_p, hi_p = int(t0[p]), int(t1[p])
        total, cur_lo, cur_hi = 0, None, None
        for i in sorted(kids, key=lambda i: int(t0[i])):
            lo, hi = max(int(t0[i]), lo_p), min(int(t1[i]), hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        covered[p] = total
    self_ns = (t1 - t0) - covered

    trial_id = names.index(TRIAL_SPAN) if TRIAL_SPAN in names else -1
    in_trial = np.zeros(n, dtype=bool)
    for i in range(n):  # ids grow from parent to child
        p = index.get(int(parent[i]))
        if p is not None and (in_trial[p] or nid[p] == trial_id):
            in_trial[i] = True
    return {
        "name": nid,
        "parent_index": np.array([index.get(int(p), -1) for p in parent], dtype=np.int64),
        "self_ns": self_ns,
        "dur_ns": t1 - t0,
        "in_trial": in_trial,
    }
