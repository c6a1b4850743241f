"""In-memory span recorder that instruments sensealloc from the outside.

The library has no tracing hooks yet, so the traced benchmark run wraps the
public functions of each layer module and rebinds every name that refers to
them, in every loaded ``sensealloc`` module, for the duration of the traced
phase.  No library source is touched and the untraced phases run the
original functions.

A span is (name, start, end, parent, run id).  Spans live in flat arrays
while the run is going and are written out once, when it ends.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: The package whose modules are instrumented.
PACKAGE = "sensealloc"


class Tracer:
    """Collects nested spans from a single thread, plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.run_id = 0
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, -math.inf), value)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64), np.array(self.name, dtype=np.int64),
                np.array(self.run, dtype=np.int64))

    def write(self, path) -> None:
        """Write every span as columns of a compressed .npz file."""
        start, end, parent, name, run = self.arrays()
        np.savez_compressed(path, start=start, end=end, parent=parent, name=name,
                            run=run, names=np.array(self.names))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    n = len(start)
    covered = np.zeros(n)
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur = -1
    lo = hi = 0.0
    for i in order:
        p = int(parent[i])
        s = max(float(start[i]), float(start[p]))
        e = min(float(end[i]), float(end[p]))
        if p != cur:
            if cur >= 0:
                covered[cur] += hi - lo
            cur, lo, hi = p, s, max(s, e)
        elif s > hi:
            covered[cur] += hi - lo
            lo, hi = s, max(s, e)
        else:
            hi = max(hi, e)
    if cur >= 0:
        covered[cur] += hi - lo
    return (end - start) - covered


def summarize(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds, self seconds, and the
    list of durations (for percentiles)."""
    start, end, parent, name, _ = tracer.arrays()
    dur = end - start
    own = self_times(start, end, parent)
    out: Dict[str, Dict[str, float]] = {}
    for nid, label in enumerate(tracer.names):
        mask = name == nid
        out[label] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(own[mask].sum()),
            "durations": dur[mask],
        }
    return out


class Instrumentation:
    """Wrappers for functions and methods of PACKAGE, installed by
    ``install`` (or ``with``) and removed again by ``restore``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object, object]] = []

    def wrap(self, module: str, attr: str,
             label: Optional[Callable[[tuple, dict], str]] = None,
             on_result: Optional[Callable[[Tracer, object, tuple, dict], None]] = None) -> None:
        """Trace ``PACKAGE.module.attr`` ("Class.method" for methods).

        The span is called "module.attr", or ``label(args, kwargs)`` when the
        name depends on the call.  ``on_result`` sees the
        return value, for counters read off solver reports.  A function is
        rebound under every name any loaded module of the package gives it.
        A name the package no longer has is recorded in ``missing`` and
        skipped, so the benchmark survives API changes in the layers it
        observes.
        """
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = _make_wrapper(self.tracer, original, f"{module}.{attr}", label, on_result)
        if path:
            self._patches.append((owner, leaf, original, wrapped))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapped))

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def restore(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _make_wrapper(tracer: Tracer, fn: Callable, name: str,
                  label: Optional[Callable[[tuple, dict], str]],
                  on_result: Optional[Callable[[Tracer, object, tuple, dict], None]]):
    fixed_id = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    if label is None and on_result is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(fixed_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    @functools.wraps(fn)
    def traced_labelled(*args, **kwargs):
        nid = fixed_id if label is None else tracer.name_id(label(args, kwargs))
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if on_result is not None:
            on_result(tracer, result, args, kwargs)
        return result
    return traced_labelled
