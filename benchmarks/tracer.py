"""In-memory span recorder for the traced benchmark run.

The tracer wraps, from outside the package, the public functions and
public methods of the splitmc layer modules, and numpy's two RNG
constructors. Every call then records one span: (name, start, end,
parent, thread). Spans stay in memory until the run ends; `save` writes
them out. Nothing inside splitmc is edited, so a later change that
restructures private helpers needs no change here: a public name that
disappears, or is never called, is reported as "not observed".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter

import numpy as np

PACKAGE = "splitmc"
# splitmc module -> layer name; zoo belongs to the model layer.
LAYER_OF_MODULE = {
    "engine": "engine",
    "conditionals": "conditionals",
    "model": "model",
    "zoo": "model",
    "planner": "planner",
    "bias": "bias",
    "numerics": "numerics",
    "metrics": "metrics",
    "experiments": "experiments",
}

def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    if head == "numpy":
        return "rng"
    return LAYER_OF_MODULE.get(head, head)


class Tracer:
    """Records spans at the splitmc layer boundaries while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One tuple per span opened, (id, name, parent, thread, start), and
        # one per span closed, (id, end). list.append and next() on a
        # counter are atomic, so worker threads need no lock.
        self._ids = itertools.count()
        self._opened: list[tuple] = []
        self._closed: list[tuple] = []
        self._local = threading.local()
        # Parent for spans opened on a thread with no open span of its own
        # (worker threads of an experiment's pool): the current phase.
        self._fallback_parent = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self._fallback_parent
        self._opened.append((sid, nid, parent, get_ident(), perf_counter()))
        stack.append(sid)
        return sid

    def _close(self, sid: int):
        self._closed.append((sid, perf_counter()))
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, phase: bool = False):
        """A span opened by the benchmark itself (set-up, operation, phase)."""
        sid = self._open(self._name_id(name))
        previous = self._fallback_parent
        if phase:
            self._fallback_parent = sid
        try:
            yield sid
        finally:
            self._fallback_parent = previous
            self._close(sid)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the layer modules.

        A function is patched at every splitmc module attribute that refers
        to it, so calls through `from .x import f` are traced as well.
        """
        wrappers = {}
        for short in LAYER_OF_MODULE:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, meth_name,
                                        self._wrap(meth, f"{short}.{attr}.{meth_name}"))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        self._patch(np.random, "default_rng",
                    self._wrap(np.random.default_rng, "numpy.random.default_rng"))
        self._patch(np.random, "SeedSequence", self._traced_seed_sequence())

    def _traced_seed_sequence(self):
        nid = self._name_id("numpy.random.SeedSequence")
        tracer = self
        base = np.random.SeedSequence

        class TracedSeedSequence(base):
            def __init__(self, *args, **kwargs):
                sid = tracer._open(nid)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(sid)

        TracedSeedSequence.__name__ = base.__name__
        TracedSeedSequence.__qualname__ = base.__qualname__
        return TracedSeedSequence

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def spans(self) -> "Spans":
        opened = np.array(sorted(self._opened), dtype=float).reshape(-1, 5)
        end = np.full(len(opened), math.nan)
        if self._closed:
            closed = np.array(self._closed)
            end[closed[:, 0].astype(np.int64)] = closed[:, 1]
        ints = opened[:, :4].astype(np.int64)
        return Spans(self.names, ints[:, 1], ints[:, 2], ints[:, 3], opened[:, 4], end)


class Spans:
    """A frozen set of recorded spans plus the queries the metrics need."""

    def __init__(self, names, name, parent, thread, start, end):
        self.names = list(names)
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.duration = end - start
        layers = [layer_of(n) for n in self.names]
        self.layer = np.array(layers + [""], dtype=object)[name]

    def __len__(self):
        return len(self.name)

    def ids_named(self, name: str) -> np.ndarray:
        """Indices of the spans with exactly this name (empty if never recorded)."""
        try:
            nid = self.names.index(name)
        except ValueError:
            return np.array([], dtype=np.int64)
        return np.flatnonzero(self.name == nid)

    def nearest(self, mask: np.ndarray) -> np.ndarray:
        """For each span, the closest span at or above it for which mask holds, else -1.

        Parents are opened before their children, so one forward pass does.
        """
        out = [-1] * len(self.name)
        parent = self.parent.tolist()
        flags = mask.tolist()
        for i, p in enumerate(parent):
            if flags[i]:
                out[i] = i
            elif p >= 0:
                out[i] = out[p]
        return np.array(out, dtype=np.int64)

    def covered(self, ids, lo: float, hi: float) -> float:
        """Length of [lo, hi] covered by the union of the given spans."""
        intervals = sorted((max(self.start[i], lo), min(self.end[i], hi)) for i in ids)
        total, cur_s, cur_e = 0.0, None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total

    def self_time(self, parent_ids, child_mask: np.ndarray) -> float:
        """Summed duration of parent_ids minus what their descendants in child_mask cover."""
        parent_ids = np.asarray(parent_ids, dtype=np.int64)
        if parent_ids.size == 0:
            return 0.0
        is_parent = np.zeros(len(self.name), dtype=bool)
        is_parent[parent_ids] = True
        owner = self.nearest(is_parent)
        groups: dict[int, list[int]] = {}
        for i in np.flatnonzero(child_mask & (owner >= 0)):
            if owner[i] != i:
                groups.setdefault(int(owner[i]), []).append(int(i))
        total = 0.0
        for p in parent_ids.tolist():
            total += self.duration[p] - self.covered(groups.get(p, ()), self.start[p], self.end[p])
        return total

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=self.name, parent=self.parent,
                 thread=self.thread, start=self.start, end=self.end)
