"""Layer spans for the traced benchmark run.

The tracer wraps, from outside the program, every function and method
of the modules that make up each layer of the simulated stack, and
records a span (start, end, parent, layer) each time control crosses
from one layer into another.  Calls that stay inside a layer open no
new span, so the span count follows layer boundaries, not call counts.
Generator functions (the simulator's coroutines) get one span per
resume, so time spent parked in the event queue is never billed.

Spans are kept in flat arrays in memory and written out once, at the
end of the run.  A layer's self time is the sum over its spans of the
span's duration minus its children's durations.

``build`` is opaque: while a world is being built, nested layers open
no spans, so ``build.self_s`` is the whole construction cost.

The tracer also counts work at the same boundaries (progress passes,
channel puts/gets, fluid re-solves, ...); counters never alter what
the wrapped code does, so the simulated schedule is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: layer ids are indexes into this tuple; ``bench`` is the harness
#: and the benchmark's own rank programs
LAYERS = ("bench", "build", "engine", "fluid", "ib", "hw", "channel",
          "ch3", "connect", "regcache", "mpi", "nas")
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
BENCH, BUILD = LAYER_ID["bench"], LAYER_ID["build"]

#: module -> layer whose functions and class methods it holds
MODULE_LAYERS = {
    "repro.sim.engine": "engine",
    "repro.sim.fluid": "fluid",
    "repro.ib.hca": "ib",
    "repro.ib.verbs": "ib",
    "repro.ib.cq": "ib",
    "repro.ib.srq": "ib",
    "repro.ib.mr": "ib",
    "repro.ib.fabric": "ib",
    "repro.hw.membus": "hw",
    "repro.hw.memory": "hw",
    "repro.hw.cpu": "hw",
    "repro.mpich2.channels.base": "channel",
    "repro.mpich2.channels.basic": "channel",
    "repro.mpich2.channels.chunked": "channel",
    "repro.mpich2.channels.ring": "channel",
    "repro.mpich2.channels.piggyback": "channel",
    "repro.mpich2.channels.pipeline": "channel",
    "repro.mpich2.channels.zerocopy": "channel",
    "repro.mpich2.channels.srq": "channel",
    "repro.mpich2.channels.adaptive": "channel",
    "repro.mpich2.channels.multimethod": "channel",
    "repro.mpich2.channels.shm": "channel",
    "repro.mpich2.channels.tcp": "channel",
    "repro.mpich2.adi3": "ch3",
    "repro.mpich2.ch3": "ch3",
    "repro.mpich2.ch3_rdma.device": "ch3",
    "repro.mpich2.ch3_rdma.adaptive": "ch3",
    "repro.mpich2.connect": "connect",
    "repro.mpich2.regcache": "regcache",
    "repro.mpi.comm": "mpi",
    "repro.mpi.collectives": "mpi",
    "repro.mpi.collectives_rdma": "mpi",
    "repro.mpi.datatypes": "mpi",
    "repro.nas.common": "nas",
    "repro.nas.mg": "nas",
    "repro.nas.ft": "nas",
    "repro.nas.is_": "nas",
}

#: build entry points: (module, qualified name); every channel class's
#: ``establish`` is added at install time
BUILD_ENTRIES = (("repro.mpi.runner", "build_world"),
                 ("repro.cluster", "build_cluster"))

#: dunder methods worth wrapping (construction is real work)
_DUNDERS = ("__init__", "__call__")


class Tracer:
    """Span recorder plus boundary counters."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.layer = array("b")
        self.parent = array("i")
        self.stack: List[int] = []
        #: index and phase ("setup", "run", "teardown") of each root span
        self.roots = array("i")
        self.root_phase: List[str] = []
        #: layer of the innermost open span; -1 outside any phase
        self.cur = -1
        #: > 0 while inside an opaque (build) span
        self.opaque = 0
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def open_phase(self, phase: str) -> None:
        """Open a root span: one phase of one world, timed by the
        harness."""
        self.roots.append(len(self.start))
        self.root_phase.append(phase)
        self.open(BENCH)

    def open(self, lid: int) -> None:
        stack = self.stack
        i = len(self.start)
        self.parent.append(stack[-1] if stack else -1)
        self.layer.append(lid)
        self.end.append(0.0)
        stack.append(i)
        self.cur = lid
        self.start.append(self.clock())

    def close(self) -> None:
        t = self.clock()
        stack = self.stack
        self.end[stack.pop()] = t
        self.cur = self.layer[stack[-1]] if stack else -1

    # -- analysis --------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, ...]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        layer = np.frombuffer(self.layer, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, layer, parent

    def self_times(self, phase: Optional[str] = None) -> Dict[str, float]:
        """Per-layer self seconds over every recorded span, or over the
        spans under the root spans of one phase."""
        start, end, layer, parent = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        own = dur - covered
        if phase is not None:
            # a root's descendants are the spans recorded before the
            # next root opens
            roots = np.frombuffer(self.roots, dtype=np.int32)
            wanted = np.array([p == phase for p in self.root_phase])
            owner = np.searchsorted(roots, np.arange(len(dur)),
                                    side="right") - 1
            keep = wanted[owner]
            own, layer = own[keep], layer[keep]
        per = np.bincount(layer.astype(np.intp), weights=own,
                          minlength=len(LAYERS))
        return {name: float(per[i]) for i, name in enumerate(LAYERS)}

    def nesting_ok(self) -> bool:
        """Every span closed, and inside its parent's interval."""
        if self.stack:
            return False
        start, end, _layer, parent = self.arrays()
        child = parent >= 0
        p = parent[child]
        return bool(np.all(end >= start)
                    and np.all(start[child] >= start[p])
                    and np.all(end[child] <= end[p]))

    def save(self, path: str) -> None:
        start, end, layer, parent = self.arrays()
        t0 = start[0] if len(start) else 0.0
        np.savez(path, start=start - t0, end=end - t0, layer=layer,
                 parent=parent, layers=np.array(LAYERS))


# ---------------------------------------------------------------------
# counters recorded at layer boundaries
# ---------------------------------------------------------------------

COUNTERS = ("processes", "resolves", "resolve_flows", "progress_passes",
            "progress_useful", "puts", "gets", "gets_useful", "msgs",
            "connections")


def _count(key: str) -> Callable:
    def pre(tr: Tracer, args: tuple) -> None:
        tr.counts[key] += 1
    return pre


def _pre_resolve(tr: Tracer, args: tuple) -> None:
    tr.counts["resolves"] += 1
    tr.counts["resolve_flows"] += len(args[0]._active)


def _post_progress(tr: Tracer, result) -> None:
    if result:
        tr.counts["progress_useful"] += 1


def _post_get(tr: Tracer, result) -> None:
    tr.counts["gets"] += 1
    if result:
        tr.counts["gets_useful"] += 1


#: (layer, method name) -> (pre hook, post hook, boundary only).  A
#: boundary-only hook counts a call only when it enters the layer from
#: another one, so delegation inside a layer (multimethod -> its
#: sub-channels, the RDMA device -> the base device) counts once.
HOOKS = {
    ("engine", "Process.__init__"): (_count("processes"), None, False),
    ("fluid", "FluidNetwork._alloc_vector"): (_pre_resolve, None, False),
    ("fluid", "FluidNetwork._alloc_scalar"): (_pre_resolve, None, False),
    # one _extra_progress call per progress pass (ch3.py's sweep loop)
    ("ch3", "_extra_progress"): (_count("progress_passes"), None, False),
    # a progress call returns True exactly once per useful pass
    ("ch3", "progress"): (None, _post_progress, False),
    ("ch3", "isend"): (_count("msgs"), None, True),
    ("channel", "put"): (_count("puts"), None, True),
    ("channel", "get"): (None, _post_get, True),
    ("connect", "LazyConnector._establish"): (_count("connections"),
                                              None, False),
}


def _hook_for(layer: str, qualname: str):
    hook = HOOKS.get((layer, qualname))
    if hook is None:
        hook = HOOKS.get((layer, qualname.rsplit(".", 1)[-1]))
    return hook


# ---------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------

def steps(tr: Tracer, gen, lid: int, post):
    """Delegate to ``gen`` one resume at a time, one span per resume
    that enters the layer."""
    send = None
    exc: Optional[BaseException] = None
    while True:
        span = tr.cur != lid and tr.cur >= 0 and not tr.opaque
        if span:
            tr.open(lid)
        try:
            if exc is None:
                item = gen.send(send)
            else:
                item, exc = gen.throw(exc), None
        except StopIteration as stop:
            if post is not None:
                post(tr, stop.value)
            return stop.value
        finally:
            if span:
                tr.close()
        try:
            send = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # re-delivered into gen above
            exc, send = err, None


def _wrap(tr: Tracer, fn: Callable, lid: int, hook) -> Callable:
    pre, post, boundary = hook if hook is not None else (None, None,
                                                           False)
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kw):
            counted = not boundary or tr.cur != lid
            if pre is not None and counted:
                pre(tr, args)
            return steps(tr, fn(*args, **kw), lid,
                          post if counted else None)
        return functools.wraps(fn)(gen_wrapper)

    def wrapper(*args, **kw):
        counted = not boundary or tr.cur != lid
        if pre is not None and counted:
            pre(tr, args)
        if tr.cur == lid or tr.cur < 0 or tr.opaque:
            result = fn(*args, **kw)
        else:
            tr.open(lid)
            try:
                result = fn(*args, **kw)
            finally:
                tr.close()
        if post is not None and counted:
            post(tr, result)
        return result
    return functools.wraps(fn)(wrapper)


def _wrap_build(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kw):
        if tr.opaque or tr.cur < 0:
            return fn(*args, **kw)
        tr.open(BUILD)
        tr.opaque += 1
        try:
            return fn(*args, **kw)
        finally:
            tr.opaque -= 1
            tr.close()
    return functools.wraps(fn)(wrapper)


def _wrappable(value) -> bool:
    return inspect.isfunction(value)


class Installation:
    """Applies the wrappers to the imported program; ``remove`` puts
    every original back."""

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        #: (owner, attribute, original raw attribute)
        self.patched: List[Tuple[object, str, object]] = []
        #: id(original function) -> wrapper, for rebinding imports
        self.replaced: Dict[int, Callable] = {}

    def _set(self, owner, name: str, raw, new_raw) -> None:
        self.patched.append((owner, name, raw))
        setattr(owner, name, new_raw)

    def _patch_attr(self, owner, name: str, raw, make) -> None:
        """Wrap a function, staticmethod or classmethod attribute."""
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            if not _wrappable(fn):
                return
            new = make(fn)
            self._set(owner, name, raw, type(raw)(new))
        elif _wrappable(raw):
            new = make(raw)
            self._set(owner, name, raw, new)
        else:
            return
        self.replaced[id(raw if _wrappable(raw) else raw.__func__)] = new

    def install(self) -> "Installation":
        tr = self.tr
        for modname in list(MODULE_LAYERS) + [m for m, _ in BUILD_ENTRIES]:
            importlib.import_module(modname)
        for modname, layer in MODULE_LAYERS.items():
            mod = sys.modules[modname]
            lid = LAYER_ID[layer]
            for name, raw in list(vars(mod).items()):
                if inspect.isclass(raw):
                    if raw.__module__ == modname:
                        self._patch_class(raw, layer, lid)
                elif _wrappable(raw) and raw.__module__ == modname:
                    self._patch_attr(
                        mod, name, raw,
                        lambda fn, n=name: _wrap(
                            tr, fn, lid, _hook_for(layer, n)))
        for modname, name in BUILD_ENTRIES:
            mod = sys.modules[modname]
            self._patch_attr(mod, name, vars(mod)[name],
                             lambda fn: _wrap_build(tr, fn))
        self._rebind_imports()
        return self

    def _patch_class(self, cls, layer: str, lid: int) -> None:
        if issubclass(cls, BaseException):
            return
        tr = self.tr
        for name, raw in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if layer == "channel" and name == "establish":
                self._patch_attr(cls, name, raw,
                                 lambda fn: _wrap_build(tr, fn))
                continue
            hook = _hook_for(layer, f"{cls.__name__}.{name}")
            self._patch_attr(cls, name, raw,
                             lambda fn, h=hook: _wrap(tr, fn, lid, h))

    def _rebind_imports(self) -> None:
        """Point ``from x import f`` copies in other modules at the
        wrapper too."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                new = self.replaced.get(id(value))
                if new is not None and value is not new:
                    self._set(mod, name, value, new)

    def remove(self) -> None:
        for owner, name, raw in reversed(self.patched):
            setattr(owner, name, raw)
        self.patched.clear()
        self.replaced.clear()
