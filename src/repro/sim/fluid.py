"""Max-min fair fluid-flow network.

This is the bandwidth model underlying both the InfiniBand fabric and
the per-node memory buses.  A *flow* moves ``nbytes`` of payload along a
*route* — a list of ``(resource, cost_per_byte)`` pairs — occupying all
resources on its route **simultaneously** (cut-through, not
store-and-forward).  ``cost_per_byte`` expresses that a payload byte may
consume more than one byte of a resource's capacity: e.g. a memcpy
consumes 2 bus-bytes per payload byte (read + write), 3 if the source
misses the cache (read miss + write allocate + write-back).

Rates are allocated by **progressive filling** (max-min fairness with
per-resource cost weights): all unfixed flows grow at the same payload
rate until some resource saturates; flows crossing that resource are
frozen at the bottleneck rate; repeat.  Whenever the set of active
flows changes, every flow's progress is advanced to the current time
and the allocation of each component the change touched is
recomputed, so completion times are exact for the piecewise-constant
rate schedule.

This model is what makes the paper's central results emerge
mechanically rather than by curve fitting:

* a single large RDMA write spans sender-bus → link → receiver-bus and
  streams at the min share across them;
* a memcpy running concurrently with a DMA on the same node shares the
  memory bus, which caps the pipelined design near ``bus_bw / 3``;
* two MPI streams over one link each get half the wire.

Component-local re-solve
------------------------
Max-min fairness splits exactly over the connected components of the
flow–resource graph (flows joined through the resources they share):
the allocation over a disjoint union is the union of the
allocations.  A component no event touched therefore keeps its
rates, and a re-solve only has to revisit what changed.  A flow's
start or finish marks the resources on its route; the next re-solve
walks ``res.flows`` from each marked resource to the closure of
active flows reachable from it, splits that closure into its
components, and solves each one on its own, leaving every other
flow's rate untouched.

* A single-flow component — the common case in a large world — takes
  the closed form ``min(capacity / summed cost)`` over its route.
* A larger component runs progressive filling over numpy arrays: one
  division and one argmin across its resources per filling level,
  plus a *zero-cascade* that retires every already-saturated resource
  in one pass.  Its flows are taken in creation order, so a
  component's rates are a function of its flow set alone, not of
  which event found it.

``tests/test_fluid_properties.py`` checks the result against a
from-scratch global progressive-filling reference and the max-min
optimality certificate, and that an event in one component leaves
every other component's rates bit-identical.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import Event, Simulator

__all__ = ["FluidResource", "Flow", "FluidNetwork"]

_EPS = 1e-15

#: creation-order ids: a component's flows are solved in uid order
_flow_uids = itertools.count()
_by_uid = operator.attrgetter("uid")


class FluidResource:
    """A capacity-limited resource (a link direction or a memory bus).

    ``capacity`` is in resource-bytes per second.
    """

    __slots__ = ("name", "capacity", "flows", "busy_time",
                 "_busy_since", "bytes_served")

    def __init__(self, name: str, capacity: float):
        # written so that NaN fails too: every comparison with NaN is
        # false
        if not (0 < capacity < math.inf):
            raise ValueError(
                f"capacity must be positive and finite, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        #: active flows crossing this resource, in start order
        self.flows: List["Flow"] = []
        # utilization accounting (for stats / debugging)
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        self.bytes_served = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FluidResource {self.name} cap={self.capacity:.3g}>"


class Flow:
    """One in-flight transfer."""

    __slots__ = ("uid", "nbytes", "remaining", "route", "rate", "done",
                 "label", "started_at", "finished_at", "_pairs", "_idx")

    def __init__(self, nbytes: float,
                 route: Sequence[Tuple[FluidResource, float]],
                 label: str = ""):
        self.uid = next(_flow_uids)
        if not (0 <= nbytes < math.inf):
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        if not route:
            raise ValueError("route must contain at least one resource")
        for _res, cost in route:
            if not (0 < cost < math.inf):
                raise ValueError(
                    f"cost_per_byte must be positive and finite, got {cost}")
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.route = list(route)
        self.rate = 0.0  # payload bytes / second, set by the network
        self.done: Optional[Event] = None
        self.label = label
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Routes are immutable, so the per-resource summed costs (a
        # flow may cross the same bus twice) are computed once, in
        # first-appearance order along the route.
        summed: Dict[FluidResource, float] = {}
        for res, cost in route:
            summed[res] = summed.get(res, 0.0) + float(cost)
        self._pairs = list(summed.items())
        #: position in the component being solved
        self._idx = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.label} {self.remaining:.0f}/{self.nbytes:.0f}B"
                f" @{self.rate:.3g}B/s>")


class FluidNetwork:
    """Tracks active flows over a set of resources and computes exact
    completion times under max-min fair sharing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: active flows in start order (a dict for O(1) removal)
        self._active: Dict[Flow, None] = {}
        #: resources whose flow set changed since the last re-solve
        self._dirty: List[FluidResource] = []
        self._wake_handle: Optional[Any] = None
        self._last_update = 0.0

    # -- public API ------------------------------------------------------
    def transfer(self, nbytes: float,
                 route: Sequence[Tuple[FluidResource, float]],
                 label: str = "") -> Event:
        """Start a transfer; the returned event fires when the last
        payload byte has moved.  Zero-byte transfers complete at once.
        """
        flow = Flow(nbytes, route, label)
        flow.done = self.sim.event()
        flow.started_at = self.sim.now
        if flow.remaining <= _EPS:
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            return flow.done
        self._advance()
        self._active[flow] = None
        for res, _cost in flow._pairs:
            res.flows.append(flow)
            self._dirty.append(res)
            if res._busy_since is None:
                res._busy_since = self.sim.now
        self._reallocate()
        return flow.done

    @property
    def active_flows(self) -> List[Flow]:
        return list(self._active)

    # -- internals ---------------------------------------------------------
    def _advance(self) -> None:
        """Move all active flows forward to the current time at their
        current rates, completing any that finish."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._active:
            return
        finished: List[Flow] = []
        for flow in self._active:
            moved = flow.rate * dt
            flow.remaining -= moved
            for res, cost in flow.route:
                res.bytes_served += moved * cost
            # Absolute tolerance of a micro-byte: payloads are whole
            # bytes, and float residue must not strand a flow in a
            # zero-dt reschedule loop.
            if flow.remaining <= max(1e-6, _EPS * flow.nbytes):
                flow.remaining = 0.0
                finished.append(flow)
        for flow in finished:
            self._detach(flow)
            flow.finished_at = now
            flow.done.succeed(flow)

    def _detach(self, flow: Flow) -> None:
        del self._active[flow]
        for res, _cost in flow._pairs:
            res.flows.remove(flow)
            self._dirty.append(res)
            if not res.flows and res._busy_since is not None:
                res.busy_time += self.sim.now - res._busy_since
                res._busy_since = None

    def _reallocate(self) -> None:
        """Re-solve the components touched since the last call, then
        schedule the next completion wakeup."""
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        if not self._active:
            self._dirty.clear()
            return
        self._alloc_vector()

        # next completion
        next_done = float("inf")
        for flow in self._active:
            rate = flow.rate
            if rate > _EPS:
                t = flow.remaining / rate
                if t < next_done:
                    next_done = t
        if next_done < float("inf"):
            if self.sim.now + next_done <= self.sim.now:
                # The residual transfer time is below the float
                # resolution of the current timestamp (large t, tiny
                # remainder): the clock cannot advance, so complete
                # the sub-resolution flows right here instead of
                # scheduling a wakeup that would spin at now forever.
                finished = [f for f in self._active
                            if f.rate > _EPS
                            and self.sim.now + f.remaining / f.rate
                            <= self.sim.now]
                for flow in finished:
                    flow.remaining = 0.0
                    self._detach(flow)
                    flow.finished_at = self.sim.now
                    flow.done.succeed(flow)
                self._reallocate()
                return
            self._wake_handle = self.sim.call_in(next_done, self._wakeup)

    def _alloc_vector(self) -> None:
        """One re-solve: find the components reachable from the dirty
        resources and allocate each one; every other flow keeps its
        rate (see the module docstring)."""
        dirty, self._dirty = self._dirty, []
        seen: Dict[FluidResource, None] = {}
        for seed in dirty:
            if seed in seen:
                continue
            seen[seed] = None
            comp: Dict[Flow, None] = {}
            stack = [seed]
            while stack:
                for flow in stack.pop().flows:
                    if flow in comp:
                        continue
                    comp[flow] = None
                    for res, _cost in flow._pairs:
                        if res not in seen:
                            seen[res] = None
                            stack.append(res)
            if len(comp) == 1:
                (flow,) = comp
                flow.rate = min(res.capacity / cost
                                for res, cost in flow._pairs)
            elif comp:
                _fill(sorted(comp, key=_by_uid))

    def _wakeup(self) -> None:
        self._wake_handle = None
        self._advance()
        self._reallocate()

    # -- stats ---------------------------------------------------------
    def utilization(self, res: FluidResource, horizon: float) -> float:
        """Fraction of ``horizon`` during which ``res`` had active flows."""
        busy = res.busy_time
        if res._busy_since is not None:
            busy += self.sim.now - res._busy_since
        return busy / horizon if horizon > 0 else 0.0


def _fill(flows: List[Flow]) -> None:
    """Progressive filling over one connected component: all unfixed
    flows grow at the same payload rate until a resource saturates,
    the flows crossing it freeze at that rate, repeat."""
    col: Dict[FluidResource, int] = {}
    res_of_col: List[FluidResource] = []
    wl: List[float] = []
    for i, flow in enumerate(flows):
        flow._idx = i
        for res, cost in flow._pairs:
            j = col.get(res)
            if j is None:
                j = col[res] = len(wl)
                res_of_col.append(res)
                wl.append(0.0)
            wl[j] += cost
    m = len(wl)
    residual = np.array([r.capacity for r in res_of_col], dtype=np.float64)
    w = np.array(wl, dtype=np.float64)
    unfixed = [True] * len(flows)
    n_unfixed = len(flows)

    def freeze(j: int, level: float) -> None:
        """Freeze every unfixed flow crossing column j at ``level``."""
        nonlocal n_unfixed
        for flow in res_of_col[j].flows:
            if unfixed[flow._idx]:
                flow.rate = level
                unfixed[flow._idx] = False
                n_unfixed -= 1
                for res, c in flow._pairs:
                    w[col[res]] -= c
        w[j] = 0.0

    inf = float("inf")
    level = 0.0
    while n_unfixed:
        wmask = w > _EPS
        d = np.divide(residual, w, out=np.full(m, inf), where=wmask)
        dmin = d.min()
        if dmin == 0.0:
            # Zero-cascade: every saturated column freezes its
            # crossers at the current level in one pass.
            for j in np.nonzero((residual == 0.0) & wmask)[0]:
                if w[j] > _EPS:
                    freeze(int(j), level)
            continue
        j0 = int(np.argmin(d))
        level += float(dmin)
        # the residual update uses the pre-freeze weights
        residual -= w * dmin
        residual[residual < 0.0] = 0.0
        freeze(j0, level)
