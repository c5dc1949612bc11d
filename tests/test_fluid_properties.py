"""Max-min fairness properties of the component-local fluid solver.

:mod:`repro.sim.fluid` re-solves only the connected components of the
flow–resource graph that a start or finish touched.  That is exact
because max-min allocation over a disjoint union is the union of the
allocations — so this suite checks the allocation itself, not any
particular operation order.  Random start/finish sequences over
overlapping and independent components are replayed through a
:class:`FluidNetwork` and, after every re-solve:

* no resource is over capacity;
* every flow crosses a saturated resource on which its rate is
  maximal (the max-min optimality certificate);
* every rate agrees with a from-scratch global progressive-filling
  reference (below) to 1e-12 relative;
* every flow whose component the event did not touch keeps its rate
  bit-for-bit.

Completion times are compared with a global event-driven replay of
the same reference to 1e-12 relative.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.fluid import FluidNetwork, FluidResource

REL = 1e-12

# realistic capacity scales (memory buses, IB links) plus awkward
# non-round values that exercise the float arithmetic
CAPACITIES = [1e6, 7.5e7, 8.5e8, 1e9, 2.4e9, 3_333_333_333.0]

START_TIMES = [0.0, 0.0, 1e-6, 2e-6, 1e-3]

COSTS = [1.0, 1.0, 2.0, 3.0, 1.5, 2.25]


# ---------------------------------------------------------------------
# the reference: textbook progressive filling over the whole network
# ---------------------------------------------------------------------

def reference_rates(routes, caps):
    """Max-min fair payload rates for ``routes`` (each a dict from a
    resource index to its summed cost per byte): grow every unfixed
    flow at one rate until a resource saturates, freeze the flows
    crossing it, repeat."""
    rates = [0.0] * len(routes)
    residual = list(caps)
    unfixed = list(range(len(routes)))
    level = 0.0
    while unfixed:
        weight = [0.0] * len(caps)
        for i in unfixed:
            for r, c in routes[i].items():
                weight[r] += c
        delta = min(residual[r] / weight[r]
                    for r in range(len(caps)) if weight[r] > 0)
        level += delta
        for r in range(len(caps)):
            residual[r] -= weight[r] * delta
        saturated = [r for r in range(len(caps))
                     if weight[r] > 0 and residual[r] <= REL * caps[r]]
        frozen = [i for i in unfixed
                  if any(r in routes[i] for r in saturated)]
        for i in frozen:
            rates[i] = level
        unfixed = [i for i in unfixed if i not in frozen]
    return rates


def _finished(remaining, nbytes):
    # the network's completion rule: a micro-byte absolute tolerance
    return remaining <= max(1e-6, 1e-15 * nbytes)


def reference_completions(caps, transfers):
    """Completion time of every transfer under a global re-solve at
    every start and finish."""
    routes = [_summed(spec) for _at, _n, spec in transfers]
    pending = sorted(range(len(transfers)),
                     key=lambda k: (transfers[k][0], k))
    remaining = {}
    done = {}
    now = 0.0
    while pending or remaining:
        active = list(remaining)
        rates = dict(zip(active, reference_rates(
            [routes[k] for k in active], caps)))
        t_next = transfers[pending[0]][0] if pending else math.inf
        for k in active:
            t_next = min(t_next, now + remaining[k] / rates[k])
        for k in active:
            remaining[k] -= rates[k] * (t_next - now)
        now = t_next
        for k in active:
            if _finished(remaining[k], transfers[k][1]):
                del remaining[k]
                done[k] = now
        while pending and transfers[pending[0]][0] == now:
            k = pending.pop(0)
            if transfers[k][1] == 0:
                done[k] = now
            else:
                remaining[k] = float(transfers[k][1])
    return done


def _summed(route_spec):
    costs = {}
    for r, c in route_spec:
        costs[r] = costs.get(r, 0.0) + c
    return costs


# ---------------------------------------------------------------------
# the system under test, checked after every re-solve
# ---------------------------------------------------------------------

def _components(flows):
    """Map each resource to a component id (union-find over routes)."""
    parent = {}

    def find(r):
        parent.setdefault(r, r)
        while parent[r] is not r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for f in flows:
        first = find(f.route[0][0])
        for res, _c in f.route[1:]:
            root = find(res)
            if root is not first:
                parent[root] = first
    return find


class CheckedNetwork(FluidNetwork):
    """Checks the allocation after every re-solve."""

    def __init__(self, sim, resources):
        super().__init__(sim)
        self.resources = resources
        self.rates = {}
        self.resolves = 0

    def _reallocate(self):
        before = dict(self.rates)
        super()._reallocate()
        active = list(self._active)
        self.rates = {f: f.rate for f in active}
        if not active:
            return
        self.resolves += 1
        self._check_certificate(active)
        self._check_reference(active)
        self._check_untouched(before, active)

    def _check_certificate(self, active):
        for res in self.resources:
            load = sum(f.rate * c for f in res.flows
                       for r, c in f.route if r is res)
            assert load <= res.capacity * (1 + REL), res.name
        for f in active:
            assert any(self._bottleneck(res, f) for res, _c in f.route)

    @staticmethod
    def _bottleneck(res, flow):
        load = sum(g.rate * c for g in res.flows
                   for r, c in g.route if r is res)
        return (load >= res.capacity * (1 - REL)
                and all(flow.rate >= g.rate * (1 - REL)
                        for g in res.flows))

    def _check_reference(self, active):
        index = {r: i for i, r in enumerate(self.resources)}
        routes = [_summed([(index[r], c) for r, c in f.route])
                  for f in active]
        expect = reference_rates(routes,
                                 [r.capacity for r in self.resources])
        for f, want in zip(active, expect):
            assert f.rate == pytest.approx(want, rel=REL)

    def _check_untouched(self, before, active):
        """A flow in a component the event did not reach keeps its
        rate bit-for-bit."""
        changed = [f for f in before if f not in self.rates]
        changed += [f for f in active if f not in before]
        find = _components(active)
        touched = [find(res) for f in changed for res, _c in f.route]
        for f in active:
            if f in before and not any(find(f.route[0][0]) is t
                                       for t in touched):
                assert f.rate == before[f], f.label


@st.composite
def _scenarios(draw):
    ncaps = draw(st.integers(min_value=1, max_value=8))
    caps = draw(st.lists(st.sampled_from(CAPACITIES),
                         min_size=ncaps, max_size=ncaps))
    route = st.lists(
        st.tuples(st.integers(min_value=0, max_value=ncaps - 1),
                  st.sampled_from(COSTS)),
        min_size=1, max_size=3)
    transfers = draw(st.lists(
        st.tuples(st.sampled_from(START_TIMES),
                  st.integers(min_value=0, max_value=2_000_000),
                  route),
        min_size=1, max_size=10))
    return caps, transfers


def _run(caps, transfers):
    sim = Simulator()
    resources = [FluidResource(f"r{i}", c) for i, c in enumerate(caps)]
    net = CheckedNetwork(sim, resources)
    done = {}

    def start(key, nbytes, route_spec):
        route = [(resources[i], cost) for i, cost in route_spec]
        ev = net.transfer(nbytes, route, label=str(key))
        ev.add_callback(lambda e: done.__setitem__(key, sim.now))

    for key, (at, nbytes, route_spec) in enumerate(transfers):
        sim.call_at(at, start, key, nbytes, route_spec)
    sim.run()
    return net, done


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_allocation_is_max_min_fair_after_every_event(scenario):
    caps, transfers = scenario
    net, done = _run(caps, transfers)
    assert len(done) == len(transfers)
    assert not net._active


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_completion_times_match_global_reference(scenario):
    caps, transfers = scenario
    _net, done = _run(caps, transfers)
    expect = reference_completions(caps, transfers)
    assert sorted(done) == sorted(expect)
    for k, t in expect.items():
        assert done[k] == pytest.approx(t, rel=REL)


def test_event_in_one_component_leaves_the_other_untouched():
    """Two independent components: a start and a finish in one leave
    the other's rates bit-identical, while its own are re-solved."""
    sim = Simulator()
    a = FluidResource("a", 3_333_333_333.0)
    b = FluidResource("b", 1e9)
    net = FluidNetwork(sim)
    net.transfer(1e6, [(a, 3.0)], label="a0")
    net.transfer(2e6, [(a, 1.0), (a, 1.5)], label="a1")
    net.transfer(4e5, [(b, 1.0)], label="b0")
    rates = {f.label: f.rate for f in net.active_flows}
    net.transfer(1e6, [(b, 2.0)], label="b1")
    after = {f.label: f.rate for f in net.active_flows}
    assert after["a0"] == rates["a0"] and after["a1"] == rates["a1"]
    assert after["b0"] == after["b1"] == 1e9 / 3
    sim.run(until=4e5 / (1e9 / 3))  # b0 finishes
    assert [f.label for f in net.active_flows] == ["a0", "a1", "b1"]
    final = {f.label: f.rate for f in net.active_flows}
    assert final["a0"] == rates["a0"] and final["a1"] == rates["a1"]
    assert final["b1"] == 1e9 / 2


def test_single_flow_takes_the_closed_form():
    sim = Simulator()
    bus = FluidResource("bus", 1.6e9)
    link = FluidResource("link", 1e9)
    net = FluidNetwork(sim)
    net.transfer(4096, [(bus, 1.0), (link, 1.0), (bus, 2.0)])
    (flow,) = net.active_flows
    assert flow.rate == min(1.6e9 / 3.0, 1e9 / 1.0)


def test_shared_bottleneck_exact_split():
    """Two flows over one link: each gets half the wire (the paper's
    two-stream sharing case), to the last bit."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = FluidResource("link", 1e9)
    a = net.transfer(1e6, [(link, 1.0)])
    b = net.transfer(1e6, [(link, 1.0)])
    sim.run()
    assert a.triggered and b.triggered
    assert sim.now == 2e6 / 1e9
