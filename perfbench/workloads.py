"""The benchmark's four workloads and the harness that times them.

Every workload is a closed-loop batch job: each rank waits for its
peers, and a repetition ends when the event queue drains.  All inputs
come from the workload seed: payload bytes, the ring's neighbour
permutation, the ring message size (up to 28 bytes under 4 KiB),
the small-message probe size (4-16 B) and the NAS kernels' seeds.
Receivers check every payload against the seed's bytes.

A :class:`Rep` times the three phases of every world it runs: set-up
(``build_world`` / ``build_cluster``) and run (spawning the rank
programs until the queue drains), in host seconds corrected for the
machine's speed (see ``hostclock``), and teardown (dropping the world
and collecting it), uncorrected.  The cyclic collector is paused during
the run, as ``repro.mpi.run_mpi`` does.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import cluster as cluster_mod
from repro.bench import raw
from repro.config import KB, MB
from repro.mpi import runner
from repro.nas import ft, is_, mg
from repro.sim.engine import SimulationError

import hostclock
import spans as tracing

NAMES = ("paper-micro", "mesh-ring", "lazy-ring", "nas-w8")

#: the paper's headline numbers, as ``repro.bench.figures.headline``
#: states and measures them: (row, paper value, kind, design, sizes,
#: windows).  The self-test checks these rows reproduce it exactly.
HEADLINE = (
    ("raw latency (us)", 5.9, "raw-lat", None, (4,), 0),
    ("raw write peak bw (MB/s)", 870, "raw-bw", None, (1 * MB,), 4),
    ("basic latency (us)", 18.6, "lat", "basic", (4,), 0),
    ("basic peak bw (MB/s)", 230, "bw", "basic", (16 * KB, 64 * KB), 3),
    ("piggyback latency (us)", 7.4, "lat", "piggyback", (4,), 0),
    ("pipeline peak bw (MB/s)", 500, "bw", "pipeline",
     (64 * KB, 256 * KB), 3),
    ("zero-copy latency (us)", 7.6, "lat", "zerocopy", (4,), 0),
    ("zero-copy peak bw (MB/s)", 857, "bw", "zerocopy", (1 * MB,), 4),
)
#: ping-pong iterations (after warm-up) of the headline latency rows
#: and of the sweeps
HEADLINE_ITERS, SWEEP_ITERS, LAT_WARMUP = 50, 40, 10
BW_WINDOW, BW_WARMUP = 16, 1


@dataclass(frozen=True)
class Scale:
    mesh_ranks: int
    lazy_ranks: int
    ring_iters: int
    nas_class: str
    nas_ranks: int
    lat_sizes: tuple
    bw_sizes: tuple


SCALES = {
    "full": Scale(mesh_ranks=256, lazy_ranks=512, ring_iters=2,
                  nas_class="W", nas_ranks=8,
                  lat_sizes=tuple(4 << (2 * i) for i in range(7)),
                  bw_sizes=tuple(4 << (2 * i) for i in range(8))
                  + (256 * KB, 1 * MB)),
    # the self-test's size: 8-rank rings, one micro size
    "tiny": Scale(mesh_ranks=8, lazy_ranks=8, ring_iters=2,
                  nas_class="T", nas_ranks=8,
                  lat_sizes=(4,), bw_sizes=(4 * KB,)),
}


def pattern(seed: int, *key: int, size: int) -> np.ndarray:
    """The seed's payload bytes for one message."""
    rng = np.random.default_rng([seed, *key])
    return rng.integers(0, 256, size, dtype=np.uint8)


class Rep:
    """One repetition of a workload: phase timings, simulated results,
    correctness checks and the world-level counts of every world run."""

    def __init__(self, clock: Optional[hostclock.HostClock] = None,
                 tracer: Optional[tracing.Tracer] = None):
        self.clock = clock if clock is not None else hostclock.HostClock(
            probe=False)
        self.tracer = tracer
        #: phase -> timed segments, one per world
        self.segments: Dict[str, list] = {
            "setup": [], "run": [], "teardown": []}
        #: host seconds of set-up and run (set by finish), and the
        #: uncorrected seconds of every phase
        self.setup_s = self.run_s = 0.0
        self.raw: Dict[str, float] = {}
        self.sim_time_s = 0.0
        self.sim_latency_us = math.nan
        self.sim_bandwidth_MBps = math.nan
        self.headline: Optional[List[tuple]] = None
        self.checks = self.failed = 0
        self.errors: List[str] = []
        self.counts: Dict[str, float] = dict.fromkeys(
            ("events", "rdma_writes", "rdma_reads", "sends", "bytes_copied",
             "regcache_hits", "regcache_misses", "live_qps",
             "pinned_bytes", "sim_time_s"), 0)

    # -- correctness -----------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def check_value(self, value: float, what: str) -> None:
        self.check(math.isfinite(value) and value > 0,
                   f"{what}: {value!r} is not finite and positive")

    # -- phases ----------------------------------------------------------
    def _enter(self, phase: str) -> tuple:
        if self.tracer is not None:
            self.tracer.open_phase(phase)
        # set-up phases are short: sample them densely
        return self.clock.mark(dense=phase == "setup")

    def _leave(self, phase: str, mark: tuple) -> None:
        self.segments[phase].append(self.clock.segment(mark))
        if self.tracer is not None:
            self.tracer.close()

    def finish(self) -> "Rep":
        """Total set-up and run host seconds over the worlds run,
        corrected for the host's speed."""
        for phase, segs in self.segments.items():
            self.raw[phase] = sum(seg.raw_s - seg.probe_s for seg in segs)
        self.run_s = hostclock.corrected(self.segments["run"])
        # a set-up too short to sample (a few small worlds) takes the
        # slowdown seen while its worlds ran
        self.setup_s = hostclock.corrected(
            self.segments["setup"],
            hostclock.slowdown([x for seg in self.segments["run"]
                                for x in seg.samples]))
        return self

    def world(self, nranks: int, design: str, prog: Callable, *args
              ) -> bool:
        """Build a world, run ``prog(mpi, rep, *args)`` on every rank,
        tear it down; False if the simulation failed."""
        mark = self._enter("setup")
        world = runner.build_world(nranks, design)
        self._leave("setup", mark)
        gens = [(prog(ctx, self, *args), f"rank{ctx.rank}")
                for ctx in world.contexts]
        ok = self._run(world.cluster, gens, world)
        mark = self._enter("teardown")
        del world, gens
        gc.collect()
        self._leave("teardown", mark)
        return ok

    def cluster(self, main: Callable) -> bool:
        """Run ``main(cluster)`` on a bare two-node cluster."""
        mark = self._enter("setup")
        cluster = cluster_mod.build_cluster(2)
        self._leave("setup", mark)
        ok = self._run(cluster, [(main(cluster), "bench-main")])
        mark = self._enter("teardown")
        del cluster
        gc.collect()
        self._leave("teardown", mark)
        return ok

    def _run(self, cluster, gens, world=None) -> bool:
        tr = self.tracer
        if tr is not None:
            gens = [(tracing.steps(tr, g, tracing.BENCH, None), name)
                    for g, name in gens]
        gc.disable()
        mark = self._enter("run")
        try:
            for g, name in gens:
                cluster.spawn(g, name)
            cluster.run()
            failure = None
        except SimulationError as exc:
            failure = exc
        finally:
            self._leave("run", mark)
            gc.enable()
        self.sim_time_s += cluster.sim.now
        self._tally(cluster, world)
        if failure is not None:
            cause = failure.__cause__
            self.check(False, f"simulation failed: {failure}"
                       + (f" ({cause!r})" if cause else ""))
            return False
        return True

    def _tally(self, cluster, world) -> None:
        c = self.counts
        c["events"] += cluster.sim.events_processed
        c["sim_time_s"] += cluster.sim.now
        for node in cluster.nodes:
            c["rdma_writes"] += node.hca.stats.rdma_writes
            c["rdma_reads"] += node.hca.stats.rdma_reads
            c["sends"] += node.hca.stats.sends
            c["bytes_copied"] += node.membus.bytes_copied
        c["live_qps"] = max(c["live_qps"], cluster.live_qps())
        c["pinned_bytes"] = max(c["pinned_bytes"], cluster.pinned_bytes())
        if world is not None:
            for dev in world.devices:
                cache = getattr(dev.channel, "regcache", None)
                if cache is not None:
                    c["regcache_hits"] += cache.hits
                    c["regcache_misses"] += cache.misses


# ---------------------------------------------------------------------
# rank programs (host-side checks cost no simulated time)
# ---------------------------------------------------------------------

def pingpong(mpi, rep: Rep, size: int, iters: int, warmup: int,
             seed: int, out: dict):
    """``repro.bench.micro``'s ping-pong between ranks 0 and 1, each
    side checking the bytes it receives.  Stores the half round trip
    (seconds) in ``out["latency"]``."""
    if mpi.rank > 1:
        return None
    send = mpi.alloc(size, "lat.send")
    recv = mpi.alloc(size, "lat.recv")
    peer = 1 - mpi.rank
    send.view()[:] = pattern(seed, 1, mpi.rank, size=size)
    expect = pattern(seed, 1, peer, size=size)
    rv = recv.view()
    start = 0.0
    for i in range(iters + warmup):
        if mpi.rank == 0:
            if i == warmup:
                start = mpi.wtime()
            yield from mpi.Send(send, dest=1, tag=1)
        rv[:] = 0
        yield from mpi.Recv(recv, source=peer, tag=1)
        rep.check(np.array_equal(rv, expect),
                  f"ping-pong {size} B: payload mismatch at rank "
                  f"{mpi.rank}")
        if mpi.rank == 1:
            yield from mpi.Send(send, dest=0, tag=1)
    if mpi.rank == 0:
        out["latency"] = (mpi.wtime() - start) / iters / 2.0
    return None


def bandwidth(mpi, rep: Rep, size: int, windows: int, seed: int,
              out: dict):
    """``repro.bench.micro``'s windowed bandwidth from rank 0 to 1;
    the receiver checks its buffer after every window.  Stores bytes
    per second in ``out["bandwidth"]``."""
    if mpi.rank > 1:
        return None
    send = mpi.alloc(size, "bw.send")
    recv = mpi.alloc(size, "bw.recv")
    payload = pattern(seed, 2, size=size)
    send.view()[:] = payload
    ack = mpi.alloc(4, "bw.ack")
    rv = recv.view()
    start = 0.0
    for w in range(windows + BW_WARMUP):
        reqs = []
        if mpi.rank == 0:
            if w == BW_WARMUP:
                start = mpi.wtime()
            for _ in range(BW_WINDOW):
                r = yield from mpi.Isend(send, dest=1, tag=2)
                reqs.append(r)
            yield from mpi.Waitall(reqs)
            yield from mpi.Recv(ack, source=1, tag=3)
        else:
            rv[:] = 0
            for _ in range(BW_WINDOW):
                r = yield from mpi.Irecv(recv, source=0, tag=2)
                reqs.append(r)
            yield from mpi.Waitall(reqs)
            rep.check(np.array_equal(rv, payload),
                      f"bandwidth {size} B: payload mismatch")
            yield from mpi.Send(ack, dest=0, tag=3)
    if mpi.rank == 0:
        out["bandwidth"] = size * BW_WINDOW * windows / (mpi.wtime()
                                                         - start)
    return None


def _raw_main(measure: Callable, out: dict, key: str):
    def main(cluster):
        out[key] = yield from measure(cluster)
    return main


def latency_us(rep: Rep, design: str, size: int, iters: int,
               seed: int) -> float:
    out: dict = {}
    rep.world(2, design, pingpong, size, iters, LAT_WARMUP, seed, out)
    return out.get("latency", math.nan) * 1e6


def bandwidth_MBps(rep: Rep, design: str, size: int, windows: int,
                   seed: int) -> float:
    out: dict = {}
    rep.world(2, design, bandwidth, size, windows, seed, out)
    return out.get("bandwidth", math.nan) / MB


def headline_rows(rep: Rep, seed: int) -> List[tuple]:
    """Measure the eight headline rows: (row, paper, measured)."""
    rows = []
    for row, paper, kind, design, sizes, windows in HEADLINE:
        out: dict = {}
        if kind == "raw-lat":
            rep.cluster(_raw_main(
                lambda c: raw.vapi_latency(c, sizes[0]), out, "v"))
            value = out.get("v", math.nan) * 1e6
        elif kind == "raw-bw":
            rep.cluster(_raw_main(
                lambda c: raw.vapi_bandwidth(c, sizes[0],
                                             windows=windows), out, "v"))
            value = out.get("v", math.nan) / MB
        elif kind == "lat":
            value = latency_us(rep, design, sizes[0], HEADLINE_ITERS,
                               seed)
        else:
            value = max(bandwidth_MBps(rep, design, s, windows, seed)
                        for s in sizes)
        rep.check_value(value, row)
        rows.append((row, paper, value))
    return rows


def paper_err_pct(rows: List[tuple]) -> float:
    """Mean absolute relative error of the headline rows, percent."""
    return 100.0 * sum(abs(m - p) / p for _row, p, m in rows) / len(rows)


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------

class RingPlan:
    """Seed-made inputs of a ring: neighbours, size, payloads."""

    def __init__(self, seed: int, nranks: int, iters: int,
                 corrupt: bool = False):
        rng = np.random.default_rng([seed, nranks])
        order = rng.permutation(nranks)
        pos = np.empty(nranks, dtype=np.intp)
        pos[order] = np.arange(nranks)
        self.right = order[(pos + 1) % nranks].tolist()
        self.left = order[(pos - 1) % nranks].tolist()
        self.iters = iters
        self.size = 4 * KB - 4 * int(rng.integers(0, 8))
        self.payload = rng.integers(0, 256, (nranks, iters, self.size),
                                    dtype=np.uint8)
        #: one sender puts a flipped byte on the wire (self-test only)
        self.corrupt_rank = int(order[0]) if corrupt else None
        self.posted = np.zeros((nranks, iters))
        self.latency_sum = 0.0


def ring(mpi, rep: Rep, plan: RingPlan):
    """Pass a message to the right neighbour and receive one from the
    left, ``plan.iters`` times; check each received payload and record
    its post-to-delivery simulated latency."""
    me = mpi.rank
    right, left = plan.right[me], plan.left[me]
    send = mpi.alloc(plan.size, "ring.send")
    recv = mpi.alloc(plan.size, "ring.recv")
    sv, rv = send.view(), recv.view()
    for it in range(plan.iters):
        sv[:] = plan.payload[me, it]
        if me == plan.corrupt_rank and it == 0:
            sv[0] ^= 0xFF
        plan.posted[me, it] = mpi.wtime()
        sreq = yield from mpi.Isend(send, dest=right, tag=it)
        rv[:] = 0
        yield from mpi.Recv(recv, source=left, tag=it)
        plan.latency_sum += mpi.wtime() - plan.posted[left, it]
        rep.check(np.array_equal(rv, plan.payload[left, it]),
                  f"ring: rank {me} got a corrupt payload from {left} "
                  f"(iteration {it})")
        yield from mpi.Wait(sreq)
    return None


def run_ring(rep: Rep, seed: int, nranks: int, design: str, iters: int,
             corrupt: bool) -> None:
    plan = RingPlan(seed, nranks, iters, corrupt)
    t0 = rep.sim_time_s
    if not rep.world(nranks, design, ring, plan):
        return
    sim_s = rep.sim_time_s - t0
    msgs = nranks * iters
    rep.sim_latency_us = plan.latency_sum / msgs * 1e6
    rep.sim_bandwidth_MBps = msgs * plan.size / sim_s / MB


def nas_program(mpi, rep: Rep, klass: str, seeds: list, probe: int,
                out: dict):
    """MG, FT and IS back to back in one world, then the small-message
    probe and the 1 MiB bandwidth test between ranks 0 and 1."""
    kernels = ((mg, "mg_kernel"), (ft, "ft_kernel"), (is_, "is_kernel"))
    for (module, name), seed in zip(kernels, seeds):
        # looked up per call, so a traced run sees the wrapped kernel
        result = yield from getattr(module, name)(mpi, klass, seed)
        rep.check(result.verified,
                  f"{name} class {klass} not verified on rank "
                  f"{mpi.rank}")
        yield from mpi.Barrier()
    if mpi.rank == 0:
        out["kernels_s"] = mpi.wtime()
    yield from pingpong(mpi, rep, probe, HEADLINE_ITERS, LAT_WARMUP,
                        seeds[0], out)
    yield from bandwidth(mpi, rep, 1 * MB, 4, seeds[0], out)
    return None


def run_nas(rep: Rep, seed: int, scale: Scale) -> None:
    rng = np.random.default_rng([seed, 8])
    seeds = [int(s) for s in rng.integers(1, 1 << 30, 3)]
    out: dict = {}
    t0 = rep.sim_time_s
    if not rep.world(scale.nas_ranks, "zerocopy", nas_program,
                     scale.nas_class, seeds, probe_size(seed), out):
        return
    # the kernels' completion time, without the probe after them
    rep.sim_time_s = t0 + out["kernels_s"]
    rep.sim_latency_us = out["latency"] * 1e6
    rep.sim_bandwidth_MBps = out["bandwidth"] / MB
    for key in ("latency", "bandwidth"):
        rep.check_value(out[key], f"nas-w8 probe {key}")


def probe_size(seed: int) -> int:
    """The small-message probe size: 4, 8, 12 or 16 bytes."""
    return 4 * (1 + int(np.random.default_rng([seed, 4]).integers(0, 4)))


def run_micro(rep: Rep, seed: int, scale: Scale, headline: bool) -> None:
    if headline:
        rep.headline = headline_rows(rep, seed)
        rep.sim_bandwidth_MBps = rep.headline[-1][2]
    for design in ("zerocopy", "ch3"):
        for size in scale.lat_sizes:
            rep.check_value(
                latency_us(rep, design, size, SWEEP_ITERS, seed),
                f"{design} latency {size} B")
        for size in scale.bw_sizes:
            rep.check_value(bandwidth_MBps(rep, design, size, 4, seed),
                            f"{design} bandwidth {size} B")
    rep.sim_latency_us = latency_us(rep, "zerocopy", probe_size(seed),
                                    HEADLINE_ITERS, seed)
    rep.check_value(rep.sim_latency_us, "zero-copy probe latency")


def run(name: str, seed: int, scale: Scale,
        clock: Optional[hostclock.HostClock] = None,
        tracer: Optional[tracing.Tracer] = None,
        corrupt: bool = False, headline: bool = True) -> Rep:
    """One repetition of workload ``name`` (``headline=False`` skips
    the headline rows of ``paper-micro``, for a warm-up)."""
    rep = Rep(clock, tracer)
    if name == "paper-micro":
        run_micro(rep, seed, scale, headline)
    elif name == "mesh-ring":
        run_ring(rep, seed, scale.mesh_ranks, "basic", scale.ring_iters,
                 corrupt)
    elif name == "lazy-ring":
        run_ring(rep, seed, scale.lazy_ranks, "srq-lazy",
                 scale.ring_iters, corrupt)
    elif name == "nas-w8":
        run_nas(rep, seed, scale)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return rep.finish()
