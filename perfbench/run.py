"""End-to-end benchmark of the simulator and the simulated stack.

    python3 perfbench/run.py --workload mesh-ring --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
(the benchmark exits with an error, printing no result, when it is
missing).  Each workload runs in this one single-threaded process.

``--trace 0`` repeats the workload until ``--seconds`` have passed
(three repetitions at least) with tracing off, and reports every
end-to-end metric: host times as medians over the repetitions, and the
simulated results, which repeat exactly.  ``--trace 1`` runs the
workload once untraced, then twice with layer spans recorded, and
reports the per-layer metrics; the spans of the last traced run are
written to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import os

# single-threaded numpy (set before numpy is first imported)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: (name, unit, host or simulated); BENCHMARK.json lists the same
END_TO_END = (
    ("setup_s", "s", "host"),
    ("run_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_time_s", "s", "simulated"),
    ("sim_latency_us", "us", "simulated"),
    ("sim_bandwidth_MBps", "MB/s", "simulated"),
    ("paper_err_pct", "%", "simulated"),
)

#: (name, unit) of the traced run's metrics
PER_LAYER = (
    ("build.self_s", "s"), ("build.live_qps", "count"),
    ("build.pinned_mb", "MB"), ("build.teardown_s", "s"),
    ("engine.events", "count"), ("engine.events_per_msg", "events/msg"),
    ("engine.processes", "count"), ("engine.self_s", "s"),
    ("fluid.resolves", "count"),
    ("fluid.flows_per_resolve", "flows/resolve"), ("fluid.self_s", "s"),
    ("ch3.progress_calls", "count"),
    ("ch3.progress_useful_ratio", "ratio"), ("ch3.self_s", "s"),
    ("channel.puts", "count"), ("channel.gets", "count"),
    ("channel.get_useful_ratio", "ratio"), ("channel.self_s", "s"),
    ("ib.rdma_writes", "count"), ("ib.rdma_reads", "count"),
    ("ib.rdma_ops_per_msg", "ops/msg"), ("ib.sends", "count"),
    ("ib.self_s", "s"),
    ("hw.bytes_copied", "B"), ("hw.self_s", "s"),
    ("regcache.hit_ratio", "ratio"), ("regcache.misses", "count"),
    ("regcache.self_s", "s"),
    ("connect.connections", "count"), ("connect.self_s", "s"),
    ("mpi.msgs", "count"), ("mpi.self_s", "s"),
    ("nas.self_s", "s"),
    ("bench.self_s", "s"), ("trace.overhead_s", "s"),
)

MIN_REPS = 3
#: traced self times must account for the traced run phase this well
ACCOUNTING_TOL = 0.01


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    workloads; exit non-zero if the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from "
                 "the root of a checkout")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _sim_results(rep) -> tuple:
    return (rep.sim_time_s, rep.sim_latency_us, rep.sim_bandwidth_MBps,
            tuple(rep.counts.items()))


class Tally:
    """Correctness checks over every repetition of this process."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.errors: list = []

    def add(self, rep) -> None:
        self.attempted += rep.checks
        self.failed += rep.failed
        self.errors.extend(rep.errors)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def teardown_s(reps) -> float:
    """Median host seconds to drop one finished world and collect it,
    over every world the repetitions tore down (uncorrected: see
    ``hostclock``)."""
    return statistics.median(seg.raw_s - seg.probe_s for r in reps
                             for seg in r.segments["teardown"])


def measure(wl, name: str, seed: int, seconds: float, scale, tally: Tally,
            corrupt: bool) -> dict:
    """Untraced repetitions; returns the end-to-end metrics."""
    reps = []
    clock = hostclock.HostClock(probe=True)
    t0 = time.perf_counter()
    clock.start()
    try:
        while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
            rep = wl.run(name, seed, scale, clock=clock, corrupt=corrupt)
            tally.add(rep)
            reps.append(rep)
    finally:
        clock.stop()
    first = reps[0]
    tally.check(all(_sim_results(r) == _sim_results(first) for r in reps),
                "simulated results differ between repetitions")
    headline = first.headline
    if headline is None:
        extra = wl.Rep()
        headline = wl.headline_rows(extra, seed)
        tally.add(extra)
    print(f"workload {name}: seed {seed}, {len(reps)} repetitions in "
          f"{time.perf_counter() - t0:.1f} s")
    print("  headline row                    paper    measured  [sim]")
    for row, paper, value in headline:
        print(f"  {row:<28} {paper:>8.1f} {value:>11.3f}")
    host = {key: statistics.median(getattr(r, key) for r in reps)
            for key in ("setup_s", "run_s")}
    raw = {phase: statistics.median(r.raw[phase] for r in reps)
           for phase in ("setup", "run")}
    print(f"  host speed: {len(clock.samples)} reference samples, mean "
          f"slowdown {hostclock.slowdown(clock.samples):.3f}; uncorrected "
          f"medians setup_s {raw['setup']:.4f}, run_s {raw['run']:.4f}")
    print(f"  host teardown per world (median, ungated; the traced run "
          f"reports it as build.teardown_s): {teardown_s(reps):.4f} s")
    return {**host,
            "peak_rss_mb": _peak_rss_mb(),
            "sim_time_s": first.sim_time_s,
            "sim_latency_us": first.sim_latency_us,
            "sim_bandwidth_MBps": first.sim_bandwidth_MBps,
            "paper_err_pct": wl.paper_err_pct(headline)}


def measure_traced(wl, name: str, seed: int, scale, tally: Tally,
                   corrupt: bool) -> tuple:
    """One untraced and two traced repetitions; returns the per-layer
    metrics and the human-readable notes that go with them."""
    untraced = wl.run(name, seed, scale, corrupt=corrupt)
    tally.add(untraced)
    tracer = spans.Tracer()
    installation = spans.Installation(tracer).install()
    traced = []
    try:
        for _ in range(2):
            tracer.reset()
            rep = wl.run(name, seed, scale, tracer=tracer,
                         corrupt=corrupt)
            tally.add(rep)
            traced.append({
                "rep": rep, "self_s": tracer.self_times(),
                "counts": dict(tracer.counts),
                "run_self_s": sum(tracer.self_times("run").values()),
                "nested": tracer.nesting_ok(), "spans": len(tracer.start)})
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{name}.npz"
        tracer.save(str(span_file))
    finally:
        installation.remove()
        tracer.reset()

    first, last = traced
    rep, c, accounted = last["rep"], last["counts"], last["run_self_s"]
    tally.check(first["counts"] == c
                and _sim_results(first["rep"]) == _sim_results(rep),
                "counts differ between the two traced runs")
    tally.check(_sim_results(untraced) == _sim_results(rep),
                "tracing changed the simulated results")
    tally.check(first["nested"] and last["nested"], "spans do not nest")
    tally.check(abs(accounted - rep.run_s) <= ACCOUNTING_TOL * rep.run_s,
                f"layer self times account for {accounted:.4f} s of "
                f"traced run_s {rep.run_s:.4f} s")

    traced_run_s = (first["rep"].run_s + rep.run_s) / 2
    w = rep.counts
    msgs = c["msgs"]
    m = {
        "build.live_qps": w["live_qps"],
        "build.pinned_mb": w["pinned_bytes"] / 1e6,
        "build.teardown_s": teardown_s([untraced]),
        "engine.events": w["events"],
        "engine.events_per_msg": _ratio(w["events"], msgs),
        "engine.processes": c["processes"],
        "fluid.resolves": c["resolves"],
        "fluid.flows_per_resolve": _ratio(c["resolve_flows"],
                                          c["resolves"]),
        "ch3.progress_calls": c["progress_passes"],
        "ch3.progress_useful_ratio": _ratio(c["progress_useful"],
                                            c["progress_passes"]),
        "channel.puts": c["puts"],
        "channel.gets": c["gets"],
        "channel.get_useful_ratio": _ratio(c["gets_useful"], c["gets"]),
        "ib.rdma_writes": w["rdma_writes"],
        "ib.rdma_reads": w["rdma_reads"],
        "ib.sends": w["sends"],
        "ib.rdma_ops_per_msg": _ratio(w["rdma_writes"] + w["rdma_reads"],
                                      msgs),
        "hw.bytes_copied": w["bytes_copied"],
        "regcache.hit_ratio": _ratio(
            w["regcache_hits"], w["regcache_hits"] + w["regcache_misses"]),
        "regcache.misses": w["regcache_misses"],
        "connect.connections": c["connections"],
        "mpi.msgs": msgs,
        "trace.overhead_s": traced_run_s - untraced.run_s,
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (first["self_s"][layer]
                                + last["self_s"][layer]) / 2
    notes = [
        f"workload {name}: seed {seed}, traced twice, {last['spans']} spans "
        f"per traced run, written to {span_file.relative_to(ROOT)}",
        f"  traced run_s {traced_run_s:.4f} s, untraced run_s "
        f"{untraced.run_s:.4f} s: tracing overhead "
        f"{m['trace.overhead_s']:.4f} s",
        f"  layer self times in the run phase sum to {accounted:.4f} s "
        f"of traced run_s {rep.run_s:.4f} s",
        f"  engine.events_per_msg = {w['events']} events / {msgs} msgs",
        f"  ib.rdma_ops_per_msg = ({w['rdma_writes']} writes + "
        f"{w['rdma_reads']} reads) / {msgs} msgs; {w['sends']} sends",
        f"  fluid.flows_per_resolve = {c['resolve_flows']} flows / "
        f"{c['resolves']} resolves",
        f"  ch3.progress_useful_ratio = {c['progress_useful']} useful / "
        f"{c['progress_passes']} passes",
        f"  channel.get_useful_ratio = {c['gets_useful']} useful / "
        f"{c['gets']} gets",
    ]
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: 8-rank rings and one micro size")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one ring payload byte on the wire (the "
                         "self-test's negative check)")
    args = ap.parse_args(argv)

    wl = import_program()
    if args.workload not in wl.NAMES:
        ap.error(f"--workload must be one of {', '.join(wl.NAMES)}")
    scale = wl.SCALES[args.scale]
    # warm-up: imports, first calls and lazy module loads, untimed
    wl.run(args.workload, args.seed, wl.SCALES["tiny"], headline=False)

    tally = Tally()
    if args.trace:
        values, notes = measure_traced(wl, args.workload, args.seed,
                                       scale, tally, args.corrupt)
        table = [(name, unit, "layer") for name, unit in PER_LAYER]
    else:
        values = measure(wl, args.workload, args.seed, args.seconds,
                         scale, tally, args.corrupt)
        notes = []
        table = END_TO_END
    for line in notes:
        print(line)
    fail_ratio = _ratio(tally.failed, tally.attempted)
    print(f"  checks: {tally.attempted} attempted, {tally.failed} failed, "
          f"fail_ratio {fail_ratio:.6g}")
    for err in tally.errors[:10]:
        print(f"  FAILED: {err}")
    metrics = {}
    for name, unit, kind in table:
        value = float(values[name])
        if not math.isfinite(value):  # a failed run; JSON has no NaN
            value = 0.0
        print(f"  {kind:<9} {name:<28} {value:>16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
