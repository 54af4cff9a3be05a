"""One benchmark process: set up one workload, run it, report.

Started by ``run.py`` in a fresh interpreter, so no run inherits another
run's heap; it also works standalone::

    python3 -W error::DeprecationWarning e2ebench/worker.py \\
        --workload launch_churn --seed 1 --ops 6000 --trace 0

Prints one JSON object as its last line.  Set-up (boot, input staging,
log-in or window opening, warm-up) is timed on its own.  The process runs
on one CPU (:func:`pin_to_one_cpu`) and times the host as it goes
(:class:`HostProbe`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from stats import (NOMINAL_OPS_PER_S, PROBE_EVERY_S, PROBE_READS,  # noqa: E402
                   PROBE_TABLE, REFERENCE_S, percentile, quantile)
import tracing  # noqa: E402
import workloads  # noqa: E402


def build(name: str, seed: int, ops: int):
    if name == "shell_session":
        return workloads.ShellSession(seed, ops)
    if name == "launch_churn":
        return workloads.LaunchChurn(seed, ops, os.cpu_count() or 1)
    if name == "remote_exec":
        return workloads.RemoteExec(seed, ops)
    if name == "gui_events":
        return workloads.GuiEvents(seed, ops, NOMINAL_OPS_PER_S[name])
    raise SystemExit(f"unknown workload {name!r}")


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The program's threads hand work to each other all the time (the
    launcher to the scheduler loop, a writer to a reader, the generator
    to a dispatch thread), and the GIL lets only one of them run at a
    time anyway.  On a shared host the other virtual CPU may be
    descheduled for a while, and a hand-off to it waits; on one CPU a
    hand-off is a plain context switch.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostProbe:
    """Times a fixed walk through memory every ``every`` operations of
    the timed phase.

    On a shared host the same work takes up to half as long again in one
    minute as in the next, CPU time included, mostly because other
    tenants compete for the caches and memory: the full collections over
    the program's heap slow down most.  The probe reads one word from
    each of :data:`~stats.PROBE_READS` tuples spread at random over a
    table of :data:`~stats.PROBE_TABLE` (about 30 MB, more than the
    caches hold), so its time follows the host's memory latency and
    nothing of the program.  Timed between operations all through the
    phase, its median over :data:`~stats.REFERENCE_S` is how much slower
    than nominal the host ran while the program did.  The time spent here
    is taken out of the phase's CPU time, and out of its wall time unless
    the workload is an open loop, whose walks fill gaps in its schedule.
    """

    def __init__(self, every: int):
        self.every = every
        self._next = every
        self.times = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        table = [(index, -index) for index in range(PROBE_TABLE)]
        random.Random(PROBE_TABLE).shuffle(table)
        # A tuple of tuples of ints: once collected, the collector stops
        # tracking all of it, so it adds nothing to the program's
        # collections.
        self._table = tuple(table)
        self._stride = PROBE_TABLE // PROBE_READS
        del table
        gc.collect()

    def walk(self) -> float:
        """Seconds one walk takes."""
        offset = len(self.times) % self._stride
        started = time.perf_counter()
        total = 0
        for item in self._table[offset::self._stride]:
            total += item[0]
        return time.perf_counter() - started

    def __call__(self, done: int) -> None:
        if done < self._next:
            return
        self._next = (done // self.every + 1) * self.every
        cpu = time.process_time()
        took = self.walk()
        self.cpu_s += time.process_time() - cpu
        self.times.append(took)
        self.wall_s += took

    def slowdown(self) -> float:
        if not self.times:  # a plan shorter than one interval
            self.times.append(self.walk())
        return statistics.median(self.times) / REFERENCE_S


def rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class GcWatch:
    """Full (generation 2) collections and their pauses, via gc.callbacks."""

    def __init__(self):
        self.count = 0
        self.ns = 0
        self._started = None
        self.active = False

    def __call__(self, phase, info) -> None:
        if not self.active or info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter_ns()
        elif self._started is not None:
            self.count += 1
            self.ns += time.perf_counter_ns() - self._started
            self._started = None


def layer_counters(vms) -> dict:
    """The program's own telemetry, summed over every hub the run uses."""
    from repro.telemetry import GLOBAL_HUB

    hubs = [vm.vm.telemetry for vm in vms] + [GLOBAL_HUB]
    totals = {}
    for name in ("security.cache.hit", "security.cache.miss",
                 "dist.pool.hit", "dist.pool.miss", "dist.frames.sent",
                 "dist.bytes.sent", "dist.frames.coalesced",
                 "awt.dispatch.batched", "awt.repaint.coalesced"):
        totals[name] = sum(hub.metrics.total(name) for hub in hubs)
    wait_s = count = 0
    for hub in hubs:
        for metric in hub.metrics.snapshot():
            if metric["name"] == "awt.dispatch.latency_s":
                wait_s += metric["sum"]
                count += metric["count"]
    totals["awt.wait.s"] = wait_s
    totals["awt.wait.count"] = count
    totals["series"] = sum(len(hub.metrics) for hub in hubs)
    sched = [vm.vm.scheduler.stats() for vm in vms
             if vm.vm.scheduler is not None]
    for key in ("switches", "timer_fires", "spawned"):
        totals[f"sched.{key}"] = sum(stats[key] for stats in sched)
    from repro.io.streams import RING_STATS
    totals["ring.wakeups"] = RING_STATS.wakeups
    return totals


def live_applications() -> int:
    from repro.core.application import Application
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Application)


def per_layer(workload_name, tracer, before, after, ops, live_apps,
              lateness_ms) -> tuple:
    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def delta(name):
        return after[name] - before[name]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    hits = delta("security.cache.hit")
    misses = delta("security.cache.miss")
    pool_hits = delta("dist.pool.hit")
    pool_misses = delta("dist.pool.miss")
    reads = span("io.pipe.read", "calls")
    read_bytes = tracer.counts.get("io.pipe.read.bytes", [0, 0])[1]
    paints = tracer.counts.get("awt.post.paint", [0, 0])[0]
    metrics = {
        "core.launch.calls": span("core.launch", "calls"),
        "core.launch.ms": span("core.launch", "ms"),
        "core.app.wait.ms": span("core.app.wait", "ms"),
        "core.apps.live_per_op": live_apps / ops,
        "jvm.classload.calls": span("jvm.classload", "calls"),
        "jvm.classload.ms": span("jvm.classload", "ms"),
        "jvm.threads.started": span("jvm.thread.start", "calls"),
        "security.check.calls": span("security.check", "calls"),
        "security.check.ms": span("security.check", "ms"),
        "security.cache.hit_ratio": ratio(hits, hits + misses),
        "security.auth.ms": span("security.auth", "ms"),
        "sched.switches_per_op": delta("sched.switches") / ops,
        "sched.timer_fires_per_op": delta("sched.timer_fires") / ops,
        "sched.spawned_per_op": delta("sched.spawned") / ops,
        "io.pipe.read.calls": reads,
        "io.pipe.read.bytes_per_call": ratio(read_bytes, reads),
        "io.pipe.read.ms": span("io.pipe.read", "ms"),
        "io.pipe.write.calls": span("io.pipe.write", "calls"),
        "io.ring.wakeups": delta("ring.wakeups"),
        "tools.shell.line.ms": span("tools.shell.line", "ms"),
        "tools.shell.line.self_ms": span("tools.shell.line", "self_ms"),
        "dist.remote.ms": span("dist.remote", "ms"),
        "dist.pool.hit_ratio": ratio(pool_hits, pool_hits + pool_misses),
        "dist.frames.sent_per_op": delta("dist.frames.sent") / ops,
        "dist.bytes.sent_per_op": delta("dist.bytes.sent") / ops,
        "dist.frames.coalesced": delta("dist.frames.coalesced"),
        "net.connects_per_op": span("net.connect", "calls") / ops,
        "net.write.calls": tracer.counts.get("net.write", [0, 0])[0],
        "awt.post.calls": span("awt.post", "calls"),
        "awt.queue.wait_ms": ratio(delta("awt.wait.s") * 1000,
                                   delta("awt.wait.count")),
        "awt.dispatch.batched": delta("awt.dispatch.batched"),
        "awt.repaint.coalesced_ratio": ratio(
            delta("awt.repaint.coalesced"), paints),
        "telemetry.lookups_per_op": span("telemetry.lookup", "calls") / ops,
        "telemetry.series_per_op": delta("series") / ops,
        "telemetry.audit.records_per_op":
            span("telemetry.audit", "calls") / ops,
        "unixfs.vfs.calls": span("unixfs.vfs", "calls"),
        "unixfs.vfs.ms": span("unixfs.vfs", "ms"),
        "loadgen.lateness_p99_ms": lateness_ms,
    }
    self_ms = {layer: 0.0 for layer in tracing.LAYERS}
    for name, entry in spans.items():
        self_ms[name.partition(".")[0]] += entry["self_ms"]
    for layer, value in self_ms.items():
        metrics[f"{layer}.self_ms_per_op"] = value / ops
    zero = [name for name in tracing.HEAVY[workload_name]
            if span(name, "calls") == 0 and name not in tracer.counts]
    return metrics, zero


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (JSONL)")
    parser.add_argument("--memory", action="store_true",
                        help="measure resident memory growth (a full "
                             "collection after the timed phase)")
    args = parser.parse_args()

    pin_to_one_cpu()
    probe = HostProbe(max(1, round(NOMINAL_OPS_PER_S[args.workload]
                                   * PROBE_EVERY_S)))
    workload = build(args.workload, args.seed, args.ops)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layer_wrappers(tracer)

    started = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started

    # Applications the set-up left alive are not the timed phase's.
    live_before = live_applications() if tracer is not None else 0
    gcw = GcWatch()
    gc.callbacks.append(gcw)
    gc.collect()
    rss_before = rss_kb() if args.memory else None
    before = layer_counters(workload.vms())
    cpu_before = time.process_time()
    gcw.active = True
    if tracer is not None:
        tracer.active = True
    wall_before = time.perf_counter()
    results = workload.run(probe, tracer)
    elapsed = time.perf_counter() - wall_before
    if not getattr(workload, "open_loop", False):
        elapsed -= probe.wall_s
    if tracer is not None:
        tracer.active = False
    gcw.active = False
    cpu_s = time.process_time() - cpu_before - probe.cpu_s
    after = layer_counters(workload.vms())
    rss_growth = None
    if args.memory:
        gc.collect()
        rss_growth = rss_kb() - rss_before

    slowdown = probe.slowdown()
    attempted = len(results)
    failed = sum(1 for result in results if not result.ok)
    completed = attempted - failed
    latencies = sorted(result.latency_s * 1000 for result in results
                       if result.ok)
    report = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({result.detail for result in results
                            if not result.ok})[:5],
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "ops_per_s": completed / elapsed,
        "op_p50_ms": quantile(latencies, 50) if latencies else 0.0,
        "latencies_ms": latencies,
        "cpu_ms_per_op": cpu_s * 1000 / max(1, completed),
        "rss_kb_per_op": (rss_growth / attempted
                          if rss_growth is not None else None),
        "gc_full_count": gcw.count,
        "gc_full_ms": gcw.ns / 1e6,
        "host_slowdown": slowdown,
        "probe_ms": statistics.median(probe.times) * 1000,
        "probes": len(probe.times),
    }
    gc.callbacks.remove(gcw)
    lateness = sorted(getattr(workload, "lateness_s", []))
    lateness_ms = percentile(lateness, 99) * 1000 if lateness else 0.0
    report["lateness_p99_ms"] = lateness_ms
    if tracer is not None:
        layers, zero = per_layer(args.workload, tracer, before, after,
                                 attempted,
                                 live_applications() - live_before,
                                 lateness_ms)
        report["per_layer"] = layers
        report["zero_call_wrappers"] = zero
        if args.spans:
            tracer.write_jsonl(args.spans)
        tracer.uninstall()
    workload.teardown()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    code = main()
    # Freeing a heap of thousands of exited applications one object at a
    # time takes seconds; the process has nothing left to clean up.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
