"""Shared helpers for the benchmark suite."""

from __future__ import annotations

import json
import pathlib
import tempfile
import time

import pytest

from repro.core.launcher import MultiProcVM
from repro.jvm.classloading import ClassMaterial
from repro.security.codesource import CodeSource

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Runs kept per area file — enough history for trend gates, bounded size.
BENCH_HISTORY = 200

#: Where entries marked ``smoke`` go.  Tiny-N smoke runs (the tier-1
#: ``perf`` marker) only prove the benches execute; their figures are
#: not a trajectory, and tests must never write to tracked files.
SMOKE_DIR = pathlib.Path(tempfile.gettempdir()) / "repro-bench-smoke"


def record_bench(area: str, entry: dict) -> pathlib.Path:
    """Append one benchmark result to ``BENCH_<area>.json``.

    Full runs go to the repo root, smoke entries under :data:`SMOKE_DIR`.
    The file holds ``{"area": ..., "runs": [...]}`` with the newest run
    last; each entry is stamped with the wall-clock time so regression
    gates (``tests/perf``) can compare against the recorded baseline.
    Failures to write (read-only checkout) are swallowed: persistence is
    an observability feature, never a reason to fail a bench.
    """
    root = SMOKE_DIR if entry.get("smoke") else REPO_ROOT
    path = root / f"BENCH_{area}.json"
    try:
        root.mkdir(parents=True, exist_ok=True)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = {"area": area, "runs": []}
        stamped = dict(entry)
        stamped["unix_time"] = time.time()
        runs = payload.get("runs", [])
        runs.append(stamped)
        payload["runs"] = runs[-BENCH_HISTORY:]
        path.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass
    return path


def bench_baseline(area: str, metric: str, smoke_key: str = "smoke",
                   best: str = "min") -> float | None:
    """The best non-smoke value of ``metric`` on record.

    ``best`` picks the sense of "best": ``"min"`` for latency-style
    metrics (seconds, allocations), ``"max"`` for throughput-style ones
    (MB/s, lines/s, events/s) — regression gates compare new runs
    against the strongest recorded baseline in the metric's own
    direction.
    """
    path = REPO_ROOT / f"BENCH_{area}.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    values = [run[metric] for run in payload.get("runs", [])
              if metric in run and not run.get(smoke_key)]
    if not values:
        return None
    return max(values) if best == "max" else min(values)


def register_main(vm, name: str, main_fn) -> str:
    class_name = f"bench.{name}"
    material = ClassMaterial(
        class_name,
        code_source=CodeSource(
            f"file:/usr/local/java/apps/{name.lower()}/{name}.class"))
    material.members["main"] = main_fn
    vm.registry.register(material, replace=True)
    return class_name


@pytest.fixture(scope="module")
def bench_mvm():
    mvm = MultiProcVM.boot()
    yield mvm
    mvm.shutdown()


def banner(title: str) -> str:
    line = "=" * max(8, len(title))
    return f"\n{line}\n{title}\n{line}"


def install_trace_exporter(path: str):
    """Install a process-global trace collector; returns an export closure.

    Backs the suite's ``--trace-out`` option: the collector sees spans from
    every VM booted during the run (the tracer's guarded fast path only
    pays when a collector is installed).  Calling the returned closure
    writes the JSONL file, uninstalls the collector, and returns the
    record count.
    """
    from repro.telemetry import TraceCollector, install_collector

    collector = TraceCollector()
    install_collector(collector)

    def export() -> int:
        install_collector(None)
        return collector.export_jsonl(path)

    return export
