"""End-to-end benchmark of the multi-processing VM: four user workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload shell_session --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` reports the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it stamps the run (commit, interpreter,
host, seed) and carries the details behind the metrics.  ``--out DIR``
also writes both, and the traced run's spans, into DIR.  Nothing else is
written.

Each measurement runs in a fresh interpreter (``worker.py``) with
``DeprecationWarning`` raised as an error, so no run inherits another
run's heap and the benchmark breaks loudly if it ever relies on a
deprecated surface.  The amount of work is fixed by ``--seconds`` and the
workload's nominal rate (:data:`NOMINAL_OPS_PER_S`), not by the clock:
a slower program takes longer rather than doing less.  An untraced run
splits that work over :data:`REPEATS` workers and reports the median of
their figures, so one slow stretch of a shared host moves one sample,
not the result.  Each worker's timed figures are first scaled to the
nominal host speed (:func:`at_nominal_speed`).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

from stats import (GC_SENSITIVITY, HOST_SENSITIVITY, NOMINAL_OPS_PER_S,
                   quantile, tail_percentile)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("shell_session", "launch_churn", "remote_exec", "gui_events")

#: Measured workers per untraced run; each does 1/REPEATS of the work
#: and times its own set-up.
REPEATS = 5

#: Wall-clock budget for the whole invocation.
BUDGET_S = 170.0

#: Per-layer figures taken from the untraced companion run in trace mode:
#: spans held in memory would otherwise count as the program's own.
FROM_UNTRACED = ("rss_kb_per_op", "gc.full.count", "gc.full.ms")

#: Figures the clock sets rather than the host: an open loop's delivered
#: rate is its schedule, gui_events' tail is the slow application's fixed
#: 3 ms handler, and its set-up mostly waits for windows and polls for
#: the warm-up events every 5 ms.
CLOCK_BOUND = {"gui_events": ("setup_s", "ops_per_s", "op_tail_ms")}


def stamp(seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model, "seed": seed}


class WorkerError(RuntimeError):
    pass


def run_worker(deadline: float, workload: str, seed: int, ops: int,
               trace: int, spans=None, memory: bool = False) -> dict:
    command = [sys.executable, "-W", "error::DeprecationWarning",
               str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--ops", str(ops),
               "--trace", str(trace)]
    if memory:
        command.append("--memory")
    if spans is not None:
        command += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before a worker could start")
    try:
        done = subprocess.run(command, cwd=ROOT, text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker timed out") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise WorkerError(f"worker exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    return json.loads(lines[-1])


def at_nominal_speed(workload: str, run: dict, tail_pct: float) -> dict:
    """One worker's end-to-end figures, scaled to the nominal host.

    The worker timed a fixed walk through memory all through its timed
    phase and reports how much slower than nominal that ran
    (``host_slowdown``; see ``HostProbe`` in ``worker.py``).  The
    program's time grows with it to the power
    :data:`~stats.HOST_SENSITIVITY`, and the time of full collections to
    the power :data:`~stats.GC_SENSITIVITY`; dividing each part by its
    factor gives what the same work takes on the nominal host.  The
    figures as measured stay in the stamp line.
    """
    host = run["host_slowdown"] ** HOST_SENSITIVITY
    collections = run["host_slowdown"] ** GC_SENSITIVITY

    def nominal(seconds: float) -> float:
        gc_s = min(seconds, run["gc_full_ms"] / 1000)
        return (seconds - gc_s) / host + gc_s / collections

    completed = run["attempted"] - run["failed"]
    latencies = run["latencies_ms"]
    tail = quantile(latencies, tail_pct) if latencies else 0.0
    measured = {"setup_s": run["setup_s"], "ops_per_s": run["ops_per_s"],
                "op_p50_ms": run["op_p50_ms"], "op_tail_ms": tail,
                "cpu_ms_per_op": run["cpu_ms_per_op"]}
    scaled = {"setup_s": run["setup_s"] / host,
              "ops_per_s": completed / nominal(run["elapsed_s"]),
              "op_p50_ms": run["op_p50_ms"] / host,
              "op_tail_ms": tail / host,
              "cpu_ms_per_op": nominal(run["cpu_s"]) * 1000
              / max(1, completed)}
    clock = CLOCK_BOUND.get(workload, ())
    return {name: measured[name] if name in clock else scaled[name]
            for name in measured}


def _terminate(signum, _frame) -> None:
    # Unwinding through subprocess.run kills and reaps the running worker.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the multi-processing VM.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=None,
                        help="directory for result.json (and spans.jsonl)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    out = pathlib.Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + BUDGET_S
    ops = NOMINAL_OPS_PER_S[args.workload] * args.seconds // REPEATS
    common = (deadline, args.workload, args.seed, ops)
    try:
        if args.trace:
            untraced = run_worker(*common, 0, memory=True)
            traced = run_worker(*common, 1,
                                spans=out / "spans.jsonl" if out else None)
            runs = [untraced, traced]
        else:
            runs = [run_worker(*common, 0) for _ in range(REPEATS)]
    except WorkerError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    details = {"stamp": stamp(args.seed), "workload": args.workload,
               "seconds": args.seconds, "ops_per_worker": ops,
               "trace": args.trace,
               "runs": [{key: value for key, value in run.items()
                         if key != "latencies_ms"} for run in runs]}
    if args.trace:
        values = dict(traced["per_layer"])
        for name in FROM_UNTRACED:
            values[name] = untraced[name.replace(".", "_")]
        values["failed_frac"] = failed / attempted
        # Both sides at the nominal host speed, as the end-to-end figures.
        values["trace.overhead_ratio"] = (
            at_nominal_speed(args.workload, traced, 50)["cpu_ms_per_op"]
            / at_nominal_speed(args.workload, untraced, 50)["cpu_ms_per_op"])
        zero = traced["zero_call_wrappers"]
        if zero:
            print(f"e2ebench: wrappers recorded no calls on "
                  f"{args.workload}: {', '.join(zero)}", file=sys.stderr)
            return 1
    else:
        # Each worker estimates the tail from its own samples, so the
        # percentile must leave ten of them beyond it in every worker; the
        # value, like every other figure, is the median over workers.
        samples = min(run["attempted"] for run in runs)
        tail_pct = tail_percentile(samples)
        details["op_tail"] = {"percentile": tail_pct,
                              "samples_per_worker": samples}
        scaled = [at_nominal_speed(args.workload, run, tail_pct)
                  for run in runs]
        values = {name: statistics.median(figures[name]
                                          for figures in scaled)
                  for name in scaled[0]}
    # BENCHMARK.json is the one list of metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if out is not None:
        (out / "result.json").write_text(
            json.dumps({**details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
