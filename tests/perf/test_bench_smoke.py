"""Tiny-N smoke runs of the benchmark suite (the ``perf`` marker).

The real numbers come from running ``benchmarks/`` directly; these smoke
tests only prove the benchmark code still *executes* after refactors, by
running the benches in a subprocess with ``REPRO_BENCH_N`` forced tiny
and pytest-benchmark held to single rounds.  The transport benches also
prove the ``--trace-out`` JSONL export end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import _common  # noqa: E402


def run_bench(bench_file: str, *extra_args: str) -> \
        subprocess.CompletedProcess:
    env = dict(os.environ)
    env["REPRO_BENCH_N"] = "50"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "pytest",
         str(REPO_ROOT / "benchmarks" / bench_file),
         "-p", "no:cacheprovider",
         "--benchmark-min-rounds=1", "--benchmark-max-time=0",
         "--benchmark-warmup=off", *extra_args],
        capture_output=True, text=True, timeout=300,
        cwd=str(REPO_ROOT), env=env)


@pytest.mark.parametrize("bench_file",
                         ["bench_security.py", "bench_dispatch.py",
                          "bench_context_switch.py",
                          "bench_ipc_pipes.py",
                          "bench_sharing_and_dist.py",
                          "bench_supervision.py"])
def test_bench_smoke(bench_file):
    result = run_bench(bench_file)
    assert result.returncode == 0, \
        f"{bench_file} smoke run failed:\n{result.stdout}\n{result.stderr}"
    assert "passed" in result.stdout


def test_transport_bench_emits_trace_jsonl(tmp_path):
    """The transport benches drive VMs end to end, so ``--trace-out``
    must yield a non-empty, well-formed JSONL trace of the run."""
    trace = tmp_path / "transport-trace.jsonl"
    result = run_bench("bench_sharing_and_dist.py",
                       f"--trace-out={trace}")
    assert result.returncode == 0, \
        f"trace run failed:\n{result.stdout}\n{result.stderr}"
    assert "[trace-out] wrote" in result.stdout
    lines = trace.read_text().splitlines()
    assert lines, "trace file is empty"
    for line in lines[:20]:
        json.loads(line)


def test_smoke_entries_never_touch_tracked_files(tmp_path, monkeypatch):
    monkeypatch.setattr(_common, "SMOKE_DIR", tmp_path)
    path = _common.record_bench("smoke_probe", {"smoke": True, "x": 1})
    assert path == tmp_path / "BENCH_smoke_probe.json"
    assert json.loads(path.read_text())["runs"][0]["x"] == 1
    assert not (REPO_ROOT / "BENCH_smoke_probe.json").exists()
