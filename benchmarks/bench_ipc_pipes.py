"""Experiment C2b — IPC cost in one address space.

Section 2: "Inter-process communication is also much cheaper in a single
address space."

Measured side: bytes/second through an in-VM pipe between two JThreads
(the same pipes the shell's ``|`` uses).  Model side: a cross-process
Unix pipe with its two kernel copies.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import (  # noqa: E402,F401
    banner,
    bench_mvm,
    record_bench,
    register_main,
)

from repro.io.streams import BufferedInputStream, make_pipe  # noqa: E402
from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402
from repro.procsim.model import ProcessCostModel  # noqa: E402

#: REPRO_BENCH_N scales every series (smoke runs force it tiny).
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "0"))
SMOKE = bool(BENCH_N)

PAYLOAD = b"x" * 8192
CHUNKS = BENCH_N or 512  # 4 MiB per call at the default
LINES = (BENCH_N * 4) if BENCH_N else 2000
LINE = b"pipeline payload, about a hundred bytes of typical line-oriented "\
    b"program output padding.........\n"
BLOB_LINES = (BENCH_N * 40) if BENCH_N else 20000


def _chunk_transfer(legacy: bool) -> float:
    """One 8 KiB-chunk transfer; returns MB/s.

    The ring side is the PR's data plane as shipped: default capacity
    and the zero-copy ``drain_into`` read path.  The legacy side is the
    exact pre-ring configuration — 64 KiB bytearray channel, 64 KiB
    copying reads — kept behind ``make_pipe(legacy=True)`` for this
    comparison.
    """
    root = ThreadGroup(None, "system")
    if legacy:
        reader, writer = make_pipe(capacity=64 * 1024, legacy=True)
    else:
        reader, writer = make_pipe()
    received = []

    def consume():
        total = 0
        if legacy:
            while True:
                chunk = reader.read(64 * 1024)
                if not chunk:
                    break
                total += len(chunk)
        else:
            sink = lambda segments: None  # noqa: E731 - borrow-and-drop
            while True:
                drained = reader.drain_into(sink)
                if not drained:
                    break
                total += drained
        received.append(total)

    consumer = JThread(target=consume, group=root)
    consumer.start()
    start = time.perf_counter()
    for _ in range(CHUNKS):
        writer.write(PAYLOAD)
    writer.close()
    consumer.join(30)
    elapsed = time.perf_counter() - start
    assert received == [len(PAYLOAD) * CHUNKS]
    return len(PAYLOAD) * CHUNKS / (1024 * 1024) / elapsed


def test_bench_in_vm_pipe_throughput(benchmark):
    benchmark.pedantic(lambda: _chunk_transfer(legacy=False),
                       rounds=7, iterations=1, warmup_rounds=2)
    transferred_mb = len(PAYLOAD) * CHUNKS / (1024 * 1024)
    measured_mb_s = transferred_mb / benchmark.stats.stats.min

    # The pre-PR pipe at its default capacity, measured inline best-of.
    legacy_mb_s = max(_chunk_transfer(legacy=True) for _ in range(7))
    speedup = measured_mb_s / legacy_mb_s

    model = ProcessCostModel()
    print(banner("C2b: IPC bandwidth — ring pipe vs legacy vs OS pipe"))
    print(f"ring pipe (drain_into):       {measured_mb_s:10.1f} MB/s")
    print(f"legacy pipe (pre-PR config):  {legacy_mb_s:10.1f} MB/s")
    print(f"ring over legacy: x{speedup:0.1f}")
    print(f"cross-process pipe (model):   "
          f"{model.process_pipe_mb_s:10.1f} MB/s")
    print(f"advantage: x{model.ipc_speedup(measured_mb_s):0.1f}")
    record_bench("ipc", {
        "bench": "chunk_throughput", "chunks": CHUNKS,
        "chunk_bytes": len(PAYLOAD), "smoke": SMOKE,
        "ring_mb_s": measured_mb_s, "legacy_mb_s": legacy_mb_s,
        "speedup": speedup})
    assert measured_mb_s > model.process_pipe_mb_s, \
        "paper claim: in-address-space IPC must beat OS pipes"
    if not SMOKE:  # tiny smoke transfers are all constant overhead
        assert speedup >= 2.0, (
            f"ring data plane regressed vs legacy pipe: x{speedup:0.2f}")


def test_bench_line_read_buffered_vs_unbuffered(benchmark):
    """Transport fast path, layer 1: ``read_line`` through a pipe.

    Unbuffered, every line costs one pipe condition-variable acquisition
    (the pipe's own ``read_line`` scans the ring and stops at the
    terminator, never reading ahead).  Buffered, lock traffic scales
    with 8 KB chunks.  The dist protocol reads every JSON-lines frame
    this way, so this ratio is the frame-receive win.
    """
    root = ThreadGroup(None, "system")

    def feed(writer):
        def produce():
            try:
                for _ in range(LINES):
                    writer.write(LINE)
            finally:
                writer.close()

        producer = JThread(target=produce, group=root)
        producer.start()
        return producer

    def read_all_lines(source):
        count = 0
        while source.read_line() is not None:
            count += 1
        assert count == LINES

    # Both sides time only the reads, over the same rounds: starting the
    # producer thread costs 0.5-4 ms on a shared 2-vCPU host, more than
    # reading a smoke run's 200 lines either way, so it stays untimed.
    def setup(wrap):
        reader, writer = make_pipe(capacity=64 * 1024)
        return (wrap(reader), feed(writer)), {}

    def read_run(source, producer):
        read_all_lines(source)
        producer.join(30)

    rounds, warmup_rounds = 5, 1
    benchmark.pedantic(read_run, setup=lambda: setup(BufferedInputStream),
                       rounds=rounds, iterations=1,
                       warmup_rounds=warmup_rounds)
    buffered_lines_s = LINES / benchmark.stats.stats.mean

    # The unbuffered comparison point, measured inline the same way.
    elapsed = []
    for _ in range(warmup_rounds + rounds):
        args, _kwargs = setup(lambda reader: reader)
        start = time.perf_counter()
        read_run(*args)
        elapsed.append(time.perf_counter() - start)
    unbuffered_lines_s = LINES / statistics.mean(elapsed[warmup_rounds:])

    print(banner("C2b-line: pipe read_line — buffered vs unbuffered"))
    print(f"unbuffered (lock per line):   {unbuffered_lines_s:10.0f} "
          f"lines/s")
    print(f"buffered (lock per chunk):    {buffered_lines_s:10.0f} "
          f"lines/s")
    print(f"advantage: x{buffered_lines_s / unbuffered_lines_s:0.1f}")
    record_bench("ipc", {
        "bench": "line_read", "lines": LINES, "smoke": SMOKE,
        "buffered_lines_s": buffered_lines_s,
        "unbuffered_lines_s": unbuffered_lines_s})
    assert buffered_lines_s > unbuffered_lines_s, \
        "buffered line reads must beat one-lock-per-line reads"


def test_bench_shell_pipe_end_to_end(benchmark, bench_mvm):
    """The same channel, through real applications: cat /big | wc."""
    from repro.io.file import write_text
    ctx = bench_mvm.initial.context()
    blob = "payload-line\n" * BLOB_LINES  # ~260 KB at the default
    write_text(ctx, "/tmp/blob.txt", blob)

    with bench_mvm.host_session():
        from repro.io.streams import ByteArrayOutputStream, PrintStream

        def pipeline():
            sink = ByteArrayOutputStream()
            app = bench_mvm.exec(
                "tools.Shell", ["-c", "cat /tmp/blob.txt | wc -l"],
                stdout=PrintStream(sink), stderr=PrintStream(sink))
            assert app.wait_for(30) == 0
            assert sink.to_text().strip() == str(BLOB_LINES)

        benchmark.pedantic(pipeline, rounds=5, iterations=1,
                           warmup_rounds=1)
    blob_mb = len(blob) / (1024 * 1024)
    app_level_mb_s = blob_mb / benchmark.stats.stats.mean
    print(banner("C2b-app: application-level pipe (cat | wc)"))
    print(f"end-to-end through two applications: "
          f"{app_level_mb_s:10.2f} MB/s")
    record_bench("ipc", {
        "bench": "shell_pipe", "blob_bytes": len(blob), "smoke": SMOKE,
        "shell_mb_s": app_level_mb_s})
