"""``java.io``-style streams: byte arrays, pipes, print streams.

Streams carry the paper's ownership discipline from Section 5.1:

    "applications may only close streams that they opened.  Streams that are
    passed to them like the standard input and output streams must not be
    closed by the application."

Every stream records an ``owner`` (set by the application layer when an
application creates the stream); a pluggable module-level ``close_policy``
hook — installed by the multi-processing launcher — is consulted on every
``close()`` and may veto it with a ``SecurityException``.  In a plain
single-application VM the hook is absent and close behaves normally.

Piped streams (:func:`make_pipe`) are the transport behind the shell's
``|`` pipelines (Section 6.1) and the in-VM IPC measured by the Section 2
benchmarks.  They block co-operatively and are stop points, so the
application reaper can always tear a pipeline down.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.jvm.errors import (
    EOFException,
    IOException,
    StreamClosedException,
)
from repro.sched.timers import wait_until
from repro.sched.waitobj import WaitPoint

#: Hook consulted on every stream close; installed by the multi-processing
#: launcher to enforce the Section 5.1 ownership rule.  Receives the stream;
#: raises to veto the close.
close_policy: Optional[Callable[["_StreamBase"], None]] = None

#: Hook receiving ``(stream, message)`` when the stream layer swallows an
#: error (Java's no-throw ``PrintStream`` discipline).  Installed by the
#: multi-processing launcher to route the diagnostic to the *current
#: application's* own ``System.err`` rather than the host process.
diagnostic_sink: Optional[Callable[["_StreamBase", str], None]] = None


def _report_diagnostic(stream: "_StreamBase", message: str) -> None:
    sink = diagnostic_sink
    if sink is None:
        return
    try:
        sink(stream, message)
    except Exception:
        pass  # diagnostics are best-effort by definition

#: Logical bound on buffered pipe bytes before a writer blocks.  The ring
#: backing store starts at :attr:`RingPipe.INITIAL_SIZE` (8 KiB) and only
#: grows toward this ceiling under sustained pressure, so the generous
#: default costs nothing for chatty low-volume pipes while letting bulk
#: transfers amortize the reader/writer condition handoff (the dominant
#: IPC cost) over 8x more bytes than the old 64 KiB bound.
DEFAULT_PIPE_CAPACITY = 512 * 1024


class _StreamBase:
    """State shared by all streams: closed flag and owner tracking."""

    def __init__(self):
        self.closed = False
        #: The application that opened this stream (set by the application
        #: layer); None for VM-created and host streams.
        self.owner = None

    def _ensure_open(self) -> None:
        if self.closed:
            raise StreamClosedException("stream is closed")

    def close(self) -> None:
        if self.closed:
            return
        if close_policy is not None:
            close_policy(self)
        self._close_impl()
        self.closed = True

    def _close_impl(self) -> None:
        """Subclass hook; runs once, before ``closed`` is set."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InputStream(_StreamBase):
    """Abstract byte-oriented input stream."""

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes (all remaining if negative).

        Returns ``b""`` only at end of stream.  Blocks until at least one
        byte is available or EOF is reached.
        """
        raise NotImplementedError

    def read_byte(self) -> int:
        """Read one byte; returns -1 at end of stream (Java semantics)."""
        chunk = self.read(1)
        return chunk[0] if chunk else -1

    def read_exactly(self, size: int) -> bytes:
        """Read exactly ``size`` bytes or raise :class:`EOFException`."""
        pieces: list[bytes] = []
        remaining = size
        while remaining > 0:
            chunk = self.read(remaining)
            if not chunk:
                raise EOFException(
                    f"expected {size} bytes, got {size - remaining}")
            pieces.append(chunk)
            remaining -= len(chunk)
        return b"".join(pieces)

    def read_line(self) -> Optional[bytes]:
        """Read one ``\\n``-terminated line (terminator stripped).

        Returns None at end of stream; a final unterminated line is
        returned as-is.
        """
        buffer = bytearray()
        while True:
            byte = self.read_byte()
            if byte < 0:
                return bytes(buffer) if buffer else None
            if byte == 0x0A:
                return bytes(buffer)
            buffer.append(byte)

    def read_all(self) -> bytes:
        pieces: list[bytes] = []
        while True:
            chunk = self.read(8192)
            if not chunk:
                return b"".join(pieces)
            pieces.append(chunk)

    def available(self) -> int:
        """Bytes readable without blocking (best effort)."""
        return 0


class OutputStream(_StreamBase):
    """Abstract byte-oriented output stream."""

    def write(self, payload: bytes) -> None:
        raise NotImplementedError

    def writev(self, segments) -> None:
        """Write all ``segments`` in order (gather-write).

        The default is a plain loop; sinks with per-write overhead worth
        batching (pipes, buffered streams) override it to pay that
        overhead once for the whole vector.
        """
        for segment in segments:
            self.write(segment)

    def flush(self) -> None:
        """Flush buffered bytes (no-op by default)."""


# --------------------------------------------------------------------------
# In-memory streams
# --------------------------------------------------------------------------

class ByteArrayInputStream(InputStream):
    """Reads from an in-memory byte string."""

    def __init__(self, payload: bytes):
        super().__init__()
        self._payload = bytes(payload)
        self._pos = 0

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        if size is None or size < 0:
            chunk = self._payload[self._pos:]
        else:
            chunk = self._payload[self._pos:self._pos + size]
        self._pos += len(chunk)
        return chunk

    def available(self) -> int:
        return len(self._payload) - self._pos


class ByteArrayOutputStream(OutputStream):
    """Accumulates written bytes in memory."""

    def __init__(self):
        super().__init__()
        self._buffer = bytearray()
        self._lock = threading.Lock()

    def write(self, payload: bytes) -> None:
        self._ensure_open()
        with self._lock:
            self._buffer.extend(payload)

    def to_bytes(self) -> bytes:
        with self._lock:
            return bytes(self._buffer)

    def to_text(self, encoding: str = "utf-8") -> str:
        return self.to_bytes().decode(encoding)

    def reset(self) -> None:
        with self._lock:
            del self._buffer[:]

    def size(self) -> int:
        with self._lock:
            return len(self._buffer)


class NullInputStream(InputStream):
    """Always at end of stream (``/dev/null`` for reading)."""

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        return b""


class NullOutputStream(OutputStream):
    """Discards everything (``/dev/null`` for writing)."""

    def write(self, payload: bytes) -> None:
        self._ensure_open()


# --------------------------------------------------------------------------
# Pipes — the ring-buffer IPC fast path
# --------------------------------------------------------------------------

class _RingTotals:
    """Process-wide rollup of ring-pipe activity (vmstat / ``/proc/ipc``).

    Updated while the owning pipe's condition is held, so increments are
    serialized per pipe; cross-pipe interleavings can in principle lose an
    increment, which is acceptable for telemetry (same stance as the
    metrics registry's lock-cheap counters).
    """

    __slots__ = ("wakeups", "suppressed_wakeups", "zero_copy_bytes",
                 "copies")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.wakeups = 0
        self.suppressed_wakeups = 0
        self.zero_copy_bytes = 0
        self.copies = 0

    def snapshot(self) -> dict:
        return {"wakeups": self.wakeups,
                "suppressed_wakeups": self.suppressed_wakeups,
                "zero_copy_bytes": self.zero_copy_bytes,
                "copies": self.copies}


#: Module-wide ring-pipe counters, surfaced by ``/proc/ipc/ring`` and the
#: ``ipc.ring.*`` vmstat lines.
RING_STATS = _RingTotals()


class RingPipe:
    """Fixed-capacity ring buffer shared by a Piped{Input,Output}Stream pair.

    The intra-VM data plane's core: a power-of-two backing store indexed
    by monotonically increasing head/tail counters (``index = pos & mask``)
    so neither side ever shifts bytes (the old ``bytearray`` channel paid
    a ``del buffer[:size]`` memmove per read and materialized *two* copies
    per read: the slice and then ``bytes()`` of it).  Here:

    * writes copy the caller's bytes straight into the ring (one copy);
    * reads materialize at most one ``bytes`` object per contiguous
      segment straight from the ring (one copy; two segment copies only
      at the wrap seam), or hand borrowed ``memoryview`` segments to a
      consumer under the lock (zero copies) via :meth:`drain_into`;
    * wakeups are **edge-triggered**: writers notify only on the
      empty→non-empty transition, readers only on full→non-full, instead
      of once per chunk — a blocked peer can only be waiting on one of
      those two edges, so every other notify was pure lock churn.

    The logical ``capacity`` (what bounds a blocked writer) may be smaller
    than the power-of-two physical size; all invariants are on the logical
    bound.
    """

    __slots__ = ("capacity", "_limit", "_size", "_mask", "_buf", "_view",
                 "_head", "_tail", "cond", "writer_closed", "reader_closed",
                 "wakeups", "suppressed_wakeups", "zero_copy_bytes",
                 "copies", "_folded")

    #: Physical size a fresh ring starts at; it doubles on demand up to
    #: the capacity ceiling, so a mostly-idle pipe costs 8 KiB, not the
    #: full (possibly large) default capacity.
    INITIAL_SIZE = 8192

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        limit = 1
        while limit < self.capacity:
            limit <<= 1
        #: Largest physical size the ring may grow to (pow2 >= capacity).
        self._limit = limit
        size = min(limit, self.INITIAL_SIZE)
        self._size = size
        self._mask = size - 1
        self._buf = bytearray(size)
        self._view = memoryview(self._buf)
        #: Monotonic byte counters; ``tail - head`` is the fill level.
        self._head = 0
        self._tail = 0
        # A plain Lock, not the Condition default RLock: every acquisition
        # in this module is flat (the ``_``-accessors and
        # ``_write_blocking`` run with ``cond`` already held and never
        # re-acquire), and the non-reentrant lock is measurably cheaper on
        # the per-chunk hot path.  A WaitPoint (condvar-compatible) so
        # continuation tasks can park on the pipe without an OS thread.
        self.cond = WaitPoint(threading.Lock())
        self.writer_closed = False
        self.reader_closed = False
        self.wakeups = 0
        self.suppressed_wakeups = 0
        self.zero_copy_bytes = 0
        self.copies = 0
        self._folded = None

    # All _-prefixed accessors assume ``cond`` is held.

    def _used(self) -> int:
        return self._tail - self._head

    def _grow(self, need: int) -> None:
        """Grow the physical store straight to the capacity ceiling,
        linearizing the current content to offset 0.

        One-shot rather than doubling: a pipe that outgrows its initial
        8 KiB is a bulk pipe and will hit the ceiling almost immediately
        under sustained pressure anyway, so doubling would just pay
        O(capacity) in repeated linearize copies (25% of transferred
        bytes at a 1 MiB capacity) for no memory savings that matter.
        ``need`` is kept for the call-site contract; any grow satisfies
        it because ``need <= capacity <= limit``.
        """
        new_size = self._limit
        if new_size == self._size:
            return
        used = self._tail - self._head
        new_buf = bytearray(new_size)
        if used:
            pos = 0
            for segment in self._segments(used):
                new_buf[pos:pos + len(segment)] = segment
                pos += len(segment)
        self._view.release()
        self._buf = new_buf
        self._view = memoryview(new_buf)
        self._size = new_size
        self._mask = new_size - 1
        self._head = 0
        self._tail = used

    def _put(self, view, offset: int) -> int:
        """Copy as many bytes as fit from ``view[offset:]``; return count.

        ``view`` may be raw ``bytes`` when it is being written whole
        (``offset == 0`` covering the full payload) — the unwrapped fast
        path assigns it without materializing a slice; the wrap seam
        wraps locally so segment slicing stays copy-free.
        """
        used = self._tail - self._head
        n = self.capacity - used
        if n <= 0:
            return 0
        remaining = len(view) - offset
        if remaining < n:
            n = remaining
        if n > self._size - used:
            self._grow(used + n)
            free = self._size - used
            if n > free:
                n = free
        i = self._tail & self._mask
        end = i + n
        if end <= self._size:
            if offset == 0 and n == len(view):
                self._view[i:end] = view
            else:
                self._view[i:end] = view[offset:offset + n]
            self.copies += 1
        else:
            if not isinstance(view, memoryview):
                view = memoryview(view)
            first = self._size - i
            self._view[i:] = view[offset:offset + first]
            self._view[:n - first] = view[offset + first:offset + n]
            self.copies += 2
        self._tail += n
        return n

    def _take(self, n: int, skip: int = 0) -> bytes:
        """Materialize ``n`` buffered bytes with one copy per segment,
        then consume ``skip`` more without copying them (a line's
        terminator)."""
        head = self._head
        i = head & self._mask
        end = i + n
        if end <= self._size:
            chunk = bytes(self._view[i:end])
            self.copies += 1
        else:
            # Wrap seam: join copies each segment exactly once.
            chunk = b"".join((self._view[i:], self._view[:end - self._size]))
            self.copies += 2
        self._head = head + n + skip
        self.zero_copy_bytes += n + skip
        return chunk

    def _find_newline(self, used: int) -> int:
        """Offset from the head of the first buffered ``\\n``, or -1.

        Scans at most two segments, one per side of the wrap seam.
        """
        i = self._head & self._mask
        end = i + used
        if end <= self._size:
            at = self._buf.find(b"\n", i, end)
            return at - i if at >= 0 else -1
        at = self._buf.find(b"\n", i)
        if at >= 0:
            return at - i
        at = self._buf.find(b"\n", 0, end - self._size)
        return self._size - i + at if at >= 0 else -1

    def _segments(self, n: int) -> list:
        """Borrowed memoryview segments over ``n`` buffered bytes.

        Valid only while ``cond`` is held and before the head advances
        past them — the zero-copy handoff behind :meth:`drain_into`.
        """
        i = self._head & self._mask
        end = i + n
        if end <= self._size:
            return [self._view[i:end]]
        return [self._view[i:], self._view[:end - self._size]]

    def _notify_edge(self) -> None:
        self.wakeups += 1
        self.cond.notify_all()

    def _consumed(self, used: int) -> None:
        """A read just consumed bytes from a ring that held ``used``:
        wake writers only on the full → non-full edge."""
        if used >= self.capacity:
            self._notify_edge()
        else:
            self.suppressed_wakeups += 1

    def _fold_totals(self) -> None:
        """Roll this pipe's counters into :data:`RING_STATS` (called at
        each side's close, delta-based) — the hot paths touch only
        pipe-local ints, never the process-wide rollup."""
        folded = self._folded or (0, 0, 0, 0)
        RING_STATS.wakeups += self.wakeups - folded[0]
        RING_STATS.suppressed_wakeups += self.suppressed_wakeups - folded[1]
        RING_STATS.zero_copy_bytes += self.zero_copy_bytes - folded[2]
        RING_STATS.copies += self.copies - folded[3]
        self._folded = (self.wakeups, self.suppressed_wakeups,
                        self.zero_copy_bytes, self.copies)

    def stats(self) -> dict:
        with self.cond:
            return {"wakeups": self.wakeups,
                    "suppressed_wakeups": self.suppressed_wakeups,
                    "zero_copy_bytes": self.zero_copy_bytes,
                    "copies": self.copies,
                    "buffered": self._tail - self._head,
                    "capacity": self.capacity}


class PipedInputStream(InputStream):
    """Read side of a pipe created by :func:`make_pipe`."""

    def __init__(self, pipe: RingPipe):
        super().__init__()
        self._pipe = pipe

    def _wait_readable(self) -> int:
        """Block until data, EOF or own-side close (``cond`` held).

        Returns the buffered byte count, 0 only at end of stream.
        """
        pipe = self._pipe
        if pipe._tail == pipe._head and not (
                pipe.writer_closed or pipe.reader_closed):
            # Slow path only when there is genuinely nothing to read.
            wait_until(
                pipe.cond,
                lambda: pipe._tail != pipe._head or pipe.writer_closed
                or pipe.reader_closed)
        if pipe.reader_closed:
            # Our own side was closed while we were blocked — the read
            # can never be satisfied (a closed fd, not EOF).
            raise StreamClosedException("pipe reader closed")
        return pipe._tail - pipe._head

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        pipe = self._pipe
        with pipe.cond:
            used = self._wait_readable()
            if not used:
                return b""
            n = used if (size is None or size < 0) else min(size, used)
            chunk = pipe._take(n)
            if n:
                pipe._consumed(used)
            return chunk

    def read_line(self) -> Optional[bytes]:
        """Read one ``\\n``-terminated line in one lock session.

        Same result as :meth:`InputStream.read_line`, but the ring is
        scanned for the terminator instead of being read a byte per
        lock acquisition.  Consumes through the terminator and no
        further: a pipe stage's stdin may be shared with its children,
        so the bytes after the line must stay in the pipe.  Bytes of a
        line whose terminator has not arrived yet are consumed into the
        result before waiting again, so a line longer than the capacity
        still lets a blocked writer finish it.
        """
        self._ensure_open()
        pipe = self._pipe
        pieces: list[bytes] = []
        with pipe.cond:
            while True:
                used = self._wait_readable()
                if not used:
                    return b"".join(pieces) if pieces else None
                length = pipe._find_newline(used)
                if length < 0:
                    pieces.append(pipe._take(used))
                    pipe._consumed(used)
                    continue
                pieces.append(pipe._take(length, skip=1))
                pipe._consumed(used)
                return b"".join(pieces)

    def drain_into(self, consumer, max_bytes: int = -1) -> int:
        """``readv``-style zero-copy drain.

        Blocks for data, then calls ``consumer(segments)`` with the
        ring's borrowed :class:`memoryview` segments (at most two — one
        per side of the wrap seam) *while the pipe lock is held*; the
        bytes are consumed when the consumer returns, with no
        intermediate ``bytes`` materialization at all.  Returns the
        number of bytes drained; 0 at end of stream.

        The consumer must not call back into this pipe (the lock is not
        reentrant) and must not retain the views past its return.
        """
        self._ensure_open()
        pipe = self._pipe
        with pipe.cond:
            used = self._wait_readable()
            if not used:
                return 0
            n = used if max_bytes is None or max_bytes < 0 \
                else min(max_bytes, used)
            segments = pipe._segments(n)
            try:
                consumer(segments)
            finally:
                for segment in segments:
                    segment.release()
            pipe._head += n
            pipe.zero_copy_bytes += n
            if n:
                pipe._consumed(used)
            return n

    def try_read(self, size: int = -1) -> Optional[bytes]:
        """Non-blocking read: bytes, ``b""`` at EOF, None if it would block.

        The task-side entry point (``repro.sched.ops.read`` loops on
        this plus :meth:`wait_point`), and generally useful for pollers.
        """
        self._ensure_open()
        pipe = self._pipe
        with pipe.cond:
            if pipe.reader_closed:
                raise StreamClosedException("pipe reader closed")
            used = pipe._tail - pipe._head
            if not used:
                return b"" if pipe.writer_closed else None
            n = used if (size is None or size < 0) else min(size, used)
            if not n:
                return b""
            chunk = pipe._take(n)
            pipe._consumed(used)
            return chunk

    def readable_hint(self) -> bool:
        """True when a read would not block (data, EOF, or closed).

        Lock-free predicate for ``wait_on``; callers re-check under the
        wait-point lock, so a stale read here only costs a retry.
        """
        pipe = self._pipe
        return (pipe._tail != pipe._head or pipe.writer_closed
                or pipe.reader_closed)

    def wait_point(self) -> WaitPoint:
        """The pipe's wait object (for task-side parking)."""
        return self._pipe.cond

    def available(self) -> int:
        with self._pipe.cond:
            return self._pipe._tail - self._pipe._head

    def at_eof_hint(self) -> bool:
        """True when the next read is guaranteed to return EOF.

        Non-blocking; the connection pool uses it to drop channels whose
        peer already hung up before handing them out again.
        """
        with self._pipe.cond:
            return self._pipe.writer_closed \
                and self._pipe._tail == self._pipe._head

    def _close_impl(self) -> None:
        pipe = self._pipe
        with pipe.cond:
            pipe.reader_closed = True
            pipe._fold_totals()
            pipe.cond.notify_all()


class PipedOutputStream(OutputStream):
    """Write side of a pipe created by :func:`make_pipe`.

    Writing to a pipe whose reader has gone away raises
    :class:`StreamClosedException` — the Java analogue of ``EPIPE``.
    """

    def __init__(self, pipe: RingPipe):
        super().__init__()
        self._pipe = pipe

    def write(self, payload) -> None:
        if self.closed:
            raise StreamClosedException("stream is closed")
        # Accept bytes / bytearray / memoryview without copying into an
        # intermediate: each chunk is consumed (copied into the ring)
        # before the lock is released.  Mutating a bytearray concurrently
        # with a blocking write is the caller's race, as with os.write.
        pipe = self._pipe
        with pipe.cond:
            if pipe.reader_closed:
                raise StreamClosedException("pipe reader closed")
            total = len(payload)
            if not total:
                return
            tail = pipe._tail
            used = tail - pipe._head
            if used + total <= pipe.capacity:
                # Fast path: the whole payload fits — one copy, no
                # wrapper objects, and a wakeup only on the
                # empty → non-empty edge.  The slice-assign is inlined
                # for the common unwrapped case (both guards matter:
                # ``total <= _size - used`` keeps us off unread bytes
                # when the ring hasn't physically grown yet, ``end <=
                # _size`` keeps us off the wrap seam).
                i = tail & pipe._mask
                end = i + total
                if end <= pipe._size and total <= pipe._size - used:
                    pipe._view[i:end] = payload
                    pipe.copies += 1
                    pipe._tail = tail + total
                else:
                    pipe._put(payload, 0)
                if used == 0:
                    pipe.wakeups += 1
                    pipe.cond.notify_all()
                else:
                    pipe.suppressed_wakeups += 1
                return
            self._write_blocking(pipe, memoryview(payload))

    def _write_blocking(self, pipe: RingPipe, view: memoryview) -> None:
        """Capacity-bounded write loop (``pipe.cond`` held)."""
        total = len(view)
        offset = 0
        while True:
            if pipe.reader_closed:
                raise StreamClosedException("pipe reader closed")
            was_empty = pipe._tail == pipe._head
            n = pipe._put(view, offset)
            offset += n
            if n:
                if was_empty:
                    pipe._notify_edge()  # empty → non-empty
                else:
                    pipe.suppressed_wakeups += 1
            if offset >= total:
                return
            wait_until(
                pipe.cond,
                lambda: pipe.reader_closed
                or pipe._tail - pipe._head < pipe.capacity)

    def writev(self, segments) -> None:
        """Gather-write all ``segments`` in one lock session.

        The vectored entry point: N coalesced frames cost one condition
        acquisition (plus capacity waits), not N ``write()`` calls.
        """
        self._ensure_open()
        pipe = self._pipe
        with pipe.cond:
            for segment in segments:
                if pipe.reader_closed:
                    raise StreamClosedException("pipe reader closed")
                total = len(segment)
                if not total:
                    continue
                used = pipe._tail - pipe._head
                if used + total <= pipe.capacity:
                    pipe._put(segment, 0)
                    if used == 0:
                        pipe._notify_edge()
                    else:
                        pipe.suppressed_wakeups += 1
                else:
                    self._write_blocking(pipe, memoryview(segment))

    def reader_gone_hint(self) -> bool:
        """True when the next write is guaranteed to raise (reader closed)."""
        with self._pipe.cond:
            return self._pipe.reader_closed

    def _close_impl(self) -> None:
        pipe = self._pipe
        with pipe.cond:
            pipe.writer_closed = True
            pipe._fold_totals()
            pipe.cond.notify_all()


# -- the legacy bytearray channel, kept for ring-vs-legacy benchmarking ----

class _LegacyPipe:
    """The pre-ring bounded channel: one shared ``bytearray``."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.buffer = bytearray()
        self.cond = WaitPoint()
        self.writer_closed = False
        self.reader_closed = False


class _LegacyPipedInputStream(PipedInputStream):
    """Read side of a legacy pipe: double-copy reads, notify per chunk."""

    # No ring to scan: lines are read a byte at a time, as before.
    read_line = InputStream.read_line

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        pipe = self._pipe
        with pipe.cond:
            wait_until(
                pipe.cond,
                lambda: pipe.buffer or pipe.writer_closed
                or pipe.reader_closed)
            if pipe.reader_closed:
                raise StreamClosedException("pipe reader closed")
            if not pipe.buffer and pipe.writer_closed:
                return b""
            if size is None or size < 0:
                chunk = bytes(pipe.buffer)
                del pipe.buffer[:]
            else:
                chunk = bytes(pipe.buffer[:size])
                del pipe.buffer[:size]
            pipe.cond.notify_all()
            return chunk

    def drain_into(self, consumer, max_bytes: int = -1) -> int:
        raise NotImplementedError("legacy pipes have no zero-copy drain")

    def try_read(self, size: int = -1) -> Optional[bytes]:
        self._ensure_open()
        pipe = self._pipe
        with pipe.cond:
            if pipe.reader_closed:
                raise StreamClosedException("pipe reader closed")
            if not pipe.buffer:
                return b"" if pipe.writer_closed else None
            if size is None or size < 0:
                chunk = bytes(pipe.buffer)
                del pipe.buffer[:]
            else:
                chunk = bytes(pipe.buffer[:size])
                del pipe.buffer[:size]
            pipe.cond.notify_all()
            return chunk

    def readable_hint(self) -> bool:
        pipe = self._pipe
        return bool(pipe.buffer) or pipe.writer_closed or pipe.reader_closed

    def available(self) -> int:
        with self._pipe.cond:
            return len(self._pipe.buffer)

    def at_eof_hint(self) -> bool:
        with self._pipe.cond:
            return self._pipe.writer_closed and not self._pipe.buffer

    def _close_impl(self) -> None:
        pipe = self._pipe
        with pipe.cond:
            pipe.reader_closed = True
            pipe.cond.notify_all()


class _LegacyPipedOutputStream(PipedOutputStream):
    """Write side of a legacy pipe: lock and notify per chunk."""

    def write(self, payload) -> None:
        self._ensure_open()
        pipe = self._pipe
        view = payload if isinstance(payload, memoryview) \
            else memoryview(payload)
        offset = 0
        while offset < len(view):
            with pipe.cond:
                wait_until(
                    pipe.cond,
                    lambda: pipe.reader_closed
                    or len(pipe.buffer) < pipe.capacity)
                if pipe.reader_closed:
                    raise StreamClosedException("pipe reader closed")
                room = pipe.capacity - len(pipe.buffer)
                chunk = view[offset:offset + room]
                pipe.buffer.extend(chunk)
                offset += len(chunk)
                pipe.cond.notify_all()

    def writev(self, segments) -> None:
        for segment in segments:
            self.write(segment)

    def _close_impl(self) -> None:
        pipe = self._pipe
        with pipe.cond:
            pipe.writer_closed = True
            pipe.cond.notify_all()


def make_pipe(capacity: int = DEFAULT_PIPE_CAPACITY, owner=None,
              legacy: bool = False) \
        -> tuple[PipedInputStream, PipedOutputStream]:
    """Create a connected (reader, writer) pipe pair.

    ``legacy=True`` builds the pre-ring bytearray channel — kept only so
    the IPC benchmarks can measure the ring against its predecessor.
    """
    if legacy:
        legacy_pipe = _LegacyPipe(capacity)
        reader: PipedInputStream = _LegacyPipedInputStream(legacy_pipe)
        writer: PipedOutputStream = _LegacyPipedOutputStream(legacy_pipe)
    else:
        pipe = RingPipe(capacity)
        reader = PipedInputStream(pipe)
        writer = PipedOutputStream(pipe)
    reader.owner = owner
    writer.owner = owner
    return reader, writer


# --------------------------------------------------------------------------
# Buffered streams — the transport fast path
# --------------------------------------------------------------------------

#: Default buffer size for the buffered stream wrappers.
DEFAULT_BUFFER_SIZE = 8192


class BufferedInputStream(InputStream):
    """Bulk-reading wrapper: pipe lock traffic scales with chunks, not lines.

    ``read_line`` on a bare :class:`PipedInputStream` costs one pipe
    condition-variable acquisition *per line*, and never reads past the
    terminator.  This wrapper pulls ``buffer_size`` bytes per underlying
    ``read`` (reading ahead, so only one consumer may own the source)
    and serves ``read`` / ``read_byte`` / ``read_line`` /
    ``read_exactly`` from the in-memory chunk; ``read_line`` scans with
    ``bytes.find``.

    ``peek_byte`` looks at the next byte without consuming it — the
    dist protocol's wire-format sniff (JSON line vs binary frame) needs
    exactly one byte of lookahead.
    """

    def __init__(self, source: InputStream,
                 buffer_size: int = DEFAULT_BUFFER_SIZE):
        super().__init__()
        self._source = source
        self._buffer_size = max(1, buffer_size)
        self._chunk = b""
        self._pos = 0

    @property
    def source(self) -> InputStream:
        return self._source

    def _buffered(self) -> int:
        return len(self._chunk) - self._pos

    def _fill(self) -> bool:
        """Refill the internal chunk; False at end of stream."""
        self._chunk = self._source.read(self._buffer_size)
        self._pos = 0
        return bool(self._chunk)

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        if size is not None and size == 0:
            return b""
        if self._buffered():
            if size is None or size < 0:
                chunk = self._chunk[self._pos:]
                self._pos = len(self._chunk)
            else:
                chunk = self._chunk[self._pos:self._pos + size]
                self._pos += len(chunk)
            return chunk
        # Nothing buffered: large reads go straight through, small ones
        # refill the buffer first.
        if size is not None and 0 <= size < self._buffer_size:
            if not self._fill():
                return b""
            chunk = self._chunk[self._pos:self._pos + size]
            self._pos += len(chunk)
            return chunk
        return self._source.read(size)

    def read_byte(self) -> int:
        self._ensure_open()
        if self._pos >= len(self._chunk) and not self._fill():
            return -1
        byte = self._chunk[self._pos]
        self._pos += 1
        return byte

    def peek_byte(self) -> int:
        """The next byte without consuming it; -1 at end of stream."""
        self._ensure_open()
        if self._pos >= len(self._chunk) and not self._fill():
            return -1
        return self._chunk[self._pos]

    def read_line(self) -> Optional[bytes]:
        self._ensure_open()
        pieces: list[bytes] = []
        while True:
            if self._pos >= len(self._chunk) and not self._fill():
                if pieces:
                    return b"".join(pieces)
                return None
            newline = self._chunk.find(b"\n", self._pos)
            if newline >= 0:
                pieces.append(self._chunk[self._pos:newline])
                self._pos = newline + 1
                return b"".join(pieces)
            pieces.append(self._chunk[self._pos:])
            self._pos = len(self._chunk)

    def read_exactly(self, size: int) -> bytes:
        self._ensure_open()
        pieces: list[bytes] = []
        remaining = size
        while remaining > 0:
            if not self._buffered() and remaining >= self._buffer_size:
                # Large remainder: bypass the buffer entirely.
                chunk = self._source.read(remaining)
                if not chunk:
                    raise EOFException(
                        f"expected {size} bytes, got {size - remaining}")
            else:
                chunk = self.read(remaining)
                if not chunk:
                    raise EOFException(
                        f"expected {size} bytes, got {size - remaining}")
            pieces.append(chunk)
            remaining -= len(chunk)
        return b"".join(pieces)

    def try_read(self, size: int = -1) -> Optional[bytes]:
        """Non-blocking read (see ``PipedInputStream.try_read``).

        Buffered bytes are always served immediately; an empty buffer
        defers to the source's ``try_read`` and refills from whatever it
        yields.  Sources without a non-blocking path fall back to a
        plain (potentially blocking) read.
        """
        self._ensure_open()
        if size is not None and size == 0:
            return b""
        if self._buffered():
            return self.read(size)
        source_try = getattr(self._source, "try_read", None)
        if source_try is None:
            return self.read(size)
        chunk = source_try(self._buffer_size)
        if not chunk:
            return chunk  # None (would block) or b"" (EOF)
        self._chunk = chunk
        self._pos = 0
        return self.read(size)

    def readable_hint(self) -> bool:
        if self._buffered():
            return True
        hint = getattr(self._source, "readable_hint", None)
        return hint() if hint is not None else True

    def wait_point(self):
        return self._source.wait_point()

    def available(self) -> int:
        return self._buffered() + self._source.available()

    def at_eof_hint(self) -> bool:
        """Non-blocking EOF probe (see PipedInputStream.at_eof_hint)."""
        if self._buffered():
            return False
        hint = getattr(self._source, "at_eof_hint", None)
        return hint() if hint is not None else False

    def _close_impl(self) -> None:
        self._source.close()


class BufferedOutputStream(OutputStream):
    """Write-combining wrapper with explicit ``flush``.

    Small writes accumulate in an internal buffer and reach the
    underlying stream (one pipe lock acquisition per drain) when the
    buffer fills or ``flush`` is called; writes at least as large as the
    buffer bypass it.
    """

    def __init__(self, sink: OutputStream,
                 buffer_size: int = DEFAULT_BUFFER_SIZE):
        super().__init__()
        self._sink = sink
        self._buffer_size = max(1, buffer_size)
        self._buffer = bytearray()
        self._lock = threading.RLock()

    @property
    def sink(self) -> OutputStream:
        return self._sink

    def buffered_count(self) -> int:
        with self._lock:
            return len(self._buffer)

    def _drain(self) -> None:
        if self._buffer:
            payload = bytes(self._buffer)
            del self._buffer[:]
            self._sink.write(payload)

    def write(self, payload) -> None:
        self._ensure_open()
        with self._lock:
            if len(payload) >= self._buffer_size:
                # Large-write bypass: flush whatever is pending, then
                # ship the caller's buffer directly — copying a payload
                # that already exceeds the coalescing threshold into the
                # chunk would buy nothing and cost a full extra copy.
                self._drain()
                self._sink.write(payload)
                return
            self._buffer.extend(payload)
            if len(self._buffer) >= self._buffer_size:
                self._drain()

    def writev(self, segments) -> None:
        """Gather-write: coalesce small segments, bypass with large ones.

        Produces at most one sink ``writev`` (or a short write sequence
        on sinks without one) for the whole vector, with the pending
        chunk flushed in order ahead of any bypassing segment.
        """
        self._ensure_open()
        with self._lock:
            out = []
            for segment in segments:
                if len(segment) >= self._buffer_size:
                    if self._buffer:
                        out.append(bytes(self._buffer))
                        del self._buffer[:]
                    out.append(segment)
                else:
                    self._buffer.extend(segment)
                    if len(self._buffer) >= self._buffer_size:
                        out.append(bytes(self._buffer))
                        del self._buffer[:]
            if out:
                self._sink.writev(out)

    def flush(self) -> None:
        with self._lock:
            self._drain()
            self._sink.flush()

    def reader_gone_hint(self) -> bool:
        """Non-blocking EPIPE probe (see PipedOutputStream)."""
        hint = getattr(self._sink, "reader_gone_hint", None)
        return hint() if hint is not None else False

    def _close_impl(self) -> None:
        with self._lock:
            try:
                self._drain()
                self._sink.flush()
            finally:
                self._sink.close()


# --------------------------------------------------------------------------
# Print streams and readers
# --------------------------------------------------------------------------

class PrintStream(OutputStream):
    """Character-friendly output with Java's no-throw discipline.

    A ``PrintStream`` never raises :class:`IOException`; failures set an
    internal flag readable via :meth:`check_error`.  This matters for the
    multi-application VM: an application whose output pipe disappears keeps
    running (Section 5.1 discusses shared standard streams).
    """

    def __init__(self, out: OutputStream, auto_flush: bool = True,
                 encoding: str = "utf-8"):
        super().__init__()
        self._out = out
        self._auto_flush = auto_flush
        self._encoding = encoding
        self._error = False
        self._lock = threading.RLock()

    @property
    def target(self) -> OutputStream:
        return self._out

    def _note_error(self, where: str, exc: IOException) -> None:
        # Report only on the transition into the error state so a wedged
        # stream produces one diagnostic, not one per print call.  A closed
        # pipe is the Unix SIGPIPE analogue — routine pipeline shutdown,
        # surfaced via check_error() — so it stays silent.
        if not self._error:
            self._error = True
            if not isinstance(exc, StreamClosedException):
                _report_diagnostic(
                    self, f"PrintStream {where} failed: {exc}")

    def write(self, payload) -> None:
        if isinstance(payload, str):
            payload = payload.encode(self._encoding)
        with self._lock:
            try:
                self._out.write(payload)
                if self._auto_flush:
                    self._out.flush()
            except IOException as exc:
                self._note_error("write", exc)

    def print(self, value: object = "") -> None:
        self.write(str(value))

    def println(self, value: object = "") -> None:
        self.write(str(value) + "\n")

    def printf(self, template: str, *args: object) -> None:
        self.write(template % args if args else template)

    def check_error(self) -> bool:
        with self._lock:
            try:
                self._out.flush()
            except IOException as exc:
                self._note_error("flush", exc)
            return self._error

    def flush(self) -> None:
        with self._lock:
            try:
                self._out.flush()
            except IOException as exc:
                self._note_error("flush", exc)

    def _close_impl(self) -> None:
        try:
            self._out.close()
        except IOException as exc:
            self._note_error("close", exc)


class LineReader:
    """Buffered text reader over an :class:`InputStream`.

    The terminal and shell (Section 6) read user input line by line; this
    is their ``BufferedReader``.
    """

    def __init__(self, source: InputStream, encoding: str = "utf-8"):
        self._source = source
        self._encoding = encoding

    def read_line(self) -> Optional[str]:
        """One line without its terminator; None at end of stream."""
        raw = self._source.read_line()
        if raw is None:
            return None
        return raw.decode(self._encoding, errors="replace")

    def read_all(self) -> str:
        return self._source.read_all().decode(self._encoding,
                                              errors="replace")

    def close(self) -> None:
        self._source.close()


class TeeOutputStream(OutputStream):
    """Duplicates writes to two underlying streams (used by tests)."""

    def __init__(self, first: OutputStream, second: OutputStream):
        super().__init__()
        self._first = first
        self._second = second

    def write(self, payload: bytes) -> None:
        self._ensure_open()
        self._first.write(payload)
        self._second.write(payload)

    def flush(self) -> None:
        self._first.flush()
        self._second.flush()


class CountingOutputStream(OutputStream):
    """Counts bytes written; sink for throughput benchmarks."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def write(self, payload: bytes) -> None:
        self._ensure_open()
        self.count += len(payload)


class HostOutputStream(OutputStream):
    """Adapter onto a real Python file object (host stdout/stderr)."""

    def __init__(self, fileobj):
        super().__init__()
        self._fileobj = fileobj

    def write(self, payload: bytes) -> None:
        self._ensure_open()
        if hasattr(self._fileobj, "buffer"):
            self._fileobj.buffer.write(payload)
        else:
            self._fileobj.write(payload.decode("utf-8", errors="replace"))

    def flush(self) -> None:
        self._fileobj.flush()

    def _close_impl(self) -> None:
        # Never close the host's real stdio.
        self.flush()


class HostInputStream(InputStream):
    """Adapter onto a real Python file object (host stdin)."""

    def __init__(self, fileobj):
        super().__init__()
        self._fileobj = fileobj

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        raw = self._fileobj.buffer if hasattr(self._fileobj, "buffer") \
            else self._fileobj
        data = raw.read(size if size is not None and size >= 0 else -1)
        if isinstance(data, str):
            data = data.encode("utf-8")
        return data or b""
