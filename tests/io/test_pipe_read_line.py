"""``PipedInputStream.read_line``: one ring scan per line, no read-ahead.

The reference is :meth:`InputStream.read_line` (the byte-at-a-time loop)
over a :class:`ByteArrayInputStream` of the same bytes.  Small
capacities push lines and terminators across the wrap seam and make
writers block mid-line.
"""

import random
import time

import pytest

from repro.io.streams import (
    ByteArrayInputStream,
    LineReader,
    StreamClosedException,
    make_pipe,
)
from repro.jvm.errors import InterruptedException
from repro.jvm.threads import JThread, ThreadGroup


@pytest.fixture
def root():
    return ThreadGroup(None, "system")


def _reference_lines(data: bytes) -> list:
    source = ByteArrayInputStream(data)
    lines = []
    while (line := source.read_line()) is not None:
        lines.append(line)
    return lines


def _pipe_lines(reader) -> list:
    lines = []
    while (line := reader.read_line()) is not None:
        lines.append(line)
    return lines


def _random_chunks(rng: random.Random, capacity: int):
    """Seeded lines (empty, short and longer than ``capacity``) split
    into writes: some cut a line, some carry a ``\\n`` on its own."""
    data = bytearray()
    chunks = []
    for _ in range(rng.randint(0, 40)):
        line = bytes(rng.choice(b"abc xyz") for _ in
                     range(rng.choice((0, 0, 1, 3, capacity - 1,
                                       capacity, 3 * capacity + 1))))
        cut = rng.randint(0, len(line))
        pieces = [line[:cut], line[cut:]]
        if rng.random() < 0.4:
            pieces.append(b"\n")  # the terminator alone, in a later write
        else:
            pieces[-1] += b"\n"
        chunks.extend(piece for piece in pieces if piece)
        data += line + b"\n"
    if rng.random() < 0.5:
        tail = b"unterminated"[:rng.randint(1, 12)]
        chunks.append(tail)
        data += tail
    return chunks, bytes(data)


def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_byte_loop_across_chunks_and_seam(self, root, seed):
        rng = random.Random(seed)
        capacity = rng.choice((4, 8, 16))
        chunks, data = _random_chunks(rng, capacity)
        reader, writer = make_pipe(capacity=capacity)
        # Move the head off zero so lines and terminators hit the seam.
        offset = rng.randint(1, capacity - 1)
        writer.write(b"-" * offset)
        assert reader.read(offset) == b"-" * offset

        def produce():
            for chunk in chunks:
                writer.write(chunk)
            writer.close()

        producer = JThread(target=produce, group=root)
        producer.start()
        got = _pipe_lines(reader)
        producer.join(5)
        assert not producer.is_alive()
        assert got == _reference_lines(data)

    def test_empty_and_unterminated_lines(self):
        reader, writer = make_pipe(capacity=8)
        writer.write(b"\n\nab\n\ncd")
        writer.close()
        assert _pipe_lines(reader) == [b"", b"", b"ab", b"", b"cd"]
        assert reader.read_line() is None

    def test_legacy_pipe_returns_the_same_lines(self, root):
        chunks, data = _random_chunks(random.Random(7), 8)
        reader, writer = make_pipe(capacity=8, legacy=True)

        def produce():
            for chunk in chunks:
                writer.write(chunk)
            writer.close()

        producer = JThread(target=produce, group=root)
        producer.start()
        got = _pipe_lines(reader)
        producer.join(5)
        assert not producer.is_alive()
        assert got == _reference_lines(data)


class TestNoReadAhead:
    def test_consumes_through_the_terminator_only(self):
        reader, writer = make_pipe(capacity=16)
        writer.write(b"one\ntwo\nthree")
        assert LineReader(reader).read_line() == "one"
        assert reader.available() == len(b"two\nthree")
        writer.close()
        # A second reader of the same stream (a child sharing stdin)
        # gets exactly the rest.
        assert reader.read_all() == b"two\nthree"


class TestBlocking:
    def test_wakes_a_writer_blocked_on_a_full_pipe(self, root):
        reader, writer = make_pipe(capacity=8)
        pipe = reader._pipe
        writer.write(b"ab\ncdefg")  # exactly full
        done = []

        def produce():
            writer.write(b"hi\n")  # fits once "ab\n" is consumed
            done.append(True)

        producer = JThread(target=produce, group=root)
        producer.start()
        wakeups = pipe.wakeups
        assert reader.read_line() == b"ab"
        assert pipe.wakeups == wakeups + 1  # the full → non-full edge
        producer.join(5)
        assert done == [True]
        assert reader.read_line() == b"cdefghi"

    def test_own_close_while_blocked_raises(self, root):
        reader, writer = make_pipe()
        writer.write(b"partial")
        outcome = []

        def consume():
            try:
                reader.read_line()
                outcome.append("read")
            except StreamClosedException:
                outcome.append("closed")

        consumer = JThread(target=consume, group=root)
        consumer.start()
        _wait_for(lambda: reader.available() == 0)  # partial consumed
        reader.close()
        consumer.join(5)
        assert outcome == ["closed"]

    def test_interrupt_while_blocked_leaves_pipe_readable(self, root):
        reader, writer = make_pipe()
        writer.write(b"lost")
        outcome = []

        def consume():
            try:
                reader.read_line()
                outcome.append("read")
            except InterruptedException:
                outcome.append("interrupted")

        consumer = JThread(target=consume, group=root)
        consumer.start()
        _wait_for(lambda: reader.available() == 0)  # partial consumed
        consumer.interrupt()
        consumer.join(5)
        assert outcome == ["interrupted"]
        writer.write(b"next\nline\n")
        assert reader.read_line() == b"next"
        assert reader.read_line() == b"line"


class TestCopyCount:
    def test_one_take_per_line(self):
        """Per-line, not per-byte: N lines cost at most N + 2 copies
        (one ``_take`` each, plus a split at the wrap seam)."""
        lines = [b"line %d %s" % (i, b"=" * (i % 17)) for i in range(500)]
        reader, writer = make_pipe()
        pipe = reader._pipe
        for line in lines:
            writer.write(line + b"\n")
        writer.close()
        before = pipe.copies
        text = LineReader(reader)
        got = []
        while (line := text.read_line()) is not None:
            got.append(line.encode())
        assert got == lines
        assert pipe.copies - before <= len(lines) + 2
