"""Span recording around the public functions of each ``src/repro`` layer.

Used by the traced run only.  :class:`Tracer` replaces a function
attribute on its module or class with a wrapper that records one span per
call: name, start, end, parent span on the same thread, and the id of the
operation in flight.  Nothing inside ``src/`` is edited; callers that
look the attribute up at call time (module functions used as
``module.f(...)`` and every method) reach the wrapper.  A caller holding a
``from module import f`` copy does not, which is why every wrapper is
listed with the workload on which it must record calls (:data:`HEAVY`).

Spans stay in memory as tuples and are only summarised (or written out)
after the timed phase.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    """Installs wrappers, records spans while active, then summarises."""

    def __init__(self):
        self.active = False
        #: The id of the operation (or launch wave) in flight.
        self.op_id = -1
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._installed: list = []
        #: Extra per-call counters (name -> [calls, amount]).
        self.counts: dict = {}
        #: ids of output streams that are network connection endpoints.
        self.net_outputs: set = set()

    # -- installation ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None,
             always: bool = False) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        ``after(result, args)`` runs after a successful call while the
        tracer is active (or on every call when ``always``, for endpoints
        that set-up opens and the timed phase reuses); it feeds the byte
        and endpoint counters.
        """
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                result = fn(*args, **kwargs)
                if always:
                    after(result, args)
                return result
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     tracer.op_id))
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            entry = self.counts.get(name)
            if entry is None:
                entry = self.counts[name] = [0, 0]
            entry[0] += 1
            entry[1] += amount

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- summary --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms.

        A span nested directly in a span of the same name (a subclass
        override calling ``super()``, or the security manager calling the
        access controller) is folded into its parent, so each logical
        call counts once.  Self time is a span's duration minus the time
        its direct children cover; children run on the parent's thread
        and nest inside it, so their durations add up without overlap.
        """
        by_id = {span[0]: span for span in self.spans}
        child_ns: dict = {}
        folded: set = set()
        for span_id, parent, name, start, end, _op in self.spans:
            parent_span = by_id.get(parent)
            if parent_span is not None and parent_span[2] == name:
                folded.add(span_id)
                continue
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        # A folded span's children belong to the span it was folded into;
        # ids grow with start time, so inner folds move first.
        for span_id in sorted(folded, reverse=True):
            parent = by_id[span_id][1]
            child_ns[parent] = child_ns.get(parent, 0) \
                + child_ns.pop(span_id, 0)
        out: dict = {}
        for span_id, _parent, name, start, end, _op in self.spans:
            if span_id in folded:
                continue
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
            duration = end - start
            entry["calls"] += 1
            entry["ms"] += duration / 1e6
            entry["self_ms"] += (duration - child_ns.get(span_id, 0)) / 1e6
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent or None, "name": name,
                     "start_ns": start, "end_ns": end,
                     "op": op}) + "\n")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.awt.events import EventQueue, PaintEvent
    from repro.core.application import Application
    from repro.core.launcher import MultiProcVM
    from repro.core.reload import ApplicationClassLoader
    from repro.dist.client import RemoteApplication
    from repro.io.streams import PipedInputStream, PipedOutputStream
    from repro.jvm.classloading import ClassLoader
    from repro.jvm.threads import JThread
    from repro.net.fabric import Listener, NetworkFabric
    from repro.security import access
    from repro.security.auth import UserDatabase
    from repro.security.manager import SecurityManager
    from repro.telemetry.audit import AuditLog
    from repro.telemetry.metrics import MetricsRegistry
    from repro.tools.shell import Shell
    from repro.unixfs.vfs import VirtualFileSystem

    def read_bytes(result, _args):
        if result:
            tracer.count("io.pipe.read.bytes", len(result))

    def net_write(_result, args):
        if id(args[0]) in tracer.net_outputs:
            tracer.count("net.write")

    def client_endpoint(endpoint, _args):
        tracer.net_outputs.add(id(endpoint.output))

    def server_endpoint(endpoint, _args):
        if endpoint is not None:
            tracer.net_outputs.add(id(endpoint.output))

    def posted(_result, args):
        if isinstance(args[1], PaintEvent):
            tracer.count("awt.post.paint")

    wrap = tracer.wrap
    wrap(MultiProcVM, "launch", "core.launch")
    wrap(Application, "wait_for", "core.app.wait")
    wrap(ClassLoader, "load_class", "jvm.classload")
    wrap(ApplicationClassLoader, "load_class", "jvm.classload")
    wrap(JThread, "start", "jvm.thread.start")
    wrap(access, "check_permission", "security.check")
    wrap(SecurityManager, "check_permission", "security.check")
    wrap(UserDatabase, "authenticate", "security.auth")
    wrap(PipedInputStream, "read", "io.pipe.read", after=read_bytes)
    wrap(PipedInputStream, "try_read", "io.pipe.read", after=read_bytes)
    wrap(PipedOutputStream, "write", "io.pipe.write", after=net_write)
    wrap(PipedOutputStream, "writev", "io.pipe.write", after=net_write)
    wrap(Shell, "run_line", "tools.shell.line")
    wrap(RemoteApplication, "__init__", "dist.remote")
    wrap(NetworkFabric, "connect", "net.connect", after=client_endpoint,
         always=True)
    wrap(Listener, "accept", "net.accept", after=server_endpoint,
         always=True)
    wrap(Listener, "try_accept", "net.accept", after=server_endpoint,
         always=True)
    wrap(EventQueue, "post_event", "awt.post", after=posted)
    wrap(MetricsRegistry, "counter", "telemetry.lookup")
    wrap(MetricsRegistry, "gauge", "telemetry.lookup")
    wrap(MetricsRegistry, "histogram", "telemetry.lookup")
    wrap(AuditLog, "record", "telemetry.audit")
    for attr in ("open", "read_file", "write_file", "exists", "stat",
                 "is_dir", "is_file", "listdir", "create_file", "unlink",
                 "mkdir"):
        wrap(VirtualFileSystem, attr, "unixfs.vfs")


#: Span names (or counters) that must record at least one call on the
#: named workload; a zero means the wrapper is bound where no caller looks.
HEAVY = {
    "shell_session": ("io.pipe.read", "io.pipe.write", "tools.shell.line",
                      "unixfs.vfs", "jvm.classload", "jvm.thread.start",
                      "security.check", "security.auth", "telemetry.lookup"),
    "launch_churn": ("core.launch", "core.app.wait", "jvm.classload",
                     "jvm.thread.start", "security.check",
                     "telemetry.lookup", "telemetry.audit", "unixfs.vfs"),
    "remote_exec": ("dist.remote", "security.auth", "security.check",
                    "io.pipe.read", "io.pipe.write", "net.write"),
    "gui_events": ("awt.post",),
}

#: Every wrapped layer; a span's layer is the first part of its name.
LAYERS = ("core", "jvm", "security", "io", "tools", "dist", "net", "awt",
          "telemetry", "unixfs")
