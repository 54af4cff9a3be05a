"""The four user workloads, each driven from one process through the
public API of ``repro``.

Every workload has the same shape:

* ``__init__(seed, ops)`` generates all inputs from the seed — the
  program only ever sees these generated inputs;
* :meth:`setup` boots the VM(s), stages the inputs and warms up with a
  fixed amount of work that does not depend on the seed, so set-up time
  compares across seeds;
* :meth:`run` performs exactly ``ops`` operations and returns one
  :class:`OpResult` per operation (latency and whether the output matched
  the generator's expectation); a failed check, or an operation the
  program refuses or breaks off with an exception, is recorded and the
  run goes on.  Between operations it calls ``between(n)`` with the
  number done so far, where the caller may take a moment to time the
  host (``gui_events`` calls it only where its schedule leaves room);
* :meth:`teardown` shuts the VM(s) down;
* :meth:`vms` lists the booted VMs, for the per-layer counters.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass

from repro import ExecSpec, MultiProcVM, Placement, TerminalDevice, launch
from repro.awt.components import Button, Component, Frame, TextField
from repro.awt.events import KeyEvent, PaintEvent
from repro.core.context import current_application_or_none
from repro.io.file import read_text
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import NodeUnavailableException
from repro.jvm.threads import JThread
from repro.net.fabric import NetworkFabric
from repro.sched.timers import poll_until
from repro.security.codesource import CodeSource
from repro.unixfs.machine import standard_process

WORDS = ("alpha", "bravo", "delta", "gamma", "kappa", "omega", "sigma",
         "theta", "zulu", "lima", "tango", "echo")

USERS = (("alice", "wonderland"), ("bob", "builder"))


@dataclass
class OpResult:
    latency_s: float
    ok: bool
    detail: str = ""


def _app_material(name: str, main) -> ClassMaterial:
    """Local application code, as installed under /usr/local/java/apps."""
    material = ClassMaterial(f"bench.{name}", code_source=CodeSource(
        f"file:/usr/local/java/apps/{name.lower()}/{name}.class"))
    material.members["main"] = main
    return material


def _root_write(mvm: MultiProcVM, path: str, payload: bytes) -> None:
    """Stage an input file (world-readable) before any user logs in."""
    os_context = mvm.vm.os_context
    root = os_context.machine.users.lookup("root")
    os_context.vfs.write_file(path, payload, root)


# ---------------------------------------------------------------------------
# shell_session
# ---------------------------------------------------------------------------

class ShellSession:
    """Closed loop, one console at a time: one op is a whole session.

    Log in as alice or bob, ``cat F | grep K | wc -l`` over a seeded file,
    write a redirection and read it back, ``ps``, ``exit``.  All lines are
    typed ahead and the device is hung up once the login prompt shows, so
    the op ends when the terminal application exits.
    """

    #: Input file sizes in lines, evenly spaced.  Every block of twenty
    #: sessions uses each file once, in a seeded order, and a run is a
    #: whole number of blocks, so the total work and the size at each
    #: latency percentile are the same for any seed, and neighbouring
    #: sizes are close enough that no percentile sits on a jump.
    SIZES = tuple(300 + 1700 * step // 19 for step in range(20))

    #: Files (indexes into SIZES) of the warm-up sessions, smallest to
    #: largest.
    WARMUP = (0, 6, 13, 19)

    def __init__(self, seed: int, ops: int):
        rng = random.Random(seed)
        self.files = [[" ".join(rng.choice(WORDS) for _ in range(6))
                       for _ in range(count)] for count in self.SIZES]
        order = []
        while len(order) < ops:
            block = list(range(len(self.SIZES)))
            rng.shuffle(block)
            order.extend(block)
        self.plan = [self._item(rng.choice(USERS), which, rng.choice(WORDS),
                                f"{rng.choice(WORDS)}{rng.randrange(10**6)}")
                     for which in order]
        self.warmup = [self._item(USERS[index % 2], which, WORDS[index],
                                  f"warm{index}")
                       for index, which in enumerate(self.WARMUP)]
        self.mvm = None

    def _item(self, account, which: int, keyword: str, token: str) -> tuple:
        user, password = account
        expected = sum(1 for line in self.files[which] if keyword in line)
        return user, password, which, keyword, token, expected

    def vms(self):
        return [self.mvm]

    def setup(self) -> None:
        self.mvm = MultiProcVM.boot()
        for index, lines in enumerate(self.files):
            _root_write(self.mvm, f"/tmp/e2e-in{index}.txt",
                        ("\n".join(lines) + "\n").encode())
        self._session = self.mvm.host_session()
        self._session.__enter__()
        for index, item in enumerate(self.warmup):
            result = self._op(item, index)
            if not result.ok:
                raise RuntimeError(f"warm-up session failed: "
                                   f"{result.detail}")

    def _op(self, item, index: int) -> OpResult:
        user, password, which, keyword, token, expected = item
        device = TerminalDevice(f"tty{index}")
        consoles = self.mvm.vm.consoles
        consoles[device.name] = device
        readback = f"/tmp/e2e-rb-{user}.txt"
        started = time.perf_counter()
        try:
            terminal = self.mvm.launch(
                ExecSpec("tools.Terminal", (device.name,)))
            # One type_text call: its echo lands on the screen in one
            # piece, never between a prompt and a command's output.
            device.type_text("".join(f"{line}\n" for line in (
                user, password,
                f"cat /tmp/e2e-in{which}.txt | grep {keyword} | wc -l",
                f"echo {token} > {readback}",
                f"cat {readback}",
                "ps", "exit")))
            # The terminal stops at once on a device already hung up, so
            # hang up only once it has started the login program.
            poll_until(lambda: "login: " in device.transcript(),
                       timeout=10, interval=0.001)
            device.hang_up()
            code = terminal.wait_for(60)
        except Exception as exc:
            return OpResult(time.perf_counter() - started, False, repr(exc))
        finally:
            del consoles[device.name]
        latency = time.perf_counter() - started
        if code != 0:
            return OpResult(latency, False, f"terminal exit {code}")
        prompt = f"{user}@javaos:/$ "
        screen = device.transcript()
        expected_parts = (f"{prompt}{expected}\n", f"{prompt}{token}\n",
                          "  AID USER     STATE      THR NAME\n",
                          f" {user:<8s} running      1 ps#",
                          f"{prompt}logged out")
        position = 0
        for part in expected_parts:
            found = screen.find(part, position)
            if found < 0:
                return OpResult(latency, False, f"missing {part!r}")
            position = found + len(part)
        return OpResult(latency, True)

    def run(self, between, tracer=None) -> list:
        results = []
        for index, item in enumerate(self.plan):
            if tracer is not None:
                tracer.op_id = index
            results.append(self._op(item, len(self.warmup) + index))
            between(len(results))
        return results

    def teardown(self) -> None:
        self._session.__exit__(None, None, None)
        self.mvm.shutdown()


# ---------------------------------------------------------------------------
# launch_churn
# ---------------------------------------------------------------------------

def _reader_main(jclass, ctx, args):
    # A generator main: the application runs as a task on the VM loop.
    text = read_text(ctx, args[0])  # FilePermission read check
    ctx.stdout.print(text)
    return 0
    yield  # noqa: unreachable - marks main as a continuation


class LaunchChurn:
    """Closed loop from one host session, in waves of ``wave`` launches.

    One op is one ``launch(ExecSpec(...))`` of a tiny task-backed app
    that reads a seeded ``/tmp`` file and prints it, through to its exit
    and reap.  The VM is never restarted, so what each exited app leaves
    behind accumulates exactly as in a long-lived VM.
    """

    FILES = 8
    #: Launches in the warm-up, cycling through the files.
    WARMUP = 200

    def __init__(self, seed: int, ops: int, wave: int):
        rng = random.Random(seed)
        self.wave = max(1, wave)
        self.contents = [
            ("\n".join(" ".join(rng.choice(WORDS)
                                for _ in range(rng.randint(1, 8)))
                       for _ in range(rng.randint(1, 4))) + "\n").encode()
            for _ in range(self.FILES)]
        self.plan = [rng.randrange(self.FILES) for _ in range(ops)]
        self.mvm = None

    def vms(self):
        return [self.mvm]

    def setup(self) -> None:
        self.mvm = MultiProcVM.boot()
        self.mvm.vm.registry.register(_app_material("Reader", _reader_main))
        for index, payload in enumerate(self.contents):
            _root_write(self.mvm, f"/tmp/e2e-msg{index}.txt", payload)
        self._session = self.mvm.host_session()
        self._session.__enter__()
        warmup = [index % self.FILES for index in range(self.WARMUP)]
        for first in range(0, len(warmup), self.wave):
            for result in self._wave(warmup[first:first + self.wave]):
                if not result.ok:
                    raise RuntimeError(f"warm-up launch failed: "
                                       f"{result.detail}")

    def _wave(self, files) -> list:
        launched = []
        results = []
        for which in files:
            sink = ByteArrayOutputStream()
            started = time.perf_counter()
            try:
                app = self.mvm.launch(ExecSpec(
                    "bench.Reader", (f"/tmp/e2e-msg{which}.txt",),
                    stdout=PrintStream(sink)))
            except Exception as exc:  # refused, e.g. by a limit
                results.append(OpResult(time.perf_counter() - started,
                                        False, repr(exc)))
                continue
            launched.append((which, sink, started, app))
        for which, sink, started, app in launched:
            try:
                code = app.wait_for(60)
            except Exception as exc:
                results.append(OpResult(time.perf_counter() - started,
                                        False, repr(exc)))
                continue
            latency = time.perf_counter() - started
            if code != 0:
                results.append(OpResult(latency, False, f"exit {code}"))
            elif sink.to_bytes() != self.contents[which]:
                results.append(OpResult(latency, False, "output mismatch"))
            else:
                results.append(OpResult(latency, True))
        return results

    def run(self, between, tracer=None) -> list:
        results = []
        for wave_id, first in enumerate(range(0, len(self.plan),
                                              self.wave)):
            if tracer is not None:
                tracer.op_id = wave_id
            results.extend(self._wave(self.plan[first:first + self.wave]))
            between(len(results))
        return results

    def teardown(self) -> None:
        self._session.__exit__(None, None, None)
        self.mvm.shutdown()


# ---------------------------------------------------------------------------
# remote_exec
# ---------------------------------------------------------------------------

def _lines_main(jclass, ctx, args):
    word, count = args[0], int(args[1])
    for index in range(count):
        ctx.stdout.println(f"{word} {index:03d}")
    return 0
    yield  # noqa: unreachable - marks main as a continuation


def _expected_lines(word: str, count: int) -> bytes:
    return "".join(f"{word} {index:03d}\n" for index in range(count)).encode()


class RemoteExec:
    """Closed loop, one client on one pooled connection.

    Two VMs share one :class:`NetworkFabric`; VM B runs the rexec daemon.
    One op is an authenticated ``Placement.remote`` launch from VM A of an
    app printing a seeded 0-64 lines, waited for and byte-checked.
    """

    HOST_A = "e2e-a.example.com"
    HOST_B = "e2e-b.example.com"
    PORT = 7100
    #: Remote launches in the warm-up, each printing WARMUP_LINES lines.
    WARMUP, WARMUP_LINES = 50, 32

    def __init__(self, seed: int, ops: int):
        rng = random.Random(seed)
        self.plan = []
        for _ in range(ops):
            user, password = rng.choice(USERS)
            self.plan.append((user, password, rng.choice(WORDS),
                              rng.randint(0, 64)))
        self.mvm_a = self.mvm_b = None

    def vms(self):
        return [self.mvm_a, self.mvm_b]

    def setup(self) -> None:
        fabric = NetworkFabric()
        self.mvm_a = MultiProcVM.boot(
            os_context=standard_process(hostname=self.HOST_A),
            network=fabric)
        self.mvm_b = MultiProcVM.boot(
            os_context=standard_process(hostname=self.HOST_B),
            network=fabric)
        self.mvm_b.vm.registry.register(_app_material("Lines", _lines_main))
        with self.mvm_b.host_session():
            self.mvm_b.launch(ExecSpec("dist.RexecDaemon", (str(self.PORT),)))
        self._session = self.mvm_a.host_session()
        self._session.__enter__()
        self._ctx = self.mvm_a.initial.context()
        # Readiness through the public surface: retry a real remote
        # launch until the daemon accepts.
        deadline = time.monotonic() + 10
        while True:
            try:
                self._remote(("alice", "wonderland", "ready", 1))
                break
            except NodeUnavailableException:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        for index in range(self.WARMUP):
            user, password = USERS[index % 2]
            result = self._op((user, password, "warm", self.WARMUP_LINES))
            if not result.ok:
                raise RuntimeError(f"warm-up remote launch failed: "
                                   f"{result.detail}")

    def _op(self, item) -> OpResult:
        started = time.perf_counter()
        try:
            return self._remote(item)
        except Exception as exc:  # unreachable node, refused login, ...
            return OpResult(time.perf_counter() - started, False, repr(exc))

    def _remote(self, item) -> OpResult:
        user, password, word, count = item
        started = time.perf_counter()
        remote = launch(ExecSpec(
            "bench.Lines", (word, str(count)), user=user, password=password,
            placement=Placement.remote(self.HOST_B, self.PORT)),
            ctx=self._ctx)
        code = remote.wait_for(60)
        latency = time.perf_counter() - started
        if code != 0:
            return OpResult(latency, False,
                            f"exit {code} ({remote.error})")
        if remote.output_bytes() != _expected_lines(word, count):
            return OpResult(latency, False, "output mismatch")
        return OpResult(latency, True)

    def run(self, between, tracer=None) -> list:
        results = []
        for index, item in enumerate(self.plan):
            if tracer is not None:
                tracer.op_id = index
            results.append(self._op(item))
            between(len(results))
        return results

    def teardown(self) -> None:
        self._session.__exit__(None, None, None)
        self.mvm_a.shutdown()
        self.mvm_b.shutdown()


# ---------------------------------------------------------------------------
# gui_events
# ---------------------------------------------------------------------------

CLICK, KEY, PAINT = "click", "key", "paint"


class _Canvas(Component):
    """A component that paints itself and reports which repaint request
    each paint served."""

    def __init__(self, recorder, app_index: int):
        super().__init__("canvas")
        self._recorder = recorder
        self._app_index = app_index

    def process_event(self, event) -> None:
        if isinstance(event, PaintEvent):
            self._recorder.painted(self._app_index, event.bench_seq)
        super().process_event(event)

    def paint(self, graphics) -> None:
        graphics.fill_rect(0, 0, 64, 64)


class _GuiRecorder:
    """Listener-side record of deliveries: time, thread group, order."""

    def __init__(self, apps: int):
        self.lock = threading.Lock()
        self.calls = {(app, kind): [] for app in range(apps)
                      for kind in (CLICK, KEY)}
        #: Per app: (sequence number of the painted request, time).
        self.paints = {app: [] for app in range(apps)}
        self.foreign = 0
        self.shown = [threading.Event() for _ in range(apps)]
        self.applications = [None] * apps
        self.canvases = [None] * apps

    def delivered(self, app_index: int, kind: str, payload) -> None:
        now = time.perf_counter()
        self._check_owner(app_index)
        with self.lock:
            self.calls[(app_index, kind)].append((now, payload))

    def painted(self, app_index: int, seq: int) -> None:
        now = time.perf_counter()
        self._check_owner(app_index)
        with self.lock:
            self.paints[app_index].append((seq, now))

    def _check_owner(self, app_index: int) -> None:
        # Section 5.4: the listener runs inside the owning application's
        # thread group, on that application's dispatch thread.
        application = self.applications[app_index]
        thread = JThread.current_or_none()
        if (application is None or thread is None
                or current_application_or_none() is not application
                or not application.thread_group.parent_of(thread.group)):
            with self.lock:
                self.foreign += 1


class GuiEvents:
    """Open loop at a fixed rate; one generator thread injects input.

    Four GUI apps receive clicks and keys through the X server, plus
    repaint storms; app 0's click handler blocks for ``SLOW_S``.  One op
    is one injected event, timed from its due time to the listener call
    (for a repaint, to the paint that covers it — storms coalesce).
    """

    APPS = 4
    SLOW_S = 0.003
    STORM = 4
    #: The schedule, not the program, sets how long the run takes.
    open_loop = True
    #: ``between`` is called only when the next event is due this much
    #: later (after a storm), once the dispatch threads have had
    #: ``SETTLE_S`` to take the events just posted, so timing the host
    #: delays no event.
    GAP_S, SETTLE_S = 0.008, 0.002
    #: Share of draws that are clicks (then keys, then storms).  About 7%
    #: of all events are clicks on the slow app, so p95 lands among them
    #: rather than on the edge between them and the fast events.
    CLICKS, KEYS = 0.40, 0.45

    def __init__(self, seed: int, ops: int, rate: float):
        rng = random.Random(seed)
        self.plan = []  # (due offset s, app, kind, payload)
        slot = 0
        while len(self.plan) < ops:
            due = slot / rate
            app = rng.randrange(self.APPS)
            roll = rng.random()
            if roll < self.CLICKS:
                self.plan.append((due, app, CLICK, None))
            elif roll < self.CLICKS + self.KEYS:
                self.plan.append((due, app, KEY, rng.choice("abcdefghij")))
            else:
                for _ in range(min(self.STORM, ops - len(self.plan))):
                    self.plan.append((due, app, PAINT, None))
            slot = len(self.plan)
        self.recorder = _GuiRecorder(self.APPS)
        self.mvm = None
        self.lateness_s: list = []
        #: Plan index -> the exception its injection raised.
        self.inject_errors: dict = {}

    def vms(self):
        return [self.mvm]

    def _gui_main(self):
        recorder = self.recorder
        slow_s = self.SLOW_S

        def main(jclass, ctx, args):
            index = int(args[0])
            frame = Frame(f"e2e-gui-{index}")
            button = Button("click", name="click")
            field = TextField(name="keys")
            canvas = _Canvas(recorder, index)

            def on_click(event):
                if index == 0:
                    time.sleep(slow_s)  # the slow application's handler
                recorder.delivered(index, CLICK, None)

            def on_key(event):
                recorder.delivered(index, KEY, event.char)

            button.add_action_listener(on_click)
            field.add_listener(KeyEvent, on_key)
            for component in (button, field, canvas):
                frame.add(component)
            frame.show()
            recorder.canvases[index] = canvas
            recorder.shown[index].set()
            return 0
        return main

    def setup(self) -> None:
        self.mvm = MultiProcVM.boot()
        self.mvm.vm.registry.register(_app_material("Gui", self._gui_main()))
        self._session = self.mvm.host_session()
        self._session.__enter__()
        xserver = self.mvm.toolkit.xserver
        self.windows = []
        for index in range(self.APPS):
            app = self.mvm.launch(ExecSpec("bench.Gui", (str(index),)))
            self.recorder.applications[index] = app
            if not self.recorder.shown[index].wait(10):
                raise RuntimeError(f"gui app {index} never showed")
            self.windows.append(xserver.find_window(f"e2e-gui-{index}"))
        self._paint_seq = [0] * self.APPS
        # Warm-up: one of each event kind per app, outside the plan.
        for index in range(self.APPS):
            self._inject(index, CLICK, None)
            self._inject(index, KEY, "w")
            self._inject(index, PAINT, None)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with self.recorder.lock:
                done = all(len(self.recorder.calls[(i, k)]) == 1
                           and self.recorder.paints[i]
                           for i in range(self.APPS) for k in (CLICK, KEY))
            if done:
                break
            time.sleep(0.005)
        else:
            raise RuntimeError("gui warm-up events were not delivered")
        self._warm = {key: len(calls)
                      for key, calls in self.recorder.calls.items()}

    def _inject(self, app: int, kind: str, payload) -> int:
        xserver = self.mvm.toolkit.xserver
        if kind == CLICK:
            xserver.click_component(self.windows[app], "click")
        elif kind == KEY:
            xserver.send_key(self.windows[app], "keys", payload)
        else:
            self._paint_seq[app] += 1
            event = PaintEvent(self.recorder.canvases[app])
            event.application = self.recorder.applications[app]
            event.bench_seq = self._paint_seq[app]
            self.mvm.toolkit.dispatcher.post(event)
            return self._paint_seq[app]
        return 0

    def run(self, between, tracer=None) -> list:
        paint_seqs = []
        start = time.perf_counter() + 0.01
        late = self.lateness_s
        for op_id, (due, app, kind, payload) in enumerate(self.plan):
            due_at = start + due
            now = time.perf_counter()
            if now < due_at:
                time.sleep(due_at - now)
                now = time.perf_counter()
            late.append(now - due_at)
            if tracer is not None:
                tracer.op_id = op_id
            try:
                paint_seqs.append(self._inject(app, kind, payload))
            except Exception as exc:  # e.g. a queue already closed
                self.inject_errors[op_id] = repr(exc)
                paint_seqs.append(None)
            following = op_id + 1
            if following == len(self.plan) or (
                    start + self.plan[following][0] - time.perf_counter()
                    > self.GAP_S):
                time.sleep(self.SETTLE_S)
                between(following)
        expected = {}
        for op_id, (_due, app, kind, _payload) in enumerate(self.plan):
            if kind != PAINT and op_id not in self.inject_errors:
                expected[(app, kind)] = expected.get((app, kind), 0) + 1
        # Drain: every click and key must arrive; the last repaint of
        # each app must be painted.
        last_paint = {app: seq for (_d, app, kind, _p), seq
                      in zip(self.plan, paint_seqs)
                      if kind == PAINT and seq is not None}
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with self.recorder.lock:
                done = all(len(self.recorder.calls[key]) - self._warm[key]
                           >= count for key, count in expected.items()) \
                    and all(self.recorder.paints[app]
                            and self.recorder.paints[app][-1][0] >= seq
                            for app, seq in last_paint.items())
            if done:
                break
            time.sleep(0.005)
        return self._results(start, paint_seqs)

    def _results(self, start: float, paint_seqs: list) -> list:
        recorder = self.recorder
        with recorder.lock:
            calls = {key: list(value[self._warm[key]:])
                     for key, value in recorder.calls.items()}
            paints = {app: list(value)
                      for app, value in recorder.paints.items()}
        painted_seqs = {app: [seq for seq, _at in value]
                        for app, value in paints.items()}
        cursor = {key: 0 for key in calls}
        results = []
        for op_id, ((due, app, kind, payload), seq) in enumerate(
                zip(self.plan, paint_seqs)):
            due_at = start + due
            if op_id in self.inject_errors:
                results.append(OpResult(0.0, False,
                                        self.inject_errors[op_id]))
                continue
            if kind == PAINT:
                # Paints arrive in request order; the first one at or
                # after this request covers it.
                position = bisect.bisect_left(painted_seqs[app], seq)
                if position == len(painted_seqs[app]):
                    results.append(OpResult(0.0, False, "never painted"))
                else:
                    done_at = paints[app][position][1]
                    results.append(OpResult(done_at - due_at, True))
                continue
            key = (app, kind)
            position = cursor[key]
            cursor[key] = position + 1
            if position >= len(calls[key]):
                results.append(OpResult(0.0, False, "not delivered"))
                continue
            at, got = calls[key][position]
            if kind == KEY and got != payload:
                results.append(OpResult(at - due_at, False,
                                        "out of order or duplicated"))
            else:
                results.append(OpResult(at - due_at, True))
        # Exactly once: a listener call beyond the injected count, or one
        # made outside the owning application, fails one operation each.
        extra = sum(len(calls[key]) - cursor[key] for key in calls)
        foreign = recorder.foreign
        for index in range(min(len(results), extra + foreign)):
            results[index] = OpResult(results[index].latency_s, False,
                                      "duplicate or foreign delivery")
        return results

    def teardown(self) -> None:
        self._session.__exit__(None, None, None)
        self.mvm.shutdown()
