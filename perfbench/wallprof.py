"""Per-layer host-time split of one traced workload run.

:class:`WallProfiler` watches a run from outside the program, through
the two public hook surfaces the stack already offers:

* the runtime monitor (``PadicoRuntime.observe``), which reports span
  starts and ends at ``corba.invoke/dispatch``, ``mpi.*``,
  ``gridccm.*``, ``circuit.*``, ``vlink.*``, ``arbitration.*``,
  ``bsd.*`` and ``net.transfer``, plus the wire and GridCCM counters;
* the kernel tracer (``SimKernel.attach_tracer``), which reports every
  fired timer and every switch into a simulated process.

The benchmark adds its own spans around the calls it makes into each
layer (building a topology, deploying a component, admitting flows,
planning a redistribution); see :meth:`WallProfiler.section` and
:meth:`WallProfiler.timed`.

Under the thread backend a blocked span's wall interval covers other
processes' work, so a span's duration says little.  Instead, at every
hook the wall time since the previous hook is charged to exactly one
place:

* the top of the span stack of the simulated process that was running
  (a process with an empty stack charges the layer that spawned it:
  ``giop-*``/``orb-*`` threads to ``corba``, ``mpi-*`` to ``mpi``,
  ``gridccm-*`` to ``core``, ``aio-*`` to the personality layer, and
  every other thread to ``app``);
* for a fired timer, the layer of the module that owns its callback
  (process wake-ups belong to ``sim``);
* otherwise ``sim``.  In particular, the interval that ends at the
  kernel's next ``on_fire`` after a process ran goes to ``sim``: by
  then no process holds the run token, and the interval holds the
  process's yield, the handoff back to the kernel and the kernel loop
  (plus whatever the process did after its last span hook before it
  blocked, which no public hook separates).  The handoff *into* a
  process, between ``on_switch`` and the process's first hook, stays
  with the resumed process's layer: no hook marks the moment it
  resumes.

The hooks' own cost is left out of every layer, so the layers sum to
``coverage`` times the traced wall time; the remainder is the
profiler's own cost.  Spans stay in memory (up to ``max_spans``) and
are written out by the caller when the run ends.  Nothing here sleeps,
schedules or reads the virtual clock's future, so the simulated
schedule is the same with and without the profiler attached.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: every place wall time can be charged to; the split sums over these
LAYERS = ("sim", "net", "padicotm.abstraction", "padicotm.arbitration",
          "padicotm.personality", "corba", "mpi", "core", "app")

#: span-name prefix (text before the first dot) -> layer
_SPAN_LAYER = {
    "sim": "sim",
    "net": "net",
    "circuit": "padicotm.abstraction",
    "vlink": "padicotm.abstraction",
    "arbitration": "padicotm.arbitration",
    "bsd": "padicotm.personality",
    "corba": "corba",
    "mpi": "mpi",
    "gridccm": "core",
    "core": "core",
}

#: module prefix -> layer, most specific first
_MODULE_LAYER = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.padicotm.abstraction", "padicotm.abstraction"),
    ("repro.padicotm.personality", "padicotm.personality"),
    ("repro.padicotm", "padicotm.arbitration"),
    ("repro.corba", "corba"),
    ("repro.ccm", "corba"),
    ("repro.mpi", "mpi"),
    ("repro.core", "core"),
)

#: simulated-thread name prefix -> layer owning the thread's own code
_THREAD_LAYER = (
    ("giop-", "corba"),
    ("orb-", "corba"),
    ("mpi-", "mpi"),
    ("gridccm-", "core"),
    ("aio-", "padicotm.personality"),
)


def span_layer(name: str) -> str:
    return _SPAN_LAYER.get(name.split(".", 1)[0], "app")


def module_layer(module: str | None) -> str:
    if module:
        for prefix, layer in _MODULE_LAYER:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "app"


def thread_layer(name: str) -> str:
    label = name.rsplit("/", 1)[-1]
    for prefix, layer in _THREAD_LAYER:
        if label.startswith(prefix):
            return layer
    return "app"


class WallProfiler:
    """Runtime monitor + kernel tracer accumulating wall time per layer.

    Attach with ``runtime.observe(profiler)`` right after the runtime is
    built; call :meth:`start` before the first thing to be measured and
    :meth:`stop` after the last.
    """

    def __init__(self, max_spans: int = 200_000):
        self.kernel: Any = None
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: program counters seen through ``on_counter``/``on_driver_io``
        self.counters: dict[str, float] = {}
        #: span starts per span name, and outermost ``mpi.*`` spans
        self.name_starts: dict[str, int] = {}
        self.mpi_calls = 0
        self.switches = 0
        #: fired timers other than process wake-ups
        self.timer_fires = 0
        #: [name, layer, thread, parent index, wall start, wall end]
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.max_spans = max_spans
        #: id(simulated process) -> stack of (layer, span index, name);
        #: entry 0 is the thread's own layer
        self._stacks: dict[int, list[tuple[str, int, str]]] = {}
        self._kstack: list[tuple[str, int, str]] = [("app", -1, "")]
        self._module_cache: dict[Any, str] = {}
        self._place = "app"
        #: a process ran since the kernel's last ``on_fire``
        self._proc_ran = False
        self._last = 0.0
        self.t_start = 0.0
        self.t_stop = 0.0

    # -- lifetime ------------------------------------------------------
    def start(self) -> None:
        self.t_start = self._last = time.perf_counter()

    def stop(self) -> None:
        self.t_stop = self._charge()

    def on_attach(self, runtime: Any) -> None:
        self.kernel = runtime.kernel
        runtime.kernel.attach_tracer(self)

    def on_detach(self, runtime: Any) -> None:
        runtime.kernel.detach_tracer(self)

    @property
    def wall_s(self) -> float:
        return self.t_stop - self.t_start

    def layer_starts(self, layer: str) -> int:
        return sum(n for name, n in self.name_starts.items()
                   if span_layer(name) == layer)

    @property
    def coverage(self) -> float:
        wall = self.wall_s
        return sum(self.self_s.values()) / wall if wall > 0 else 0.0

    # -- charging ------------------------------------------------------
    def _charge(self) -> float:
        now = time.perf_counter()
        self.self_s[self._place] += now - self._last
        return now

    def _stack(self) -> list[tuple[str, int, str]]:
        proc = self.kernel.current if self.kernel is not None else None
        if proc is None:
            return self._kstack
        return self._proc_stack(proc)

    def _proc_stack(self, proc: Any) -> list[tuple[str, int, str]]:
        stack = self._stacks.get(id(proc))
        if stack is None:
            stack = [(thread_layer(proc.name), -1, "")]
            self._stacks[id(proc)] = stack
        return stack

    def _open(self, name: str, layer: str, now: float) -> None:
        stack = self._stack()
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            proc = self.kernel.current if self.kernel is not None else None
            self.spans.append([name, layer,
                               proc.name if proc is not None else "kernel",
                               stack[-1][1], now, None])
        else:
            index = -1
            self.spans_dropped += 1
        self.name_starts[name] = self.name_starts.get(name, 0) + 1
        stack.append((layer, index, name))
        self._place = layer

    def _close(self, name: str, now: float) -> None:
        stack = self._stack()
        # tolerate skipped ends: close intermediates at the same instant
        for depth in range(len(stack) - 1, 0, -1):
            if stack[depth][2] == name:
                for _layer, index, _name in stack[depth:]:
                    if index >= 0:
                        self.spans[index][5] = now
                del stack[depth:]
                break
        self._place = stack[-1][0]

    # -- runtime monitor hooks ------------------------------------------
    def on_span_start(self, name: str, cat: str = "", **attrs: Any) -> None:
        now = self._charge()
        layer = span_layer(name)
        if layer == "mpi" and self._stack()[-1][0] != "mpi":
            self.mpi_calls += 1
        self._open(name, layer, now)
        self._last = time.perf_counter()

    def on_span_end(self, name: str, **attrs: Any) -> None:
        now = self._charge()
        self._close(name, now)
        self._last = time.perf_counter()

    def on_counter(self, name: str, delta: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def on_driver_io(self, driver: str, direction: str,
                     nbytes: float) -> None:
        key = f"driver.{direction}_bytes"
        self.counters[key] = self.counters.get(key, 0.0) + nbytes

    def on_gauge(self, name: str, value: float) -> None:
        pass

    def on_flow_start(self, *args: Any, **kwargs: Any) -> None:
        pass

    def on_flow_end(self, *args: Any, **kwargs: Any) -> None:
        pass

    # -- kernel tracer hooks --------------------------------------------
    def on_fire(self, timer: Any) -> None:
        if self._proc_ran:
            # a process yielded: its handoff back and the kernel loop
            self._place = "sim"
            self._proc_ran = False
        self._charge()
        # the callback is the timer's private field: read-only use
        fn = getattr(timer, "_fn", None)
        key = getattr(fn, "__func__", fn)
        layer = self._module_cache.get(key)
        if layer is None:
            layer = module_layer(getattr(fn, "__module__", None))
            self._module_cache[key] = layer
        if layer != "sim" or getattr(fn, "__name__", "") != "_wake":
            self.timer_fires += 1
        self._kstack = [(layer, -1, "")]
        self._place = layer
        self._last = time.perf_counter()

    def on_switch(self, proc: Any) -> None:
        self._charge()
        self.switches += 1
        self._proc_ran = True
        self._place = self._proc_stack(proc)[-1][0]
        self._last = time.perf_counter()

    def on_exit(self, proc: Any) -> None:
        self._charge()
        self._stacks.pop(id(proc), None)
        self._place = "sim"
        self._last = time.perf_counter()

    def on_schedule(self, timer: Any) -> None:
        pass

    def on_join(self, proc: Any, target: Any) -> None:
        pass

    def hb_release(self, obj: Any) -> None:
        pass

    def hb_acquire(self, obj: Any) -> None:
        pass

    # -- the benchmark's own spans --------------------------------------
    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Span around a call the benchmark makes into one layer."""
        self.on_span_start(name)
        try:
            yield
        finally:
            self.on_span_end(name)

    def timed(self, name: str, counter: str, fn: Callable) -> Callable:
        """Wrap a public entry point: a span plus its inclusive wall
        time accumulated in ``counters[counter]`` (and a call count in
        ``counters[counter + '.calls']``)."""
        counters = self.counters
        calls = counter + ".calls"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.on_span_start(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                counters[counter] = counters.get(counter, 0.0) + spent
                counters[calls] = counters.get(calls, 0.0) + 1
                self.on_span_end(name)

        return wrapper

    # -- output --------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, layer, thread, parent index and
        wall start/end in seconds since :meth:`start`."""
        t0 = self.t_start
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, layer, thread, parent, start, end) in \
                    enumerate(self.spans):
                out.write(json.dumps(
                    [i, name, layer, thread, parent, round(start - t0, 9),
                     None if end is None else round(end - t0, 9)]))
                out.write("\n")


class NullProfiler:
    """Stands in for :class:`WallProfiler` in untraced runs."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        yield
