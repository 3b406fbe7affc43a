"""Deterministic cooperative simulation kernel.

The kernel multiplexes simulated processes onto a ``(time, seq)``-ordered
event heap and enforces *one-at-a-time* execution: a process runs until
it performs a timed or blocking primitive (``sleep``, ``suspend``, a
:class:`Mailbox` get, ...), at which point control returns to the
kernel, which pops the next event off the heap.  Because the event
order is a total order and only one process ever runs, simulations are
exactly reproducible — a property the test-suite checks.

*How* control moves between the kernel and a process is delegated to a
pluggable :class:`~repro.sim.backends.SwitchBackend`
(``SimKernel(backend=...)`` or the ``REPRO_SIM_BACKEND`` environment
variable).  The default ``"thread"`` backend is the classic "threads as
coroutines" pattern — each process owns a semaphore, the backend owns
one, and a switch is a release/acquire pair on each side; the
``"trampoline"`` backend swaps that OS handshake for generator-based
switching while preserving the event order bit for bit (see
:mod:`repro.sim.backends` for the determinism contract).

Two opt-in hooks support the dynamic sanitizer (:mod:`repro.sanitizer`);
both are free when unused:

- :meth:`SimKernel.attach_tracer` — when a tracer is attached, the
  kernel reports scheduling events to it
  (``on_schedule``/``on_fire``/``on_switch``/``on_exit``), which is
  enough for a happens-before race detector to maintain per-process
  vector clocks.  Every call site is guarded by an ``is not None``
  test, so the disabled cost is one attribute load.
- ``SimKernel(seed=...)`` — deterministically permutes the pop order of
  same-instant events (schedule exploration).  With ``seed=None`` (the
  default) the event order is exactly the historical ``(time, seq)``
  order, bit for bit.

Two hot-path optimisations ride below the hooks, both invisible to the
event order: same-instant events with equal heap keys are drained in a
batch per loop iteration, and the internal process wake-up timers (the
bulk of all events) are pooled on a free-list — wake timers never
escape the kernel, so recycling them is safe.  The pool stands down
whenever a tracer is attached, keeping every traced timer a fresh
object for the tracer to annotate.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable


class SimShutdown(BaseException):
    """Raised inside a simulated process when the kernel shuts down.

    Derives from ``BaseException`` so that ordinary ``except Exception``
    blocks in user code do not swallow it.
    """


class SimInterrupt(Exception):
    """Raised inside a simulated process interrupted by another process
    (failure injection, cancellation)."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimDeadlockError(RuntimeError):
    """All processes are blocked and no event can ever wake them."""


class SimProcessError(RuntimeError):
    """A non-daemon simulated process died with an exception."""

    def __init__(self, process: "SimProcess", exc: BaseException):
        super().__init__(f"process {process.name!r} failed: {exc!r}")
        self.process = process
        self.exc = exc


def _mix(seed: int, seq: int) -> int:
    """Deterministic 32-bit scramble of ``seq`` under ``seed``.

    Used to permute the pop order of same-instant events during seeded
    schedule exploration; plain integer arithmetic, so the permutation
    is identical on every run and every platform.
    """
    x = (seq * 0x9E3779B9 + (seed + 1) * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class Timer:
    """Handle for a scheduled event; supports :meth:`cancel`.

    ``shuffle`` is 0 in normal runs; under a seeded kernel it carries
    the schedule-exploration permutation key.  ``trace_clock`` is only
    assigned when a tracer is installed (it carries the scheduler's
    vector clock to the instant the event fires).  ``_pooled`` marks
    kernel-internal wake timers whose handle never escapes; the run
    loop recycles those through a free-list.
    """

    __slots__ = ("time", "seq", "shuffle", "_fn", "_args", "cancelled",
                 "trace_clock", "_key", "_pooled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 shuffle: int = 0):
        self.time = time
        self.seq = seq
        self.shuffle = shuffle
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.trace_clock = None
        self._pooled = False
        # the heap stores (key, timer) pairs so entry comparisons are
        # C-level tuple comparisons — ``seq`` is unique, so the key
        # alone always decides and the Timer itself is never compared
        self._key = (time, shuffle, seq)

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Timer") -> bool:  # pragma: no cover
        # kept for direct Timer comparisons; the kernel heap compares
        # the precomputed keys instead
        return self._key < other._key


#: the tracer hook surface fanned out by :class:`_TracerFan`
_TRACER_HOOKS = ("on_schedule", "on_fire", "on_switch", "on_exit",
                 "on_join", "hb_release", "hb_acquire")


class _TracerFan:
    """Fans kernel tracer hooks out to several attached tracers.

    Created by :meth:`SimKernel.attach_tracer` when a second tracer is
    attached (e.g. the sanitizer's race detector plus an observability
    recorder).  Hooks dispatch in attach order — deterministic — and a
    member may implement any subset of the hook surface.  The per-hook
    bound-method lists are precomputed when the member set changes, so
    fan-out adds no ``getattr`` to the hot path.
    """

    __slots__ = ("members",) + tuple(f"_{h}" for h in _TRACER_HOOKS)

    def __init__(self, members: list):
        self.members = list(members)
        self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the per-hook bound-method lists from ``members``."""
        for hook in _TRACER_HOOKS:
            fns = [fn for fn in (getattr(m, hook, None) for m in self.members)
                   if fn is not None]
            setattr(self, f"_{hook}", fns)

    def on_schedule(self, timer: "Timer") -> None:
        for fn in self._on_schedule:
            fn(timer)

    def on_fire(self, timer: "Timer") -> None:
        for fn in self._on_fire:
            fn(timer)

    def on_switch(self, proc: "SimProcess") -> None:
        for fn in self._on_switch:
            fn(proc)

    def on_exit(self, proc: "SimProcess") -> None:
        for fn in self._on_exit:
            fn(proc)

    def on_join(self, proc: "SimProcess", target: "SimProcess") -> None:
        for fn in self._on_join:
            fn(proc, target)

    # happens-before edges reported by the sync primitives
    def hb_release(self, obj: Any) -> None:
        for fn in self._hb_release:
            fn(obj)

    def hb_acquire(self, obj: Any) -> None:
        for fn in self._hb_acquire:
            fn(obj)


class SimProcess:
    """A simulated process, run cooperatively by the kernel.

    Created via :meth:`SimKernel.spawn`.  The target function receives
    the process object as its first argument, giving access to
    :meth:`sleep`, :meth:`suspend` and the kernel.  The execution
    context behind it (OS thread or generator trampoline)
    belongs to the kernel's switch backend.
    """

    # slots keep the per-event attribute traffic on fast descriptors;
    # ``__dict__`` stays available for layers that tack extra state onto
    # a process (corba_principal, security_policy, ...), and the
    # backend-owned execution handles (_thread/_go/_gen) are
    # declared here so every backend can attach its own
    __slots__ = ("kernel", "name", "daemon", "result", "exc", "_fn",
                 "_args", "_state", "_wake_value", "_pending_exc",
                 "_wake_token", "_joiners", "_waiting_on",
                 "_pending_join", "_thread", "_go", "_gen",
                 "__dict__", "__weakref__")

    _STATE_NEW = "new"
    _STATE_READY = "ready"
    _STATE_RUNNING = "running"
    _STATE_BLOCKED = "blocked"
    _STATE_DONE = "done"
    _STATE_FAILED = "failed"

    def __init__(self, kernel: "SimKernel", fn: Callable, args: tuple,
                 name: str, daemon: bool):
        self.kernel = kernel
        self.name = name
        self.daemon = daemon
        self.result: Any = None
        self.exc: BaseException | None = None
        self._fn = fn
        self._args = args
        self._state = self._STATE_NEW
        self._wake_value: Any = None
        self._pending_exc: BaseException | None = None
        self._wake_token = 0  # invalidates stale scheduled wake-ups
        self._joiners: list[SimProcess] = []
        #: what this process is blocked on (a sync primitive, a
        #: SimProcess being joined, or a waker hint from ``suspend``);
        #: drives the deadlock wait-for graph
        self._waiting_on: Any = None
        #: target of an in-flight coroutine-mode join (trampoline
        #: backend); the dispatch path emits ``on_join`` from it
        self._pending_join: SimProcess | None = None
        kernel._backend.create(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the process has neither returned nor failed."""
        return self._state not in (self._STATE_DONE, self._STATE_FAILED)

    @property
    def state(self) -> str:
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name} {self._state} t={self.kernel.now:.6f}>"

    # ------------------------------------------------------------------
    # primitives usable from inside the process
    # ------------------------------------------------------------------
    def sleep(self, duration: float) -> None:
        """Advance this process's virtual time by ``duration`` seconds.

        This is the hottest leaf in the simulator (every cooperative
        switch goes through it), so the wake-timer scheduling is
        inlined here — mirror of :meth:`SimKernel._schedule_wake`; keep
        the two in step.
        """
        if duration < 0:
            raise ValueError(f"negative sleep duration {duration}")
        kernel = self.kernel
        if kernel._current is not self:
            kernel._check_current(self)  # raises with the full message
        self._wake_token = token = self._wake_token + 1
        kernel._seq = seq = kernel._seq + 1
        shuffle = 0 if kernel.seed is None else _mix(kernel.seed, seq)
        pool = kernel._timer_pool
        if pool and kernel._tracer is None:
            timer = pool.pop()
            timer.time = time = kernel.now + duration
            timer.seq = seq
            timer.shuffle = shuffle
            timer._args = (self, token, None, None)
            timer.cancelled = False
            timer.trace_clock = None
            timer._key = (time, shuffle, seq)
        else:
            timer = Timer(kernel.now + duration, seq, kernel._wake,
                          (self, token, None, None), shuffle)
            timer._pooled = kernel._tracer is None
            if kernel._tracer is not None:
                kernel._tracer.on_schedule(timer)
        heapq.heappush(kernel._heap, (timer._key, timer))
        return kernel._leaf(self)

    def suspend(self, waiting_on: Any = None) -> Any:
        """Block until another actor calls :meth:`SimKernel.wake` on us.

        Returns the value passed to ``wake``.  ``waiting_on`` is an
        optional hint naming the actor or condition expected to wake us
        — it shows up as the edge label in the deadlock wait-for graph
        (bare calls are labelled with the ``"suspend"`` sentinel).
        """
        kernel = self.kernel
        if kernel._current is not self:
            kernel._check_current(self)
        self._wake_token += 1
        if self._waiting_on is None:
            self._waiting_on = "suspend" if waiting_on is None else waiting_on
        return kernel._leaf(self)

    def yield_(self) -> None:
        """Let every other ready process at the current instant run."""
        self.kernel._check_current(self)
        return self.sleep(0.0)

    def join(self, target: "SimProcess") -> Any:
        """Block until ``target`` finishes; returns its result."""
        kernel = self.kernel
        kernel._check_current(self)
        if kernel._backend.inline_join:
            return kernel._backend.join_leaf(self, target)
        if target.alive:
            target._joiners.append(self)
            self._waiting_on = target
            try:
                self.suspend()
            finally:
                self._waiting_on = None
        tracer = kernel._tracer
        if tracer is not None:
            tracer.on_join(self, target)
        if target.exc is not None:
            raise SimProcessError(target, target.exc)
        return target.result

    # ------------------------------------------------------------------
    # control transfer internals
    # ------------------------------------------------------------------
    def _arm(self) -> int:
        """Invalidate stale wake-ups and return a fresh token."""
        self._wake_token += 1
        return self._wake_token

    def _yield(self) -> Any:
        """Give the run token back to the kernel from an arbitrary call
        frame (the sync primitives block through here)."""
        return self.kernel._backend.block(self)

    def _block_leaf(self) -> Any:
        """Give the run token back from a kernel leaf primitive."""
        return self.kernel._backend.block_leaf(self)

    def interrupt(self, cause: Any = None) -> None:
        """Inject a :class:`SimInterrupt` into this process.

        May be called from another simulated process or from kernel
        callbacks.  Takes effect at the interrupted process's current
        blocking point (its pending sleep/suspend is abandoned).
        """
        if not self.alive:
            return
        exc = cause if isinstance(cause, BaseException) else SimInterrupt(cause)
        token = self._arm()  # invalidate whatever wake it was waiting for
        self.kernel._schedule_wake(0.0, self, token, None, exc)


class SimKernel:
    """Event loop + virtual clock for a deterministic simulation.

    ``backend`` selects the switch backend (``"thread"`` — the default,
    ``"trampoline"``, or a
    :class:`~repro.sim.backends.SwitchBackend` instance); unknown names
    are rejected with the valid set.  When no backend is passed the
    ``REPRO_SIM_BACKEND`` environment variable is consulted.

    Use as a context manager in tests so that processes still blocked at
    the end of a run are cleanly shut down::

        with SimKernel() as k:
            k.spawn(lambda p: p.sleep(1.0), name="idler")
            k.run()
    """

    def __init__(self, seed: int | None = None,
                 backend: Any = None) -> None:
        from repro.sim.backends import resolve_backend  # lazy: avoids cycle

        self.now: float = 0.0
        #: event heap of ``(key, Timer)`` pairs — entry comparisons stay
        #: C-level tuple comparisons (``seq`` makes every key unique)
        self._heap: list[tuple[tuple[float, int, int], Timer]] = []
        self._seq = 0
        self._backend = resolve_backend(backend)
        self._backend.attach(self)
        # bound once: the per-switch hot path skips two attribute hops
        self._switch = self._backend.run_until_yield
        self._leaf = self._backend.block_leaf
        self._processes: list[SimProcess] = []
        self._current: SimProcess | None = None
        self._running = False
        self._shutdown = False
        #: schedule-exploration seed; None keeps the canonical order
        self.seed = seed
        #: sanitizer/observability hook (see attach_tracer); internal
        #: code reads the attribute directly to stay off the property
        self._tracer: Any = None
        #: free-list of recycled internal wake timers (kernel-private
        #: handles only; stands down while a tracer is attached)
        self._timer_pool: list[Timer] = []
        #: events popped and fired by :meth:`run` (cancelled ones excluded)
        self.events_processed = 0
        #: cancelled entries discarded by :meth:`run` without firing
        #: (lazy timer cancellation leaves them in the heap until popped)
        self.events_skipped = 0

    @property
    def backend(self) -> Any:
        """The attached :class:`~repro.sim.backends.SwitchBackend`."""
        return self._backend

    # ------------------------------------------------------------------
    # spawning and scheduling
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable, *args: Any, name: str | None = None,
              daemon: bool = False, delay: float = 0.0) -> SimProcess:
        """Create a simulated process that starts at ``now + delay``.

        ``fn`` is called as ``fn(process, *args)``.  If a non-daemon
        process raises, :meth:`run` re-raises it as
        :class:`SimProcessError`; daemon process failures are recorded on
        ``process.exc`` but do not abort the simulation.
        """
        if name is None:
            name = f"proc-{len(self._processes)}"
        proc = SimProcess(self, fn, args, name, daemon)
        self._processes.append(proc)
        proc._state = SimProcess._STATE_READY
        token = proc._arm()
        self._schedule_wake(delay, proc, token)
        return proc

    # ------------------------------------------------------------------
    # tracer attachment
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Any:
        """The attached scheduling tracer (or fan of tracers), if any.

        With one tracer attached this is that object (the historical
        contract); with several it is a :class:`_TracerFan` dispatching
        in attach order.
        """
        return self._tracer

    def attach_tracer(self, tracer: Any) -> None:
        """Install a scheduling tracer, composing with any already there.

        With one tracer attached, :attr:`tracer` is that object (the
        historical contract); with several it becomes a :class:`_TracerFan`
        dispatching in attach order.  Pairs with :meth:`detach_tracer`.
        """
        current = self._tracer
        if current is None:
            self._tracer = tracer
        elif isinstance(current, _TracerFan):
            current.members.append(tracer)
            current._rebuild()
        else:
            self._tracer = _TracerFan([current, tracer])
        # traced timers must be fresh objects (tracers annotate them),
        # so drop any recycled wake timers from the untraced era
        self._timer_pool.clear()

    def detach_tracer(self, tracer: Any) -> None:
        """Remove a tracer attached with :meth:`attach_tracer`.

        Idempotent: detaching a tracer that is not attached is a no-op,
        so uninstall paths need no bookkeeping of their own.
        """
        current = self._tracer
        if current is tracer:
            self._tracer = None
        elif isinstance(current, _TracerFan):
            if tracer in current.members:
                current.members.remove(tracer)
            if len(current.members) == 1:
                self._tracer = current.members[0]
            else:
                current._rebuild()

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` in kernel context after ``delay`` seconds.

        The callback must not block; it may spawn processes, wake them,
        or schedule further callbacks.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._schedule(delay, fn, *args)

    def _schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        self._seq += 1
        shuffle = 0 if self.seed is None else _mix(self.seed, self._seq)
        timer = Timer(self.now + delay, self._seq, fn, args, shuffle)
        if self._tracer is not None:
            self._tracer.on_schedule(timer)
        heapq.heappush(self._heap, (timer._key, timer))
        return timer

    def _schedule_wake(self, delay: float, proc: SimProcess, token: int,
                       value: Any = None,
                       exc: BaseException | None = None) -> Timer:
        """Schedule a process wake-up, recycling pooled timers.

        Wake timers are kernel-internal — no handle ever escapes, so no
        one can cancel or retain one — which makes the free-list safe.
        With a tracer attached this falls back to fresh timers so every
        traced event is a distinct object.
        """
        self._seq += 1
        seq = self._seq
        shuffle = 0 if self.seed is None else _mix(self.seed, seq)
        pool = self._timer_pool
        if pool and self._tracer is None:
            timer = pool.pop()
            timer.time = time = self.now + delay
            timer.seq = seq
            timer.shuffle = shuffle
            timer._args = (proc, token, value, exc)
            timer.cancelled = False
            timer.trace_clock = None
            timer._key = (time, shuffle, seq)
        else:
            timer = Timer(self.now + delay, seq, self._wake,
                          (proc, token, value, exc), shuffle)
            timer._pooled = self._tracer is None
            if self._tracer is not None:
                self._tracer.on_schedule(timer)
        heapq.heappush(self._heap, (timer._key, timer))
        return timer

    # ------------------------------------------------------------------
    # waking processes
    # ------------------------------------------------------------------
    def wake(self, proc: SimProcess, value: Any = None) -> None:
        """Schedule ``proc`` (blocked in :meth:`SimProcess.suspend`) to
        resume at the current instant with ``value``."""
        self._schedule_wake(0.0, proc, proc._wake_token, value)

    def _wake(self, proc: SimProcess, token: int, value: Any = None,
              exc: BaseException | None = None) -> None:
        if token != proc._wake_token or proc._state in ("done", "failed"):
            return  # stale wake-up (process was interrupted or finished)
        if exc is not None:
            proc._pending_exc = exc
        proc._wake_value = value
        if self._tracer is not None:
            self._tracer.on_switch(proc)
        prev = self._current
        self._current = proc
        self._switch(proc)
        self._current = prev
        if proc._state == SimProcess._STATE_FAILED and not proc.daemon \
                and not self._shutdown:
            raise SimProcessError(proc, proc.exc)

    def _dispatch(self, proc: SimProcess) -> None:
        """Hand the run token to ``proc`` and wait for it to yield.

        (:meth:`_wake` inlines this sequence on the hot path; keep the
        two in step.)
        """
        if self._tracer is not None:
            self._tracer.on_switch(proc)
        prev = self._current
        self._current = proc
        self._switch(proc)
        self._current = prev
        if proc._state == SimProcess._STATE_FAILED and not proc.daemon \
                and not self._shutdown:
            raise SimProcessError(proc, proc.exc)

    def _on_process_exit(self, proc: SimProcess) -> None:
        if self._tracer is not None:
            self._tracer.on_exit(proc)
        for joiner in proc._joiners:
            if joiner.alive:
                token = joiner._wake_token
                if joiner._pending_join is proc:
                    # coroutine-mode join: the wake itself must carry
                    # the join outcome (the trampoline cannot re-enter
                    # the joiner's frame to compute it after the fact)
                    if proc.exc is not None:
                        self._schedule_wake(
                            0.0, joiner, token, None,
                            SimProcessError(proc, proc.exc))
                    else:
                        self._schedule_wake(0.0, joiner, token, proc.result)
                else:
                    self._schedule_wake(0.0, joiner, token)
        proc._joiners.clear()

    def _check_current(self, proc: SimProcess) -> None:
        if self._current is not proc:
            raise RuntimeError(
                f"primitive called from {proc.name!r} which does not hold "
                f"the run token (current={getattr(self._current, 'name', None)!r})")

    @property
    def current(self) -> SimProcess | None:
        """The process currently holding the run token, if any."""
        return self._current

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the final virtual time.  Processes still blocked when the
        heap drains simply remain blocked (use :meth:`shutdown`, or the
        context-manager form, to terminate them).

        Each loop iteration drains the *batch* of same-instant events
        with equal ``(time, shuffle)`` heap keys; events a fired
        callback schedules at the same instant sort after the batch (a
        larger ``seq``) and are picked up by the next iteration, so the
        fired order is exactly the historical one-pop-per-iteration
        order, including cancellations landing mid-batch.
        """
        if self._running:
            raise RuntimeError("kernel is already running")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        pool = self._timer_pool
        wake = self._wake
        switch = self._switch
        failed = SimProcess._STATE_FAILED
        try:
            while heap:
                key, timer = heap[0]
                if timer.cancelled:
                    heappop(heap)
                    self.events_skipped += 1
                    if timer._pooled:
                        pool.append(timer)
                    continue
                time = key[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heappop(heap)
                self.now = time
                shuffle = key[1]
                while True:
                    self.events_processed += 1
                    tracer = self._tracer
                    if tracer is not None:
                        tracer.on_fire(timer)
                    if timer._fn is wake:
                        # inlined process wake — mirror of _wake(); the
                        # overwhelmingly common event deserves one less
                        # Python frame per switch
                        proc, token, value, exc = timer._args
                        if token == proc._wake_token \
                                and proc._state not in ("done", "failed"):
                            if exc is not None:
                                proc._pending_exc = exc
                            proc._wake_value = value
                            if tracer is not None:
                                tracer.on_switch(proc)
                            prev = self._current
                            self._current = proc
                            switch(proc)
                            self._current = prev
                            if proc._state == failed and not proc.daemon \
                                    and not self._shutdown:
                                raise SimProcessError(proc, proc.exc)
                    else:
                        timer._fn(*timer._args)
                    if timer._pooled:
                        pool.append(timer)
                    if not heap:
                        break
                    key, timer = heap[0]
                    if key[0] != time or key[1] != shuffle \
                            or timer.cancelled:
                        break  # next instant, or outer-loop accounting
                    heappop(heap)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def run_until_complete(self, proc: SimProcess,
                           until: float | None = None) -> Any:
        """Run the simulation until ``proc`` finishes; return its result."""
        self.run(until=until)
        if proc.alive:
            from repro.sim.waitgraph import format_wait_graph
            raise SimDeadlockError(
                f"process {proc.name!r} did not complete by "
                f"t={self.now} (state={proc.state})\n"
                + format_wait_graph(self))
        if proc.exc is not None:
            raise SimProcessError(proc, proc.exc)
        return proc.result

    def blocked_processes(self) -> list[SimProcess]:
        """Processes that are alive but not scheduled to run."""
        return [p for p in self._processes
                if p.alive and p._state == SimProcess._STATE_BLOCKED]

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Terminate every live process by raising :class:`SimShutdown`
        at its current blocking point."""
        self._shutdown = True
        for proc in self._processes:
            if proc.alive and proc._state in (SimProcess._STATE_BLOCKED,
                                              SimProcess._STATE_READY):
                proc._arm()
                proc._pending_exc = SimShutdown()
                self._dispatch(proc)

    def __enter__(self) -> "SimKernel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def run_processes(fns: Iterable[Callable], until: float | None = None,
                  args: tuple = (), backend: Any = None) -> list[Any]:
    """Convenience: run ``fns`` as processes to completion, return results.

    ``backend`` is forwarded to :class:`SimKernel` (None keeps the
    default selection, including ``REPRO_SIM_BACKEND``).
    """
    from repro.sim.waitgraph import format_wait_graph
    with SimKernel(backend=backend) as kernel:
        procs = [kernel.spawn(fn, *args, name=getattr(fn, "__name__", None))
                 for fn in fns]
        kernel.run(until=until)
        for p in procs:
            if p.alive:
                raise SimDeadlockError(
                    f"process {p.name!r} never finished\n"
                    + format_wait_graph(kernel))
            if p.exc is not None:
                raise SimProcessError(p, p.exc)
        return [p.result for p in procs]
