"""Pluggable switch backends: how a SimProcess yields and resumes.

The kernel's determinism comes from its event loop — a total order over
``(time, shuffle, seq)`` heap keys — not from *how* control moves
between the kernel and a process.  This module isolates that mechanism
behind the :class:`SwitchBackend` protocol so the expensive part of a
context switch can be swapped without touching the event order, the
tracer hook points, or any code above the kernel:

* :class:`ThreadBackend` (default, name ``"thread"``) — the historical
  implementation: every process is an OS thread parked on its own
  semaphore, the kernel holds a control semaphore, and a switch is one
  release/acquire pair on each side.  Supports blocking anywhere,
  including deep inside the sync primitives, at the cost of two OS
  semaphore handshakes (and a GIL handoff) per switch.
* :class:`TrampolineBackend` (name ``"trampoline"``) — pure-Python
  fallback with no dependencies: processes written as *generator
  functions* are driven by a send/throw trampoline, and every blocking
  call is a ``yield``.  Only the kernel-level leaf primitives
  (``sleep`` / ``suspend`` / ``yield_`` / ``join``) can block, and only
  directly from the generator frame (``yield p.sleep(dt)``); the sync
  primitives in :mod:`repro.sim.sync`, which block from nested call
  frames, raise a descriptive error.

Backend-portable coroutine processes
------------------------------------
A process written as a generator runs on **both** backends with a
byte-identical event order::

    def ticker(p, n):
        for _ in range(n):
            yield p.sleep(1e-6)       # thread: blocks inside sleep();
                                      # trampoline: suspends at the yield

Under the thread backend the generator is driven by an
echo-loop (each yielded value is sent straight back in), so
``value = yield p.suspend()`` delivers the wake value identically
everywhere.

Determinism contract (what every backend must preserve)
-------------------------------------------------------
1. total event order: the backend never reorders, adds, or drops
   kernel events — all scheduling goes through the one event heap;
2. run-token exclusivity: exactly one process executes between
   ``run_until_yield(proc)`` entry and return, and the kernel never
   runs concurrently with it;
3. tracer hook points: ``on_switch`` before control transfer,
   ``on_join`` when a join completes, ``on_exit`` (via
   ``kernel._on_process_exit``) before the final switch back — in the
   same relative order on every backend.

Selection: ``SimKernel(backend="thread"|"trampoline")``, a
:class:`SwitchBackend` instance, or the ``REPRO_SIM_BACKEND``
environment variable (read when no explicit backend is passed).
"""

from __future__ import annotations

import inspect
import os
import threading
from typing import Any, Callable

from repro.sim.kernel import SimProcess, SimShutdown

#: name of the backend used when neither ``SimKernel(backend=...)`` nor
#: ``REPRO_SIM_BACKEND`` says otherwise
DEFAULT_BACKEND = "thread"

#: environment variable consulted when no explicit backend is passed
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"


class _Immediate:
    """Trampoline marker: resume the coroutine synchronously with
    ``value`` — no kernel event, no tracer hooks (mirrors a leaf
    primitive that returned without blocking on the thread backend)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Immediate {self.value!r}>"


class SwitchBackend:
    """Base class for switch backends.

    One instance serves one kernel (:meth:`attach` binds it); the
    kernel calls :meth:`create` when a process is spawned,
    :meth:`run_until_yield` to hand over the run token, and the process
    side calls :meth:`block` (nested-frame capable) or
    :meth:`block_leaf` (kernel leaf primitives only) to give it back.
    """

    name = "abstract"
    #: True when :meth:`join_leaf` replaces the generic two-phase join
    #: (the trampoline cannot re-enter the joiner's frame after a wake)
    inline_join = False

    def __init__(self) -> None:
        self._kernel: Any = None

    def attach(self, kernel: Any) -> None:
        """Bind this backend to its kernel.  One kernel per instance."""
        if self._kernel is not None and self._kernel is not kernel:
            raise RuntimeError(
                f"backend {self.name!r} is already attached to another "
                f"kernel; create one backend instance per SimKernel")
        self._kernel = kernel

    # -- kernel side ---------------------------------------------------
    def create(self, proc: SimProcess) -> None:
        """Set up the execution context for a freshly spawned process."""
        raise NotImplementedError

    def run_until_yield(self, proc: SimProcess) -> None:
        """Transfer control to ``proc`` until it blocks or exits."""
        raise NotImplementedError

    # -- process side --------------------------------------------------
    def block(self, proc: SimProcess) -> Any:
        """Suspend ``proc`` from an arbitrary call frame; return the
        wake value (or raise the delivered exception) on resume."""
        raise NotImplementedError

    def block_leaf(self, proc: SimProcess) -> Any:
        """Suspend ``proc`` from a kernel leaf primitive (sleep /
        suspend / join).  Defaults to :meth:`block`."""
        return self.block(proc)

    def join_leaf(self, proc: SimProcess, target: SimProcess) -> Any:
        """Backend-specific join (only when :attr:`inline_join`)."""
        raise NotImplementedError


def _execute(proc: SimProcess) -> None:
    """Run a process body to completion (thread backend).

    Handles the pre-start shutdown exception, drives generator bodies
    with an echo-loop (each yielded value is sent straight back, so
    ``value = yield p.suspend()`` behaves as on the trampoline), and
    reports the exit to the kernel.
    """
    try:
        if proc._pending_exc is not None:  # shut down before first run
            exc = proc._pending_exc
            proc._pending_exc = None
            raise exc
        fn = proc._fn
        if inspect.isgeneratorfunction(fn):
            gen = fn(proc, *proc._args)
            try:
                value = None
                while True:
                    value = gen.send(value)
            except StopIteration as stop:
                proc.result = stop.value
        else:
            proc.result = fn(proc, *proc._args)
        proc._state = SimProcess._STATE_DONE
    except SimShutdown:
        proc._state = SimProcess._STATE_DONE
    except BaseException as exc:  # noqa: BLE001 - report to kernel
        proc.exc = exc
        proc._state = SimProcess._STATE_FAILED
    finally:
        proc.kernel._on_process_exit(proc)


class ThreadBackend(SwitchBackend):
    """OS threads + a semaphore pair per switch (the historical core).

    Each process parks on its own ``_go`` semaphore; the backend owns
    the ``_control`` semaphore.  Resuming a process is
    ``proc._go.release(); self._control.acquire()``; yielding is the
    mirror image.  No other locking exists because the run token
    serialises every access to kernel state.
    """

    name = "thread"

    def __init__(self) -> None:
        super().__init__()
        self._control = threading.Semaphore(0)

    def create(self, proc: SimProcess) -> None:
        proc._go = threading.Semaphore(0)
        proc._thread = threading.Thread(
            target=self._run, args=(proc,), name=f"sim:{proc.name}",
            daemon=True)
        proc._thread.start()

    def _run(self, proc: SimProcess) -> None:
        proc._go.acquire()  # wait for first dispatch from the kernel
        try:
            _execute(proc)
        finally:
            self._control.release()

    def run_until_yield(self, proc: SimProcess) -> None:
        proc._go.release()
        self._control.acquire()

    def block(self, proc: SimProcess) -> Any:
        proc._state = SimProcess._STATE_BLOCKED
        self._control.release()
        proc._go.acquire()
        proc._waiting_on = None
        proc._state = SimProcess._STATE_RUNNING
        if proc._pending_exc is not None:
            exc = proc._pending_exc
            proc._pending_exc = None
            raise exc
        return proc._wake_value


class TrampolineBackend(SwitchBackend):
    """Generator trampoline: dependency-free cheap switching for
    processes written as coroutines.

    A process body must be a generator function; every potentially
    blocking call is made *in the yield expression*::

        def proc(p):
            value = yield p.suspend()
            yield p.sleep(1.0)
            result = yield p.join(other)

    Plain-function processes are supported only if they never block
    (spawn-and-return helpers); the sync primitives, which suspend from
    nested call frames, are not available on this backend.
    """

    name = "trampoline"
    inline_join = True

    def create(self, proc: SimProcess) -> None:
        fn = proc._fn
        if inspect.isgeneratorfunction(fn):
            proc._gen = fn(proc, *proc._args)  # body not started yet
        else:
            proc._gen = None

    def run_until_yield(self, proc: SimProcess) -> None:
        # fast path first: a plain wake has no pending exception, no
        # waiting-on bookkeeping, and no join in flight
        throw = proc._pending_exc
        if throw is not None:
            proc._pending_exc = None
        value = proc._wake_value
        if proc._waiting_on is not None:
            proc._waiting_on = None
        target = proc._pending_join
        if target is not None:
            proc._pending_join = None
            if throw is None:
                tracer = self._kernel._tracer
                if tracer is not None:
                    tracer.on_join(proc, target)
        proc._state = SimProcess._STATE_RUNNING
        gen = proc._gen
        try:
            if gen is None:
                if throw is not None:
                    raise throw
                proc.result = proc._fn(proc, *proc._args)
                proc._state = SimProcess._STATE_DONE
            else:
                while True:
                    if throw is not None:
                        exc, throw = throw, None
                        yielded = gen.throw(exc)
                    else:
                        yielded = gen.send(value)
                    if proc._state == SimProcess._STATE_BLOCKED:
                        return  # suspended at the yield; resume later
                    if type(yielded) is _Immediate:
                        value = yielded.value
                        continue
                    raise RuntimeError(
                        f"coroutine process {proc.name!r} yielded "
                        f"{yielded!r} without blocking on a kernel "
                        f"primitive (write blocking calls as "
                        f"'yield p.sleep(...)' etc.)")
        except StopIteration as stop:
            if proc._state == SimProcess._STATE_BLOCKED:
                proc.exc = RuntimeError(
                    f"coroutine process {proc.name!r} returned while "
                    f"armed to block — a blocking primitive was called "
                    f"without yielding its result")
                proc._state = SimProcess._STATE_FAILED
            else:
                proc.result = stop.value
                proc._state = SimProcess._STATE_DONE
        except SimShutdown:
            proc._state = SimProcess._STATE_DONE
        except BaseException as exc:  # noqa: BLE001 - report to kernel
            proc.exc = exc
            proc._state = SimProcess._STATE_FAILED
        self._kernel._on_process_exit(proc)

    def block(self, proc: SimProcess) -> Any:
        raise RuntimeError(
            f"process {proc.name!r} tried to block inside a nested call "
            f"frame (a sync primitive such as Mailbox/SimLock), which "
            f"the 'trampoline' backend cannot suspend; use the 'thread' "
            f"backend for this workload")

    def block_leaf(self, proc: SimProcess) -> Any:
        if proc._gen is None:
            raise RuntimeError(
                f"process {proc.name!r} is a plain function; the "
                f"'trampoline' backend can only suspend coroutine "
                f"processes — write the body as a generator and yield "
                f"each blocking call, or use the 'thread' backend")
        proc._state = SimProcess._STATE_BLOCKED
        return None  # the generator must yield this immediately

    def join_leaf(self, proc: SimProcess, target: SimProcess) -> Any:
        kernel = self._kernel
        if target.alive:
            proc._arm()
            target._joiners.append(proc)
            proc._waiting_on = target
            # _on_process_exit sees the pending join and delivers the
            # target's result (or SimProcessError) through the wake
            proc._pending_join = target
            proc._state = SimProcess._STATE_BLOCKED
            return None
        tracer = kernel._tracer
        if tracer is not None:
            tracer.on_join(proc, target)
        if target.exc is not None:
            from repro.sim.kernel import SimProcessError
            raise SimProcessError(target, target.exc)
        return _Immediate(target.result)


#: registry of constructible backends, keyed by their selection name
BACKENDS: dict[str, Callable[[], SwitchBackend]] = {
    ThreadBackend.name: ThreadBackend,
    TrampolineBackend.name: TrampolineBackend,
}


def available_backends() -> tuple[str, ...]:
    """Backend names constructible here, in registry order."""
    return tuple(BACKENDS)


def resolve_backend(spec: Any) -> SwitchBackend:
    """Turn a backend specification into a fresh backend instance.

    ``spec`` may be a registry name, an already-constructed
    :class:`SwitchBackend` (passed through), or None — which consults
    ``REPRO_SIM_BACKEND`` and finally falls back to ``"thread"``.
    Unknown names fail loudly with the list of valid ones.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if isinstance(spec, SwitchBackend):
        return spec
    if isinstance(spec, str):
        factory = BACKENDS.get(spec.strip().lower())
        if factory is None:
            known = ", ".join(repr(n) for n in BACKENDS)
            raise ValueError(
                f"unknown sim backend {spec!r}: valid backends are "
                f"{known} (pass SimKernel(backend=...) or set "
                f"{BACKEND_ENV_VAR})")
        return factory()
    raise TypeError(
        f"backend must be a name, a SwitchBackend instance or None, "
        f"not {type(spec).__name__}")
