"""Deterministic discrete-event simulation kernel.

This package provides the execution substrate for the whole Padico
reproduction: the kernel hands out a single "run token" so exactly one
simulated process executes at any instant and every run is fully
deterministic — a total order over ``(time, shuffle, seq)`` event keys.

The virtual clock (:attr:`SimKernel.now`, seconds as ``float``) stands in
for the wall clock of the paper's testbed; all latencies and bandwidths
reported by the benchmarks are read off this clock.

Public API
----------
- :class:`SimKernel` — event loop, virtual clock, process management.
- :class:`SimProcess` — a simulated process, run by a switch backend.
- :class:`Timer` — cancellable scheduled callback handle.
- :func:`run_processes` — run a batch of process functions to completion.
- Exceptions: :class:`SimShutdown`, :class:`SimInterrupt`,
  :class:`SimDeadlockError`, :class:`SimProcessError`.
- Switch backends (:mod:`repro.sim.backends`): :class:`SwitchBackend`
  protocol, :class:`ThreadBackend`, :class:`TrampolineBackend`, plus
  :func:`available_backends`.
- Synchronisation primitives in :mod:`repro.sim.sync`: :class:`Mailbox`,
  :class:`SimEvent`, :class:`SimLock`, :class:`SimSemaphore`,
  :class:`SimCondition`, :class:`SimBarrier`, :class:`WaitQueue`.

Backend selection contract
--------------------------
``SimKernel(backend=...)`` accepts a backend name (``"thread"`` — the
default, or ``"trampoline"``), a :class:`SwitchBackend` instance, or
None.  With None, the ``REPRO_SIM_BACKEND`` environment variable is
consulted before falling back to the default.  Unknown names raise
``ValueError`` listing the valid set.  Every backend preserves the
same event order bit for bit — see :mod:`repro.sim.backends` for the
determinism contract and ``docs/KERNEL.md`` for the architecture.
"""

from repro.sim.kernel import (
    SimDeadlockError,
    SimInterrupt,
    SimKernel,
    SimProcess,
    SimProcessError,
    SimShutdown,
    Timer,
    run_processes,
)
from repro.sim.backends import (
    SwitchBackend,
    ThreadBackend,
    TrampolineBackend,
    available_backends,
)
from repro.sim.sync import (
    Mailbox,
    SimTimeout,
    MatchQueue,
    SimBarrier,
    SimCondition,
    SimEvent,
    SimLock,
    SimSemaphore,
    WaitQueue,
)
from repro.sim.waitgraph import format_wait_graph, wait_edges

__all__ = [
    "SimKernel",
    "SimProcess",
    "Timer",
    "run_processes",
    "SimShutdown",
    "SimInterrupt",
    "SimDeadlockError",
    "SimProcessError",
    "SwitchBackend",
    "ThreadBackend",
    "TrampolineBackend",
    "available_backends",
    "Mailbox",
    "MatchQueue",
    "SimTimeout",
    "SimEvent",
    "SimLock",
    "SimSemaphore",
    "SimCondition",
    "SimBarrier",
    "WaitQueue",
    "format_wait_graph",
    "wait_edges",
]
