"""Switch-backend contract tests: selection, parity, and the redesigned
``repro.sim`` attach surface.

The parity tests run the same coroutine workload on the thread backend
and on the trampoline and require identical results, event counts, and
final clocks — the backends may only change *how* a switch happens,
never the event order.  (The autouse ``sim_backend`` matrix from
``conftest.py`` additionally runs this whole file under the thread
backend; tests that construct kernels with an explicit
``backend=`` are deliberately unaffected by it.)
"""

import pytest

from repro.sim import (
    SimKernel,
    SimProcessError,
    ThreadBackend,
    available_backends,
    format_wait_graph,
)
from repro.sim.backends import BACKEND_ENV_VAR
from repro.sim.sync import Mailbox

#: backends that can run *coroutine* (generator-function) processes
COROUTINE_BACKENDS = list(available_backends())


# ----------------------------------------------------------------------
# selection contract
# ----------------------------------------------------------------------
def test_unknown_backend_name_is_rejected_loudly():
    with pytest.raises(ValueError, match="unknown sim backend 'fibers'"):
        SimKernel(backend="fibers")
    # the error names the valid set so the fix is in the message
    with pytest.raises(ValueError, match="'thread'.*'trampoline'"):
        SimKernel(backend="fibers")


def test_backend_of_wrong_type_is_rejected():
    with pytest.raises(TypeError, match="SwitchBackend"):
        SimKernel(backend=42)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "trampoline")
    assert SimKernel().backend.name == "trampoline"
    # an explicit argument wins over the environment
    assert SimKernel(backend="thread").backend.name == "thread"


def test_backend_instance_passes_through_and_binds_once():
    backend = ThreadBackend()
    kernel = SimKernel(backend=backend)
    assert kernel.backend is backend
    with pytest.raises(RuntimeError, match="already attached"):
        SimKernel(backend=backend)
    kernel.shutdown()


# ----------------------------------------------------------------------
# backend-portable coroutine workload: byte-identical across backends
# ----------------------------------------------------------------------
def _coroutine_workload(kernel):
    """Sleeps, wakes with values, joins, and an interrupt — every leaf
    primitive a coroutine process can exercise.  Returns a trace of
    ``(time, marker)`` pairs plus per-process results."""
    trace = []

    def worker(p, ident):
        for i in range(3):
            yield p.sleep(0.25 + ident * 0.01)
            trace.append((p.kernel.now, f"w{ident}.{i}"))
        return ident * 10

    def waiter(p):
        value = yield p.suspend(waiting_on="poker")
        trace.append((p.kernel.now, f"woken:{value}"))
        return value

    def victim(p):
        try:
            yield p.sleep(100.0)
        except Exception as exc:  # SimInterrupt
            trace.append((p.kernel.now, f"interrupted:{exc.cause}"))
            return "survived"

    def boss(p, workers, sleeper, prey):
        yield p.sleep(0.1)
        p.kernel.wake(sleeper, "ping")
        prey.interrupt("storm")
        total = 0
        for w in workers:
            total += yield p.join(w)
        trace.append((p.kernel.now, f"joined:{total}"))
        return total

    workers = [kernel.spawn(worker, i, name=f"w{i}") for i in range(3)]
    sleeper = kernel.spawn(waiter, name="waiter")
    prey = kernel.spawn(victim, name="victim")
    chief = kernel.spawn(boss, workers, sleeper, prey, name="boss")
    kernel.run()
    return {
        "trace": tuple(trace),
        "results": tuple(p.result for p in workers + [sleeper, prey, chief]),
        "events": kernel.events_processed,
        "skipped": kernel.events_skipped,
        "now": kernel.now,
    }


def test_coroutine_workload_identical_on_every_backend():
    reference = _coroutine_workload(SimKernel(backend="thread"))
    assert reference["results"] == (0, 10, 20, "ping", "survived", 30)
    for name in COROUTINE_BACKENDS:
        if name == "thread":
            continue
        assert _coroutine_workload(SimKernel(backend=name)) == reference, name


def test_seeded_exploration_identical_on_every_backend():
    def fingerprint(backend, seed):
        order = []

        def racer(p, ident):
            yield p.sleep(1.0)  # all three wake at the same instant
            order.append(ident)

        kernel = SimKernel(seed=seed, backend=backend)
        for i in range(3):
            kernel.spawn(racer, i, name=f"r{i}")
        kernel.run()
        return tuple(order)

    for seed in range(5):
        reference = fingerprint("thread", seed)
        for name in COROUTINE_BACKENDS:
            assert fingerprint(name, seed) == reference, (name, seed)
    # sanity: the seeds really explore different same-instant orders
    assert len({fingerprint("thread", s) for s in range(5)}) > 1


def test_wake_value_roundtrip_through_yield():
    out = []

    def sleeper(p):
        out.append((yield p.suspend()))
        out.append((yield p.suspend()))

    def poker(p, target):
        yield p.sleep(0.1)
        p.kernel.wake(target, "first")
        yield p.sleep(0.1)
        p.kernel.wake(target, {"second": 2})

    for name in COROUTINE_BACKENDS:
        out.clear()
        with SimKernel(backend=name) as kernel:
            t = kernel.spawn(sleeper, name="sleeper")
            kernel.spawn(poker, t, name="poker")
            kernel.run()
        assert out == ["first", {"second": 2}], name


# ----------------------------------------------------------------------
# trampoline-specific semantics
# ----------------------------------------------------------------------
def test_trampoline_join_on_dead_target_is_immediate():
    def quick(p):
        return "done"
        yield  # pragma: no cover - makes this a generator function

    def late_joiner(p, target):
        yield p.sleep(1.0)  # target long dead by now
        t_before = p.kernel.now
        value = yield p.join(target)
        assert p.kernel.now == t_before  # no extra event, no time passed
        return value

    kernel = SimKernel(backend="trampoline")
    target = kernel.spawn(quick, name="quick")
    joiner = kernel.spawn(late_joiner, target, name="late")
    kernel.run()
    assert joiner.result == "done"


def test_trampoline_join_propagates_failure():
    def bomb(p):
        yield p.sleep(0.1)
        raise ValueError("boom")

    def joiner(p, target):
        with pytest.raises(SimProcessError, match="boom"):
            yield p.join(target)
        return "caught"

    kernel = SimKernel(backend="trampoline")
    target = kernel.spawn(bomb, name="bomb", daemon=True)
    j = kernel.spawn(joiner, target, name="joiner")
    kernel.run()
    assert j.result == "caught"


def test_trampoline_rejects_nested_frame_blocking():
    def reader(p, box):
        yield box.get(p)  # blocks inside Mailbox, not at a kernel leaf

    kernel = SimKernel(backend="trampoline")
    box = Mailbox(kernel)
    kernel.spawn(reader, box, name="reader")
    with pytest.raises(SimProcessError, match="nested call frame"):
        kernel.run()


def test_trampoline_rejects_blocking_plain_function():
    kernel = SimKernel(backend="trampoline")
    kernel.spawn(lambda p: p.sleep(1.0), name="plain")
    with pytest.raises(SimProcessError, match="plain function"):
        kernel.run()


def test_trampoline_runs_nonblocking_plain_functions():
    kernel = SimKernel(backend="trampoline")
    proc = kernel.spawn(lambda p: 7 * 6, name="pure")
    kernel.run()
    assert proc.result == 42 and proc.state == "done"


def test_trampoline_detects_unyielded_primitive():
    def sloppy(p):
        p.sleep(1.0)  # armed to block but the result is never yielded
        return "unreachable"
        yield  # pragma: no cover - makes this a generator function

    kernel = SimKernel(backend="trampoline")
    with pytest.raises(SimProcessError, match="without yielding"):
        kernel.run_until_complete(kernel.spawn(sloppy, name="sloppy"))


def test_trampoline_shutdown_terminates_blocked_coroutines():
    def idler(p):
        yield p.sleep(1000.0)

    with SimKernel(backend="trampoline") as kernel:
        proc = kernel.spawn(idler, name="idler")
        kernel.run(until=1.0)
        assert proc.state == "blocked"
    assert proc.state == "done"  # SimShutdown delivered at the yield


# ----------------------------------------------------------------------
# waitgraph: suspend() hints
# ----------------------------------------------------------------------
def test_bare_suspend_labelled_in_wait_graph():
    def stuck(p):
        p.suspend()

    kernel = SimKernel(backend="thread")
    kernel.spawn(stuck, name="stuck")
    kernel.run()
    graph = format_wait_graph(kernel)
    assert "stuck waits on bare suspend() awaiting an external wake()" \
        in graph
    kernel.shutdown()


def test_suspend_hint_labelled_in_wait_graph():
    def stuck(p):
        p.suspend(waiting_on="io-completion from nic0")

    kernel = SimKernel(backend="thread")
    kernel.spawn(stuck, name="stuck")
    kernel.run()
    assert "suspend() awaiting io-completion from nic0" \
        in format_wait_graph(kernel)
    kernel.shutdown()


# ----------------------------------------------------------------------
# redesigned attach surface
# ----------------------------------------------------------------------
class _CountingTracer:
    """Full hook surface (a single attached tracer must implement it
    all; only fan *members* may implement subsets)."""

    def __init__(self):
        self.fires = 0
        self.switches = 0

    def on_fire(self, timer):
        self.fires += 1

    def on_switch(self, proc):
        self.switches += 1

    def on_schedule(self, timer):
        pass

    def on_exit(self, proc):
        pass

    def on_join(self, proc, target):
        pass

    def hb_release(self, obj):
        pass

    def hb_acquire(self, obj):
        pass


def test_tracer_fan_rebuilds_on_attach_and_detach():
    kernel = SimKernel(backend="thread")
    first, second = _CountingTracer(), _CountingTracer()
    kernel.attach_tracer(first)
    kernel.attach_tracer(second)
    kernel.spawn(lambda p: p.sleep(0.1), name="t1")
    kernel.run()
    assert first.fires == second.fires > 0
    kernel.detach_tracer(first)
    baseline = first.fires
    kernel.spawn(lambda p: p.sleep(0.1), name="t2")
    kernel.run()
    assert first.fires == baseline  # detached member no longer called
    assert second.fires > baseline
    assert kernel.tracer is second  # fan unwraps to the last member
    kernel.shutdown()


# ----------------------------------------------------------------------
# run-loop optimisations stay semantics-identical
# ----------------------------------------------------------------------
def test_wake_timers_are_pooled_and_reused():
    def ticker(p):
        for _ in range(50):
            p.sleep(0.01)

    kernel = SimKernel(backend="thread")
    kernel.spawn(ticker, name="ticker")
    kernel.run()
    assert kernel._timer_pool, "wake timers should return to the free-list"
    # and the recycling is invisible: a fresh identical run agrees
    again = SimKernel(backend="thread")
    again.spawn(ticker, name="ticker")
    again.run()
    assert (again.events_processed, again.now) \
        == (kernel.events_processed, kernel.now)


def test_pooling_stands_down_while_traced():
    kernel = SimKernel(backend="thread")
    kernel.attach_tracer(_CountingTracer())
    kernel.spawn(lambda p: [p.sleep(0.01) for _ in range(10)], name="t")
    kernel.run()
    assert kernel._timer_pool == []  # every traced timer stays unique


def test_batched_drain_honours_mid_batch_cancellation():
    fired = []
    timers = {}
    kernel = SimKernel(backend="thread")
    kernel.schedule(1.0, lambda: (fired.append("a"), timers["c"].cancel()))
    kernel.schedule(1.0, fired.append, "b")
    timers["c"] = kernel.schedule(1.0, fired.append, "c")
    kernel.run()
    assert fired == ["a", "b"]
    assert kernel.events_skipped == 1
