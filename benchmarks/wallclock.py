"""Wall-clock throughput benchmarks (``BENCH_wallclock.json``).

Everything in ``BENCH_padico.json`` is a *virtual*-clock quantity —
bit-for-bit reproducible, but silent about how fast the simulator
itself runs.  This module measures the reproduction's three hot paths
on the **process wall clock**:

* ``wallclock.kernel`` — bare event-loop throughput (events/s): chains
  of self-rescheduling timers exercising heap push/pop and dispatch,
  run on the default switch backend;
* ``wallclock.kernel.switch`` — context-switch throughput (events/s)
  per switch backend: coroutine processes ping-ponging through
  zero-delay sleeps, the workload where the backend choice dominates.
  One categorical point per backend (``thread`` and
  ``trampoline``).  Each point is a median of three runs — the thread backend's
  OS semaphore handshake is noisy — and the meta records the speedup of
  every backend over ``thread``, which is what the CI gate
  (``--gate-backend-speedup``) checks;
* ``wallclock.flows`` — concurrent-flow churn (flows completed per
  wall-clock second) at F ∈ {10, 100, 1000} concurrent flows, the
  scenario the incremental max-min solver exists for.  Each run is
  executed under both solver modes; the solver-iteration counts (the
  ``net.maxmin.iterations`` obs counter) land in the series meta, where
  CI asserts the incremental solver does ≥ 5× less work at F = 1000;
* ``wallclock.topology.scaling`` — grid-scale event throughput
  (events/s) on :func:`repro.net.build_grid` topologies at 100 / 1 000 /
  10 000 hosts (500 hosts per site, 10 ring flows per host plus one WAN
  flow per site — 100k+ concurrent flows at the top size), solved by
  the hierarchical site-sharded tier with the vectorized fill.  At
  sizes the flat incremental solver can still stomach the identical
  workload is replayed flat: the run asserts the flow logs are
  byte-identical (exactness at scale) and the meta records the sharded
  speedup, which is what ``--topology-scaling`` publishes and CI's
  smoke slice (``make bench-topology``) keeps honest;
* ``wallclock.collectives`` — flat vs topology-aware MPI collectives
  on :func:`repro.net.build_grid` grids at 2 / 4 / 8 sites (5 hosts per
  site, 1 MiB payloads).  The one deterministic series in this
  document: durations are *virtual*-clock seconds, because the
  site-leader hierarchy is a simulated-time optimisation (WAN crossings
  saved, not simulator cycles).  Each level replays the identical
  workload under both modes, asserts the per-rank results are
  bit-identical, and records per-op speedups plus the WAN-crossing and
  WAN-byte deltas that ``--gate-wan-crossings`` checks (aware bcast
  crosses the WAN exactly sites − 1 times per call);
* ``wallclock.cdr.marshal`` / ``wallclock.cdr.unmarshal`` — CDR
  encode/decode throughput (MB/s, MB = 1e6 bytes) for bulk octet and
  double sequences plus a scalar-struct torture case;
* ``wallclock.marshal_roundtrip`` — full encode→wire→decode roundtrips
  of a bulk double sequence at 64 KiB / 1 MiB / 16 MiB, once under the
  copying discipline (``zero_copy=False`` + ``getvalue()``) and once
  over the zero-copy segment path (``zero_copy=True`` + ``getbuffer()``
  + ``CdrInputStream`` over the :class:`WireBuffer`).  The meta records
  the per-size speedup; CI's acceptance bar is ≥ 3× at 16 MiB;
* ``wallclock.gridccm.scaling`` — the paper's Figure-8 aggregated
  bandwidth experiment (two n-node components, block-redistributed
  vector, server op is an MPI barrier) measured on the wall clock:
  total payload bytes over the wall seconds the simulation takes, as n
  grows.  The virtual-clock twin lives in ``BENCH_padico.json``; this
  series tracks how the zero-copy wire path scales the *simulator*.

Numbers vary with the host machine — the document is a trajectory, not
a reproducibility artifact, which is why it carries the separate
``padico-wallclock/1`` schema tag.  Regenerate with::

    PYTHONPATH=src python -m benchmarks.run --wallclock

Wall-clock reads live in ``benchmarks/`` on purpose: ``repro-lint``
bans them (det-wallclock) inside the simulated tree.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

import numpy as np

from repro.corba.cdr import CdrInputStream, CdrOutputStream, decode_value, \
    encode_value
from repro.corba.idl.types import PrimitiveType, SequenceType, StructType
from repro.net import MYRINET_2000, Topology, build_cluster, build_grid
from repro.net.flows import FlowNetwork
from repro.obs import BenchResult, TraceRecorder
from repro.sim import SimKernel, available_backends

#: concurrent-flow levels for the churn series (the ISSUE's F axis)
FLOW_LEVELS = (10, 100, 1000)
QUICK_FLOW_LEVELS = (10, 100)

#: host pairs for the churn topology; disjoint pairs give the solver
#: independent components, the regime grids actually operate in
MAX_PAIRS = 32


# ---------------------------------------------------------------------------
# kernel event throughput
# ---------------------------------------------------------------------------

def kernel_event_rate(n_events: int, chains: int = 8) -> float:
    """Events per wall second for ``chains`` self-rescheduling timers."""
    kernel = SimKernel()
    per_chain = n_events // chains
    step = 1e-6

    def tick(remaining: int) -> None:
        if remaining > 0:
            kernel.schedule(step, tick, remaining - 1)

    for c in range(chains):
        kernel.schedule(c * step / chains, tick, per_chain - 1)
    t0 = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - t0
    return kernel.events_processed / elapsed


def bench_kernel(quick: bool) -> BenchResult:
    levels = (20_000,) if quick else (50_000, 200_000)
    points = []
    for n in levels:
        points.append((n, kernel_event_rate(n)))
    return BenchResult(
        name="wallclock.kernel", unit="events/s", points=tuple(points),
        meta={"workload": "8 self-rescheduling timer chains",
              "backend": "thread (default)", "clock": "wall"})


# ---------------------------------------------------------------------------
# per-backend context-switch throughput
# ---------------------------------------------------------------------------

#: same-instant switch storm: every event is a process switch, so the
#: backend's transfer-of-control cost dominates the measurement
SWITCH_PROCS = 8
SWITCH_REPEATS = 3


def kernel_switch_rate(backend: str, n_switches: int,
                       procs: int = SWITCH_PROCS,
                       repeats: int = SWITCH_REPEATS) -> float:
    """Median events/s of ``procs`` coroutine processes ping-ponging
    through zero-delay sleeps on ``backend``.

    The coroutine (generator) process style runs on every backend — the
    thread backend drives generators through an echo loop that mirrors
    the trampoline — so the workload is backend-portable by
    construction.  Median of ``repeats`` fresh kernels: the thread
    backend's per-switch OS semaphore handshake makes single runs noisy.
    """
    per_proc = n_switches // procs

    def worker(proc, n):
        for _ in range(n):
            yield proc.sleep(0.0)

    rates = []
    for _ in range(repeats):
        kernel = SimKernel(backend=backend)
        for i in range(procs):
            kernel.spawn(worker, per_proc, name=f"switcher-{i}")
        t0 = time.perf_counter()
        kernel.run()
        elapsed = time.perf_counter() - t0
        rates.append(kernel.events_processed / elapsed)
    rates.sort()
    return rates[len(rates) // 2]


def bench_kernel_switch(quick: bool) -> BenchResult:
    n_switches = 8_000 if quick else 40_000
    points = []
    meta: dict[str, object] = {
        "workload": f"{SWITCH_PROCS} coroutine processes x zero-delay "
                    f"sleeps, same-instant batch drain",
        "n_switches": n_switches,
        "repeats": f"median of {SWITCH_REPEATS}",
        "clock": "wall",
    }
    for name in available_backends():
        points.append((name, kernel_switch_rate(name, n_switches)))
    rates = dict(points)
    for name, rate in points:
        if name != "thread":
            meta[f"speedup_vs_thread_{name}"] = round(
                rate / rates["thread"], 2)
    meta["best_backend"] = max(rates, key=rates.get)
    return BenchResult(name="wallclock.kernel.switch", unit="events/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# concurrent-flow churn
# ---------------------------------------------------------------------------

def _run_churn(n_flows: int, total_flows: int,
               incremental: bool) -> tuple[float, FlowNetwork, SimKernel]:
    """Drive ``n_flows`` concurrent flows (refilled up to ``total_flows``
    completions) over disjoint host pairs; returns (wall s, net, kernel)."""
    pairs = min(n_flows, MAX_PAIRS)
    topo = Topology()
    build_cluster(topo, "h", 2 * pairs, san=MYRINET_2000, lan=None)
    kernel = SimKernel()
    net = FlowNetwork(kernel, topo, incremental=incremental)
    routes = [topo.route(f"h{2 * i}", f"h{2 * i + 1}", "h-san")
              for i in range(pairs)]
    launched = [0]

    def start_one(slot: int) -> None:
        launched[0] += 1
        # deterministic size spread so completions interleave instead of
        # finishing in lockstep
        size = 100_000 * (1 + (launched[0] % 7))
        net.start_flow(routes[slot % pairs], size,
                       lambda flow, s=slot: refill(s))

    def refill(slot: int) -> None:
        if launched[0] < total_flows:
            start_one(slot)

    def kick(slot: int) -> None:
        start_one(slot)

    for s in range(n_flows):
        # stagger the initial wave so adds hit a populated network
        kernel.schedule(s * 1e-5, kick, s)
    t0 = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - t0
    assert net.completed_flows == total_flows, \
        f"churn lost flows: {net.completed_flows}/{total_flows}"
    return elapsed, net, kernel


def bench_flows(quick: bool) -> BenchResult:
    levels = QUICK_FLOW_LEVELS if quick else FLOW_LEVELS
    rounds = 2 if quick else 4
    points = []
    meta: dict[str, object] = {"clock": "wall",
                               "workload": "disjoint-pair flow churn",
                               "rounds": rounds}
    recorder = TraceRecorder()
    meta["max_pairs"] = MAX_PAIRS
    for f in levels:
        total = f * rounds
        elapsed, net, kernel = _run_churn(f, total, incremental=True)
        # replay the identical (virtual-clock deterministic) workload
        # with the from-scratch solver to count the work saved
        _, net_scratch, _ = _run_churn(f, total, incremental=False)
        points.append((f, total / elapsed))
        # above MAX_PAIRS the F "concurrent" flows share min(F, MAX_PAIRS)
        # routes, so record what the level actually exercised
        meta[f"effective_pairs_F{f}"] = min(f, MAX_PAIRS)
        # the new obs counter: solver rounds per churn level, recorded
        # post-run so the traced run itself stays mode-independent
        recorder.counter(f"net.maxmin.iterations.incremental.F{f}",
                         net.solver_iterations)
        recorder.counter(f"net.maxmin.iterations.fromscratch.F{f}",
                         net_scratch.solver_iterations)
        meta[f"solver_iterations_incremental_F{f}"] = net.solver_iterations
        meta[f"solver_iterations_fromscratch_F{f}"] = \
            net_scratch.solver_iterations
        meta[f"solver_iteration_speedup_F{f}"] = round(
            net_scratch.solver_iterations / net.solver_iterations, 2)
        meta[f"events_skipped_F{f}"] = kernel.events_skipped
        meta[f"timer_reuses_F{f}"] = net.timer_reuses
    meta["counter_names"] = sorted(recorder.counters)
    return BenchResult(name="wallclock.flows", unit="flows/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# grid-scale topology churn (the hierarchical solver's reason to exist)
# ---------------------------------------------------------------------------

#: host-count axis for the scaling series
GRID_HOSTS = (100, 1_000, 10_000)
QUICK_GRID_HOSTS = (100,)
#: hosts per site: large Myrinet islands behind leaf/spine switches, so
#: the host axis scales both the site count and the per-site coupling
GRID_HOSTS_PER_SITE = 500
#: concurrent intra-site flows per host, plus one WAN flow per site for
#: the coupling tier — 10k hosts = 100k+ concurrent flows
GRID_FLOWS_PER_HOST = 10
GRID_SWITCH_FANOUT = 32
#: completions measured inside the timed churn window, per host count —
#: solver cost per completion grows with shard size, so the window
#: shrinks as the grid grows (the solver-time *ratio* is the metric and
#: every completion contributes two solves to each side of it)
GRID_CHURN_TARGETS = {100: 2_000, 1_000: 600, 10_000: 200}
QUICK_GRID_CHURN_TARGETS = {100: 500}
#: largest size replayed with the flat (non-sharded) incremental solver
#: for the speedup comparison; batched admission and refills keep the
#: flat replay tractable even at the 10k-host / 100k-flow top size
GRID_FLAT_MAX_HOSTS = 10_000
#: virtual-clock chunk the churn window advances by between completion
#: checks; chunking run(until=...) never changes the event order
GRID_CHUNK_S = 2e-3
#: flows admitted per ramp batch (one ``start_flows`` call each)
GRID_RAMP_BATCH = 2_000


def _instrument_solver(net: FlowNetwork) -> Callable[[], float]:
    """Wrap the network's solve + component-walk entry points with
    wall-clock accumulation; returns a ``read()`` closure.

    The instrumented quantity is exactly the per-event allocator work
    the solver modes differ on — the component/shard walk plus the
    progressive fill — excluding the mode-independent kernel costs
    (event dispatch, eager byte accounting, completion-timer scans)
    that both replays pay identically.  Wall-clock reads live here in
    the bench harness because the src tree bans them (det-wallclock).
    """
    acc = [0.0]
    solve, component = net._solve, net._component

    def timed_solve(*args, **kwargs):
        t0 = time.perf_counter()
        solve(*args, **kwargs)
        acc[0] += time.perf_counter() - t0

    def timed_component(*args, **kwargs):
        t0 = time.perf_counter()
        out = component(*args, **kwargs)
        acc[0] += time.perf_counter() - t0
        return out

    net._solve = timed_solve
    net._component = timed_component
    return lambda: acc[0]


def _run_grid_churn(n_hosts: int, sharded: bool, churn_target: int,
                    ) -> dict:
    """Self-refilling flow churn on a :func:`build_grid` topology.

    Each host sends ``GRID_FLOWS_PER_HOST - 1`` flows one switch-leaf
    over (host *i* → host *i + fanout*, so the traffic crosses the
    site's leaf-spine links) and one flow to the site's first host.
    The shared spine links and the hub's downlink weld every site into
    a single link-connected component — the regime where the flat
    solver's per-event component walk covers the whole site and the
    hierarchical shard tier earns its keep.  One cross-site WAN flow
    per site feeds the coupling tier.

    The ramp admits flows in :data:`GRID_RAMP_BATCH`-sized
    ``start_flows`` batches (bit-identical to sequential same-instant
    adds, one re-solve per batch) and is timed separately from the
    churn window, which advances the virtual clock in
    :data:`GRID_CHUNK_S` chunks until ``churn_target`` completions
    land.  Solver wall time (component walks + fills) is accumulated
    via :func:`_instrument_solver` and split at the window boundary.
    """
    n_sites = max(2, n_hosts // GRID_HOSTS_PER_SITE)
    per_site = max(2, n_hosts // n_sites)
    topo, sites = build_grid(sites=n_sites, hosts_per_site=per_site,
                             switch_fanout=GRID_SWITCH_FANOUT)
    kernel = SimKernel()
    net = FlowNetwork(kernel, topo, incremental=True, sharded=sharded)
    solver_wall = _instrument_solver(net)
    site_names = list(sites)
    intra: list = []
    for s in site_names:
        names = [h.name for h in sites[s]]
        for i in range(len(names)):
            cross = names[(i + GRID_SWITCH_FANOUT) % len(names)]
            hub = names[0] if i else names[1]
            intra.append(topo.route(names[i], cross, f"{s}-san"))
            intra.append(topo.route(names[i], hub, f"{s}-san"))
    wan_routes = []
    for si, s in enumerate(site_names):
        a = sites[s][0].name
        b = sites[site_names[(si + 1) % len(site_names)]][0].name
        wan_routes.append(topo.route(a, b, "g-wan"))
    routes = intra + wan_routes
    launched = [0]

    def flow_size() -> float:
        launched[0] += 1
        # deterministic size spread so completions interleave
        return 1_000_000.0 * (1 + launched[0] % 7)

    # churn refills are collected per completion instant and re-issued
    # as one ``start_flows`` batch at the same virtual time (symmetric
    # rates complete flows in large simultaneous batches; re-admitting
    # them one by one would re-solve the allocation once per flow in
    # both modes, drowning the workload in driver-induced solves)
    pending: list = []

    def flush() -> None:
        reqs = [(routes[i], flow_size(), lambda flow, r=i: refill(r))
                for i in pending]
        pending.clear()
        net.start_flows(reqs)

    def refill(route_i: int) -> None:
        if not pending:
            kernel.schedule(0.0, flush)
        pending.append(route_i)

    def start_batch(slots: list) -> None:
        net.start_flows([
            (routes[i], flow_size(), lambda flow, r=i: refill(r))
            for i in slots])

    # round-robin the adds so every route ramps evenly: 9 waves on the
    # cross-leaf routes (even slots), one on the hub routes (odd slots)
    cross_slots = range(0, len(intra), 2)
    adds = [i for _ in range(GRID_FLOWS_PER_HOST - 1) for i in cross_slots]
    adds.extend(range(1, len(intra), 2))
    adds.extend(range(len(intra), len(routes)))
    batches = [adds[k:k + GRID_RAMP_BATCH]
               for k in range(0, len(adds), GRID_RAMP_BATCH)]
    for k, slots in enumerate(batches):
        kernel.schedule(k * 1e-6, start_batch, slots)
    ramp_end = len(batches) * 1e-6
    t0 = time.perf_counter()
    kernel.run(until=ramp_end)
    t_ramp = time.perf_counter() - t0
    solver_ramp = solver_wall()

    ev0 = kernel.events_processed
    c0 = net.completed_flows
    horizon = ramp_end
    t1 = time.perf_counter()
    while net.completed_flows - c0 < churn_target:
        horizon += GRID_CHUNK_S
        kernel.run(until=horizon)
    t_churn = time.perf_counter() - t1
    return {
        "ramp_wall": t_ramp,
        "churn_wall": t_churn,
        "events": kernel.events_processed - ev0,
        "completions": net.completed_flows - c0,
        "solver_ramp": solver_ramp,
        "solver_churn": solver_wall() - solver_ramp,
        "net": net,
        "topo": topo,
    }


def _assert_same_state(flat: FlowNetwork, sharded: FlowNetwork,
                       n: int) -> None:
    """Flat and sharded replays of one virtual workload must agree bit
    for bit: the flow log, the bytes credited to every link (matched by
    name, in crediting order) and each live flow's (seq, remaining,
    rate)."""
    assert flat.flow_log == sharded.flow_log, \
        f"sharded flow log diverged from flat at {n} hosts"
    assert [(l.name, v) for l, v in flat.link_bytes.items()] == \
        [(l.name, v) for l, v in sharded.link_bytes.items()], \
        f"sharded link_bytes diverged from flat at {n} hosts"
    assert [(f.seq, f.remaining, f.rate) for f in flat.active_flows] == \
        [(f.seq, f.remaining, f.rate) for f in sharded.active_flows], \
        f"sharded live flows diverged from flat at {n} hosts"


def bench_topology_scaling(quick: bool) -> BenchResult:
    levels = QUICK_GRID_HOSTS if quick else GRID_HOSTS
    targets = QUICK_GRID_CHURN_TARGETS if quick else GRID_CHURN_TARGETS
    points = []
    meta: dict[str, object] = {
        "clock": "wall",
        "workload": f"per-site flow rings ({GRID_FLOWS_PER_HOST}/host) + "
                    f"one WAN flow per site, {GRID_HOSTS_PER_SITE} "
                    f"hosts/site, switch fanout {GRID_SWITCH_FANOUT}",
        "churn_targets": {f"H{n}": t for n, t in sorted(targets.items())},
        "flat_max_hosts": GRID_FLAT_MAX_HOSTS,
        "speedup_metric": "sharded_speedup: flat churn-window solver "
                          "wall (component walk + fill) over sharded "
                          "solver wall; sharded_window_speedup: flat "
                          "churn-window wall (whole window: advance, "
                          "solve, reschedule, kernel) over sharded "
                          "churn-window wall; same virtual workload",
    }
    recorder = TraceRecorder()
    for n in levels:
        churn = targets[n]
        run = _run_grid_churn(n, sharded=True, churn_target=churn)
        net, topo = run["net"], run["topo"]
        points.append((n, run["events"] / run["churn_wall"]))
        hits, misses = topo.route_cache_stats()
        recorder.counter(f"net.route_cache.hits.H{n}", hits)
        recorder.counter(f"net.route_cache.misses.H{n}", misses)
        recorder.counter(f"net.maxmin.iterations.sharded.H{n}",
                         net.solver_iterations)
        meta[f"concurrent_flows_H{n}"] = len(net.active_flows)
        meta[f"ramp_wall_s_H{n}"] = round(run["ramp_wall"], 3)
        meta[f"churn_wall_s_H{n}"] = round(run["churn_wall"], 3)
        meta[f"solver_wall_s_H{n}"] = round(
            run["solver_ramp"] + run["solver_churn"], 3)
        meta[f"completions_per_s_H{n}"] = round(
            run["completions"] / run["churn_wall"], 1)
        meta[f"route_cache_hit_rate_H{n}"] = round(
            hits / (hits + misses), 3) if hits + misses else 0.0
        if n <= GRID_FLAT_MAX_HOSTS:
            flat = _run_grid_churn(n, sharded=False, churn_target=churn)
            # exactness at scale: flat and sharded replays of the same
            # virtual workload must transfer the very same bytes
            _assert_same_state(flat["net"], net, n)
            meta[f"flat_solver_wall_s_H{n}"] = round(
                flat["solver_ramp"] + flat["solver_churn"], 3)
            meta[f"flat_churn_wall_s_H{n}"] = round(flat["churn_wall"], 3)
            meta[f"sharded_speedup_H{n}"] = round(
                flat["solver_churn"] / run["solver_churn"], 2)
            meta[f"sharded_window_speedup_H{n}"] = round(
                flat["churn_wall"] / run["churn_wall"], 2)
    meta["counter_names"] = sorted(recorder.counters)
    return BenchResult(name="wallclock.topology.scaling", unit="events/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# topology-aware collectives: flat vs hierarchical on the virtual clock
# ---------------------------------------------------------------------------

#: grid sizes for the collectives series (site count axis)
COLL_SITES = (2, 4, 8)
QUICK_COLL_SITES = (2,)
COLL_HOSTS_PER_SITE = 5
#: bulk payload: 1 MiB, the ISSUE's acceptance point
COLL_PAYLOAD = 1024 * 1024
#: per-rank payload for the gather-shaped ops, so the root-side total
#: stays proportional to the rank count instead of quadratic
COLL_CHUNK = 64 * 1024
#: the collectives the series publishes, in run order
COLL_OPS = ("bcast", "barrier", "gather", "allgather",
            "allreduce", "alltoall")


def _run_collectives(sites: int, aware: bool) -> dict:
    """One pass of every published collective on a ``sites``-site grid.

    Returns per-op virtual-clock durations (max rank end minus min rank
    start, barrier-separated), per-op WAN-crossing/byte deltas from the
    communicator's :class:`repro.mpi.CollStats`, and a per-rank value
    digest the caller uses to assert the aware replay is bit-identical
    to the flat one.
    """
    from repro.mpi import CollTuning, SUM, create_world, spmd
    from repro.padicotm import PadicoRuntime

    topo, site_hosts = build_grid(sites=sites,
                                  hosts_per_site=COLL_HOSTS_PER_SITE,
                                  san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(h, f"p-{h.name}")
             for hs in site_hosts.values() for h in hs]
    world = create_world(rt, "bench", procs, coll=CollTuning(aware=aware))
    spans: dict[str, list[tuple[float, float]]] = {op: [] for op in COLL_OPS}
    op_stats: dict[str, object] = {}
    digests: dict[int, list] = {}

    def main(proc, comm):
        blob = bytes(COLL_PAYLOAD)
        chunk = bytes(COLL_CHUNK)
        vec = np.ones(COLL_PAYLOAD // 8)
        mine: list = []

        def timed(op, fn):
            # each op runs on its own dup'd communicator: the dup's
            # CollStats then hold the op's exact WAN totals (including
            # tail forwards that land after rank 0 returns), read after
            # the whole run drains.  The separating barriers stay on
            # the parent comm, so their traffic is never misattributed.
            sub = comm.dup()
            if comm.rank == 0:
                op_stats[op] = sub.coll_stats
            comm.barrier()
            t0 = comm.Wtime()
            out = fn(sub)
            t1 = comm.Wtime()
            spans[op].append((t0, t1))
            return out

        timed("bcast", lambda c: c.bcast(
            blob if c.rank == 0 else None, root=0))
        timed("barrier", lambda c: c.barrier())
        g = timed("gather", lambda c: c.gather((c.rank, chunk), root=0))
        ag = timed("allgather", lambda c: c.allgather((c.rank, chunk)))
        ar = timed("allreduce", lambda c: c.allreduce(vec, SUM))
        a2a = timed("alltoall", lambda c: c.alltoall(
            [bytes([d % 251]) * (COLL_PAYLOAD // c.size)
             for d in range(c.size)]))
        mine.append(g if comm.rank == 0 else None)
        mine.append(ag)
        mine.append(float(ar.sum()))
        mine.append(a2a)
        digests[comm.rank] = mine

    spmd(world, main)
    rt.run()
    rt.shutdown()
    durations = {op: max(t1 for _, t1 in ss) - min(t0 for t0, _ in ss)
                 for op, ss in spans.items()}
    crossings = {op: (s.wan_crossings, sum(s.wan_bytes.values()))
                 for op, s in op_stats.items()}
    return {"durations": durations, "crossings": crossings,
            "digests": [digests[r] for r in sorted(digests)]}


def bench_collectives(quick: bool) -> BenchResult:
    """``wallclock.collectives``: flat vs topology-aware collectives.

    Virtual-clock durations (this series rides in the wall-clock
    document but is deterministic — the hierarchy is a *simulated-time*
    optimisation, so the numbers are bit-for-bit reproducible).  Each
    sites level replays the identical workload flat and aware; the run
    asserts the per-rank results match exactly, and the meta records the
    per-op speedups plus the WAN-crossing/byte deltas CI gates on
    (``--gate-wan-crossings``: aware bcast crosses exactly sites - 1
    times per call).
    """
    levels = QUICK_COLL_SITES if quick else COLL_SITES
    points = []
    meta: dict[str, object] = {
        "clock": "virtual",
        "hosts_per_site": COLL_HOSTS_PER_SITE,
        "payload_bytes": COLL_PAYLOAD,
        "chunk_bytes": COLL_CHUNK,
        "workload": "barrier-separated collectives on build_grid, "
                    "duration = max rank end - min rank start",
    }
    for n in levels:
        flat = _run_collectives(n, aware=False)
        hier = _run_collectives(n, aware=True)
        assert hier["digests"] == flat["digests"], \
            f"aware collectives diverged from the flat replay at {n} sites"
        for op in COLL_OPS:
            points.append((f"{op}-flat-S{n}", flat["durations"][op]))
            points.append((f"{op}-aware-S{n}", hier["durations"][op]))
            meta[f"speedup_{op}_S{n}"] = round(
                flat["durations"][op] / hier["durations"][op], 2)
            meta[f"wan_crossings_{op}_flat_S{n}"] = flat["crossings"][op][0]
            meta[f"wan_crossings_{op}_aware_S{n}"] = hier["crossings"][op][0]
            meta[f"wan_bytes_{op}_aware_S{n}"] = int(
                hier["crossings"][op][1])
        meta[f"ranks_S{n}"] = n * COLL_HOSTS_PER_SITE
    meta["oracle"] = "flat replay bit-identical (asserted in-run)"
    return BenchResult(name="wallclock.collectives", unit="s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# CDR marshal / unmarshal throughput
# ---------------------------------------------------------------------------

_OCTET_SEQ = SequenceType(PrimitiveType("octet"))
_DOUBLE_SEQ = SequenceType(PrimitiveType("double"))
_HEADER_STRUCT = StructType(
    "Header", "Bench::Header",
    [("magic", PrimitiveType("unsigned long")),
     ("version", PrimitiveType("octet")),
     ("flags", PrimitiveType("octet")),
     ("size", PrimitiveType("unsigned long")),
     ("request_id", PrimitiveType("unsigned long long"))])


def _rate(nbytes_per_round: int, rounds: int, op: Callable[[], None]) -> float:
    op()  # warm caches outside the timed region
    t0 = time.perf_counter()
    for _ in range(rounds):
        op()
    elapsed = time.perf_counter() - t0
    return nbytes_per_round * rounds / elapsed / 1e6


def _marshal_points(payload_bytes: int,
                    rounds: int) -> list[tuple[str, float]]:
    blob = bytes(payload_bytes)
    doubles = np.zeros(payload_bytes // 8, dtype="<f8")
    points = []

    def enc_octets() -> None:
        out = CdrOutputStream()
        encode_value(out, _OCTET_SEQ, blob)
        out.getvalue()

    def enc_doubles() -> None:
        out = CdrOutputStream()
        encode_value(out, _DOUBLE_SEQ, doubles)
        out.getvalue()

    points.append(("octet-seq", _rate(payload_bytes, rounds, enc_octets)))
    points.append(("double-seq", _rate(payload_bytes, rounds, enc_doubles)))

    # scalar torture: GIOP-header-like structs, all fast-path primitives
    n_structs = max(1, payload_bytes // 10_000)
    header = _HEADER_STRUCT.make(magic=0x47494F50, version=1, flags=0,
                                 size=payload_bytes, request_id=7)

    def enc_structs() -> None:
        out = CdrOutputStream()
        for _ in range(n_structs):
            encode_value(out, _HEADER_STRUCT, header)
        out.getvalue()

    points.append(("scalar-structs",
                   _rate(n_structs * 18, rounds, enc_structs)))
    return points


def _unmarshal_points(payload_bytes: int,
                      rounds: int) -> list[tuple[str, float]]:
    out = CdrOutputStream()
    encode_value(out, _OCTET_SEQ, bytes(payload_bytes))
    octet_wire = out.getvalue()
    out = CdrOutputStream()
    encode_value(out, _DOUBLE_SEQ, np.zeros(payload_bytes // 8, dtype="<f8"))
    double_wire = out.getvalue()

    def dec_octets() -> None:
        decode_value(CdrInputStream(octet_wire), _OCTET_SEQ)

    def dec_doubles() -> None:
        decode_value(CdrInputStream(double_wire), _DOUBLE_SEQ)

    return [("octet-seq", _rate(payload_bytes, rounds, dec_octets)),
            ("double-seq", _rate(payload_bytes, rounds, dec_doubles))]


#: marshal-roundtrip payload axis: 64 KiB, 1 MiB, 16 MiB
ROUNDTRIP_SIZES = (64 * 1024, 1024 * 1024, 16 * 1024 * 1024)
QUICK_ROUNDTRIP_SIZES = (64 * 1024, 1024 * 1024)


def _roundtrip_rates(payload_bytes: int,
                     rounds: int) -> tuple[float, float]:
    """(copied MB/s, zero-copy MB/s) for one encode→wire→decode trip."""
    doubles = np.zeros(payload_bytes // 8, dtype="<f8")

    def rt_copied() -> None:
        out = CdrOutputStream(zero_copy=False)
        encode_value(out, _DOUBLE_SEQ, doubles)
        decode_value(CdrInputStream(out.getvalue()), _DOUBLE_SEQ)

    def rt_zero_copy() -> None:
        out = CdrOutputStream(zero_copy=True)
        encode_value(out, _DOUBLE_SEQ, doubles)
        decode_value(CdrInputStream(out.getbuffer()), _DOUBLE_SEQ)

    return (_rate(payload_bytes, rounds, rt_copied),
            _rate(payload_bytes, rounds, rt_zero_copy))


def bench_marshal_roundtrip(quick: bool) -> BenchResult:
    sizes = QUICK_ROUNDTRIP_SIZES if quick else ROUNDTRIP_SIZES
    rounds = 5 if quick else 20
    points = []
    meta: dict[str, object] = {"rounds": rounds, "clock": "wall",
                               "payload": "double sequence"}
    for size in sizes:
        copied, zero = _roundtrip_rates(size, rounds)
        points.append((f"copied-{size}", copied))
        points.append((f"zero-copy-{size}", zero))
        meta[f"speedup_{size}"] = round(zero / copied, 2)
    return BenchResult(name="wallclock.marshal_roundtrip", unit="MB/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# GridCCM aggregated bandwidth (Figure 8) on the wall clock
# ---------------------------------------------------------------------------

GRIDCCM_NODES = (2, 4, 8)
QUICK_GRIDCCM_NODES = (2,)


def _gridccm_wall_mbps(n: int, ints_per_rank: int) -> float:
    """Wall-clock MB/s of one n→n block-redistributed absorb."""
    from benchmarks.harness import (
        BENCH_IDL,
        PARALLELISM_XML,
        _SinkImpl,
    )
    from repro.core import (
        GridCcmCompiler,
        ParallelClient,
        ParallelComponent,
        ParallelismDescriptor,
    )
    from repro.corba import OMNIORB4, Orb, compile_idl
    from repro.mpi import create_world, spmd
    from repro.padicotm import PadicoRuntime

    topo = Topology()
    build_cluster(topo, "h", 2 * n, san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    server_procs = [rt.create_process(f"h{i}", f"s{i}") for i in range(n)]
    comp = ParallelComponent.create(rt, "bench", server_procs, BENCH_IDL,
                                    PARALLELISM_XML, _SinkImpl,
                                    profile=OMNIORB4)
    url = comp.proxy_url("input")
    client_procs = [rt.create_process(f"h{n + i}", f"c{i}")
                    for i in range(n)]
    world = create_world(rt, "clients", client_procs)

    def main(proc, comm):
        idl = compile_idl(BENCH_IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(PARALLELISM_XML)).compile()
        orb = Orb(client_procs[comm.rank], OMNIORB4, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
        pc.absorb(np.zeros(1, dtype="i4"))  # warm-up: connections + plans
        comm.barrier()
        pc.absorb(np.zeros(ints_per_rank, dtype="i4"))

    spmd(world, main)
    t0 = time.perf_counter()
    rt.run()
    elapsed = time.perf_counter() - t0
    rt.shutdown()
    return n * ints_per_rank * 4 / elapsed / 1e6


def bench_gridccm_scaling(quick: bool) -> BenchResult:
    nodes = QUICK_GRIDCCM_NODES if quick else GRIDCCM_NODES
    ints_per_rank = 250_000 if quick else 1_000_000
    points = [(n, _gridccm_wall_mbps(n, ints_per_rank)) for n in nodes]
    return BenchResult(
        name="wallclock.gridccm.scaling", unit="MB/s",
        points=tuple(points),
        meta={"clock": "wall", "ints_per_rank": ints_per_rank,
              "profile": "omniORB-4.0.0",
              "workload": "Figure-8 n-to-n block-redistributed absorb",
              "note": "aggregated payload bytes over simulator wall "
                      "seconds; the virtual-clock bandwidth twin is "
                      "gridccm.n_to_n in BENCH_padico.json"})


def bench_cdr(quick: bool) -> list[BenchResult]:
    payload = 256 * 1024 if quick else 8 * 1024 * 1024
    rounds = 5 if quick else 20
    meta = {"payload_bytes": payload, "rounds": rounds, "clock": "wall"}
    return [
        BenchResult(name="wallclock.cdr.marshal", unit="MB/s",
                    points=tuple(_marshal_points(payload, rounds)),
                    meta=meta),
        BenchResult(name="wallclock.cdr.unmarshal", unit="MB/s",
                    points=tuple(_unmarshal_points(payload, rounds)),
                    meta=meta),
    ]


# ---------------------------------------------------------------------------
# roll-up
# ---------------------------------------------------------------------------

def collect_wallclock(quick: bool,
                      log=lambda msg: None) -> list[BenchResult]:
    results = [bench_kernel(quick)]
    log(results[-1].render())
    results.append(bench_kernel_switch(quick))
    log(results[-1].render())
    results.append(bench_flows(quick))
    log(results[-1].render())
    results.append(bench_topology_scaling(quick))
    log(results[-1].render())
    results.append(bench_collectives(quick))
    log(results[-1].render())
    for result in bench_cdr(quick):
        results.append(result)
        log(results[-1].render())
    results.append(bench_marshal_roundtrip(quick))
    log(results[-1].render())
    results.append(bench_gridccm_scaling(quick))
    log(results[-1].render())
    return results


def document_meta(quick: bool) -> dict[str, object]:
    return {
        "suite": "padico-wallclock",
        "mode": "quick" if quick else "full",
        "clock": "wall",
        "backends": list(available_backends()),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "platform": sys.platform,
    }
