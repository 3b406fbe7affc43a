"""The four benchmark workloads, each one closed loop driven from one
OS process.

Every workload builds its world from a seed, runs a warm-up, then runs
the fixed range of ops its :class:`Pacer` names (every rank of a
parallel client runs the same range, so they agree on where the
instance ends without exchanging a message).  An instance returns an
:class:`Outcome`: set-up wall time, per-op wall latencies, failed ops,
and the virtual-clock digest of the run's first ``digest_ops`` ops.

* ``pingpong`` — Figure 7: push round trips under the omniORB4 and Mico
  profiles plus MPI ``Send``/``Recv`` round trips between two Myrinet
  hosts, over a seeded, mostly small mix of the Figure 7 sizes
  (32 B .. 1 MiB).
* ``gridccm-absorb`` — Figure 8: an 8-rank parallel client calls an
  8-rank parallel component whose ``absorb`` runs ``MPI_Barrier``
  (MicoCCM base, two processes per host); every call uses a vector
  length not seen before, so every call plans its redistribution
  afresh.
* ``grid-churn`` — a 1000-host ``build_grid`` with ten self-refilling
  flows per host, laid out as the 1000-host point of
  ``wallclock.topology.scaling``; an op is one fixed virtual-time
  slice.
* ``coupling`` — §4.4 across sites: an 8-rank client on two sites of a
  4-site grid calls an 8-rank component on the other two every step;
  the server op runs ``allreduce`` and ``bcast`` over its cross-site
  world.  Same shape every call, so plans come from the cache.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.ccm import ComponentImpl
from repro.core import (
    BlockDistribution,
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import MICO, OMNIORB4, Orb, compile_idl
from repro.mpi import SUM, create_world, spmd
from repro.net import MYRINET_2000, Topology, build_cluster, build_grid
from repro.padicotm import PadicoRuntime
from repro.sim import SimProcessError

from wallprof import NullProfiler

NULL_PROFILER = NullProfiler()


class Pacer:
    """Op range and per-op wall timing for one instance.

    An instance runs the ops ``first .. first + count - 1``; a run of
    several instances continues the op numbering, so inputs derived
    from the op index never repeat within a run.  The first call of
    :meth:`ops` (by any rank) marks the end of set-up.  ``begin`` and
    ``end`` keep the earliest start and the latest end of each op over
    all ranks of a parallel client.
    """

    def __init__(self, first: int, count: int):
        self.first = first
        self.count = count
        self.t_ready: float | None = None
        self.starts: dict[int, float] = {}
        self.ends: dict[int, float] = {}
        self.failed: set[int] = set()

    def ops(self) -> Iterator[int]:
        if self.t_ready is None:
            self.t_ready = time.perf_counter()
        return iter(range(self.first, self.first + self.count))

    def begin(self, k: int) -> None:
        if k not in self.starts:
            self.starts[k] = time.perf_counter()

    def end(self, k: int, ok: bool = True) -> None:
        self.ends[k] = time.perf_counter()
        if not ok:
            self.failed.add(k)

    def latencies(self) -> list[float]:
        return [self.ends[k] - self.starts[k] for k in sorted(self.ends)
                if k in self.starts]

    def timed_wall(self) -> float:
        if not self.ends or self.t_ready is None:
            return 0.0
        return max(self.ends.values()) - self.t_ready


class Digest:
    """Virtual-clock digest of the first ``n`` ops of a run: the virtual
    time at the end of op ``n - 1`` plus per-op fingerprints."""

    def __init__(self, n: int):
        self.n = n
        self.items: list = []
        self.vtime: float | None = None

    def add(self, k: int, vtime: float, item: Any) -> None:
        if k < self.n:
            self.items.append(item)
            if k == self.n - 1:
                self.vtime = vtime

    @property
    def value(self) -> str | None:
        if self.vtime is None:
            return None
        text = repr((self.vtime, self.items)).encode()
        return hashlib.sha256(text).hexdigest()[:32]


@dataclass
class Outcome:
    setup_s: float
    pacer: Pacer
    digest: str | None
    #: kernel / flow-network / route-cache counters after the run
    counters: dict[str, float] = field(default_factory=dict)
    #: ops failed by an end-of-run check (ledger, stranded processes)
    extra_failed: int = 0

    @property
    def attempted(self) -> int:
        return max(len(self.pacer.starts), 1)

    @property
    def failed(self) -> int:
        return min(self.attempted,
                   len(self.pacer.failed) + self.extra_failed)


def _outcome(t0: float, pacer: Pacer, digest: Digest, counters: dict,
             extra_failed: int = 0) -> Outcome:
    setup = (pacer.t_ready or time.perf_counter()) - t0
    return Outcome(setup, pacer, digest.value, counters, extra_failed)


def _runtime_counters(rt: PadicoRuntime) -> dict[str, float]:
    kernel, net = rt.kernel, rt.network
    hits, misses = rt.topology.route_cache_stats()
    return {
        "sim.events": kernel.events_processed,
        "sim.events_skipped": kernel.events_skipped,
        "net.solver_solves": net.solver_solves,
        "net.solver_iterations": net.solver_iterations,
        "net.solver_flows_resolved": net.solver_flows_resolved,
        "net.timer_reuses": net.timer_reuses,
        "net.flows_completed": net.completed_flows,
        "net.route_cache_hits": hits,
        "net.route_cache_lookups": hits + misses,
    }


def _attach(rt: PadicoRuntime, prof: Any) -> None:
    """Observe ``rt`` with a real profiler and time the flow-admission
    entry points on its network."""
    if isinstance(prof, NullProfiler):
        return
    rt.observe(prof)
    net = rt.network
    net.start_flow = prof.timed("net.admit", "net.admit_s", net.start_flow)
    net.start_flows = prof.timed("net.admit", "net.admit_s",
                                 net.start_flows)


def _drain(rt: PadicoRuntime, procs: list) -> int:
    """Run the kernel dry and shut the runtime down; returns how many
    failures that showed: a benchmark process that died (which aborts
    the run) plus those left stranded."""
    try:
        rt.run()
        died = 0
    except SimProcessError:
        died = 1
    stranded = sum(1 for p in procs if p.alive)
    rt.shutdown()
    return died + stranded


# ---------------------------------------------------------------------------
# shared IDL
# ---------------------------------------------------------------------------

BENCH_IDL = """
module Bench {
    typedef sequence<octet> Blob;
    typedef sequence<long> IntVector;
    typedef sequence<double> Field;
    interface Sink {
        void push(in Blob data);
        void absorb(in IntVector values);
    };
    interface Coupler {
        Field exchange(in Field rho);
    };
    component Endpoint {
        provides Sink input;
    };
    component Solver {
        provides Coupler flow;
    };
    home EndpointHome manages Endpoint {};
    home SolverHome manages Solver {};
};
"""

ABSORB_XML = """
<parallelism component="Bench::Endpoint">
  <port name="input">
    <operation name="absorb">
      <argument name="values" distribution="block"/>
      <result policy="none"/>
    </operation>
  </port>
</parallelism>
"""

COUPLING_XML = """
<parallelism component="Bench::Solver">
  <port name="flow">
    <operation name="exchange">
      <argument name="rho" distribution="block"/>
      <result policy="concat"/>
    </operation>
  </port>
</parallelism>
"""


# ---------------------------------------------------------------------------
# pingpong (Figure 7)
# ---------------------------------------------------------------------------

#: the Figure 7 sample sizes of ``benchmarks/harness.py:FIG7_SIZES``
#: that lie within 32 B .. 1 MiB
PINGPONG_SIZES = (32, 1024, 32 * 1024, 1024 * 1024)
#: share of ops per size: "mostly small" (70% at most 1 KiB), with the
#: weights set so the median op falls well inside one latency cluster
#: (the CORBA round trips below 1 MiB), not on the edge between two
PINGPONG_WEIGHTS = (0.40, 0.30, 0.20, 0.10)
PINGPONG_KINDS = ("omniORB4", "Mico", "mpi")
_DATA_TAG, _STOP_TAG = 1, 2


def pingpong_ops(seed: int, first: int, count: int
                 ) -> list[tuple[int, int, int]]:
    """Ops ``first .. first + count - 1``: (kind index, size, offset).

    Stratified, so every round carries the same work: each size appears
    in proportion to its weight, spread evenly over the three kinds, and
    the seed only shuffles the order and draws the payload offsets.
    """
    rng = np.random.default_rng([seed, 7, first])
    counts = [int(w * count) for w in PINGPONG_WEIGHTS]
    counts[0] += count - sum(counts)
    ops = [((i + j) % len(PINGPONG_KINDS), size)
           for i, (size, c) in enumerate(zip(PINGPONG_SIZES, counts))
           for j in range(c)]
    order = rng.permutation(count)
    offsets = rng.integers(0, 1 << 20, count)
    return [(ops[i][0], ops[i][1], int(o)) for i, o in zip(order, offsets)]


def run_pingpong(seed: int, scale: dict, pacer: Pacer,
                 prof: Any = NULL_PROFILER) -> Outcome:
    t0 = time.perf_counter()
    with prof.section("net.build"):
        topo = Topology()
        build_cluster(topo, "n", 2, san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    _attach(rt, prof)
    with prof.section("corba.deploy"):
        server = rt.create_process("n0", "server")
        client = rt.create_process("n1", "client")
        received: dict[int, Any] = {}
        urls = []
        client_orbs = []
        for kind, profile in enumerate((OMNIORB4, MICO)):
            orb = Orb(server, profile, compile_idl(BENCH_IDL))
            orb.start()

            class Sink(orb.servant_base("Bench::Sink")):
                def push(self, data, kind=kind):
                    received[kind] = data

            urls.append(orb.object_to_string(orb.poa.activate_object(
                Sink())))
            client_orbs.append(Orb(client, profile, compile_idl(BENCH_IDL)))
        world = create_world(rt, "pingpong", [client, server])
    pool = np.random.default_rng([seed, 11]).integers(
        0, 256, 2 << 20, dtype=np.uint8)
    pool_bytes = pool.tobytes()
    plan = pingpong_ops(seed, pacer.first, pacer.count)
    mpi_sizes = [size for kind, size, _o in plan if kind == 2]
    digest = Digest(scale["digest_ops"])

    def client_main(proc, comm):
        stubs = [orb.string_to_object(url)
                 for orb, url in zip(client_orbs, urls)]
        for stub in stubs:  # connection warm-up
            stub.push(b"w")
        warm = np.zeros(1, dtype=np.uint8)
        comm.Send(warm, dest=1)
        comm.Recv(warm, source=1)
        back = np.empty(1 << 20, dtype=np.uint8)
        for k in pacer.ops():
            kind, size, offset = plan[k - pacer.first]
            pacer.begin(k)
            v0 = rt.kernel.now
            try:
                if kind < 2:
                    payload = pool_bytes[offset:offset + size]
                    stubs[kind].push(payload)
                    pacer.end(k)
                    ok = received.get(kind) == payload
                else:
                    arr = pool[offset:offset + size]
                    out = back[:size]
                    comm.Send(arr, dest=1)
                    comm.Recv(out, source=1)
                    pacer.end(k)
                    ok = np.array_equal(out, arr)
            except Exception:  # noqa: BLE001 - counted as a failed op
                pacer.end(k)
                ok = False
            if not ok:
                pacer.failed.add(k)
            digest.add(k, rt.kernel.now, (kind, size, rt.kernel.now - v0))

    def echo_main(proc, comm):
        buf = np.empty(1 << 20, dtype=np.uint8)
        for size in [1] + mpi_sizes:
            comm.Recv(buf[:size], source=0)
            comm.Send(buf[:size], dest=0)

    def main(proc, comm):
        (client_main if comm.rank == 0 else echo_main)(proc, comm)

    procs = spmd(world, main, name="bench")
    failures = _drain(rt, procs)
    return _outcome(t0, pacer, digest, _runtime_counters(rt), failures)


# ---------------------------------------------------------------------------
# gridccm-absorb (Figure 8)
# ---------------------------------------------------------------------------

class _AbsorbImpl(ComponentImpl):
    """Figure 8's server op: keep the block, then ``MPI_Barrier``."""

    last: Any = None

    def absorb(self, values):
        self.last = values
        self.mpi.Barrier()


def absorb_length(seed: int, scale: dict, k: int) -> int:
    """Global vector length of op ``k``: distinct for every op."""
    stride = scale["length_stride"]
    jitter = (seed * 7919 + k * 104729) % stride
    return scale["base_length"] + k * stride + jitter


#: processes per host in Figure 8 (the paper's dual-CPU testbed)
ABSORB_PROCS_PER_HOST = 2


def run_gridccm_absorb(seed: int, scale: dict, pacer: Pacer,
                       prof: Any = NULL_PROFILER) -> Outcome:
    """Figure 8 as ``benchmarks/harness.py:gridccm_n_to_n`` sets it up:
    MicoCCM base, two processes per Myrinet host, server component on
    the first hosts, client on the rest."""
    n, per_host = scale["ranks"], ABSORB_PROCS_PER_HOST
    hosts_each = -(-n // per_host)
    t0 = time.perf_counter()
    with prof.section("net.build"):
        topo = Topology()
        build_cluster(topo, "h", 2 * hosts_each, san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    _attach(rt, prof)
    with prof.section("gridccm.deploy"):
        server_procs = [rt.create_process(f"h{i // per_host}", f"s{i}")
                        for i in range(n)]
        comp = ParallelComponent.create(rt, "absorb", server_procs,
                                        BENCH_IDL, ABSORB_XML, _AbsorbImpl,
                                        profile=MICO)
        url = comp.proxy_url("input")
        client_procs = [
            rt.create_process(f"h{hosts_each + i // per_host}", f"c{i}")
            for i in range(n)]
        world = create_world(rt, "clients", client_procs)
    executors = comp.executors()
    longest = absorb_length(seed, scale, pacer.first + pacer.count)
    pool = np.random.default_rng([seed, 13]).integers(
        -2**31, 2**31 - 1, 2 * longest, dtype=np.int32)
    digest = Digest(scale["digest_ops"])

    def main(proc, comm):
        idl = compile_idl(BENCH_IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(ABSORB_XML)).compile()
        orb = Orb(client_procs[comm.rank], MICO, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
        pc.absorb(np.zeros(1, dtype=np.int32))  # connections, first plan
        comm.barrier()
        for k in pacer.ops():
            length = absorb_length(seed, scale, k)
            offset = (k * 7 + seed) % longest
            vector = pool[offset:offset + length]
            src = BlockDistribution(n, length)
            pacer.begin(k)
            v0 = rt.kernel.now
            try:
                pc.absorb(vector[src.start(comm.rank):src.end(comm.rank)])
            except Exception:  # noqa: BLE001 - counted as a failed op
                pacer.end(k, ok=False)
                continue
            pacer.end(k)
            if comm.rank == 0:
                # every server's block (the barrier ran, so all are
                # stored) must equal the target block of the input
                dst = BlockDistribution(len(executors), length)
                if not all(np.array_equal(
                        ex.last, vector[dst.start(r):dst.end(r)])
                        for r, ex in enumerate(executors)):
                    pacer.failed.add(k)
                digest.add(k, rt.kernel.now, (length, rt.kernel.now - v0))

    procs = spmd(world, main, name="bench")
    with _timed_planner(prof):
        failures = _drain(rt, procs)
    return _outcome(t0, pacer, digest, _runtime_counters(rt), failures)


@contextmanager
def _timed_planner(prof: Any) -> Iterator[None]:
    """Time :func:`repro.core.redistribute_schedule` where GridCCM's
    call engine and server layer look it up (traced runs only)."""
    if isinstance(prof, NullProfiler):
        yield
        return
    import repro.core.runtime as gridccm_runtime
    saved = gridccm_runtime.redistribute_schedule
    gridccm_runtime.redistribute_schedule = prof.timed(
        "core.plan", "core.plan_s", saved)
    try:
        yield
    finally:
        gridccm_runtime.redistribute_schedule = saved


# ---------------------------------------------------------------------------
# grid-churn
# ---------------------------------------------------------------------------

#: flow sizes are whole MB from 1 to CHURN_MAX_MB, the size set of the
#: grid churn in ``benchmarks/wallclock.py`` (there cycled, here drawn
#: per flow from the seed); the ramp's flows start with anywhere from
#: CHURN_RAMP_LOW MB to CHURN_MAX_MB left, as if already part-way
#: through, so completions are spread out from the first slice instead
#: of arriving in one wave
CHURN_UNIT = 1_000_000.0
CHURN_MAX_MB, CHURN_RAMP_LOW = 7, 0.01
CHURN_RAMP_BATCH = 2_000


def run_grid_churn(seed: int, scale: dict, pacer: Pacer,
                   prof: Any = NULL_PROFILER) -> Outcome:
    """Self-refilling flows on a ``build_grid`` topology.

    Each host sends ``flows_per_host - 1`` flows to the host one leaf
    switch over (crossing the site's leaf/spine links) and one to its
    site's first host, plus one WAN flow per site; the seed draws every
    flow's size.  Refills are
    re-admitted as one ``start_flows`` batch per completion instant.
    The ramp and a short warm-up are set-up; an op is one ``slice_s``
    virtual-time slice.
    """
    t0 = time.perf_counter()
    fanout = scale["fanout"]
    with prof.section("net.build"):
        topo, sites = build_grid(sites=scale["sites"],
                                 hosts_per_site=scale["hosts_per_site"],
                                 switch_fanout=fanout)
    rt = PadicoRuntime(topo)
    _attach(rt, prof)
    kernel, net = rt.kernel, rt.network
    rng = np.random.default_rng([seed, 17, pacer.first])
    with prof.section("net.routes"):
        names = list(sites)
        routes = []
        for s in names:
            hosts = [h.name for h in sites[s]]
            for i, host in enumerate(hosts):
                routes.append(topo.route(
                    host, hosts[(i + fanout) % len(hosts)], f"{s}-san"))
                routes.append(topo.route(
                    host, hosts[0] if i else hosts[1], f"{s}-san"))
        n_intra = len(routes)
        for si, s in enumerate(names):
            far = sites[names[(si + 1) % len(names)]][0].name
            routes.append(topo.route(sites[s][0].name, far, "g-wan"))
    hops = [len(r) for r in routes]
    ledger = {"launched": 0, "completed": 0, "bad": 0, "done_bytes": 0.0}
    pending: list[int] = []

    def request(i: int, size: float | None = None) -> tuple:
        if size is None:
            size = CHURN_UNIT * float(rng.integers(1, CHURN_MAX_MB + 1))
        ledger["launched"] += 1
        return routes[i], size, lambda flow: done(flow, i, size)

    def done(flow, i: int, size: float) -> None:
        ledger["completed"] += 1
        ledger["done_bytes"] += size * hops[i]
        if flow.error is not None or flow.size != size:
            ledger["bad"] += 1
        if not pending:
            kernel.schedule(0.0, flush)
        pending.append(i)

    def flush() -> None:
        reqs = [request(i) for i in pending]
        pending.clear()
        net.start_flows(reqs)

    waves = scale["flows_per_host"] - 1
    adds = [i for _ in range(waves) for i in range(0, n_intra, 2)]
    adds.extend(range(1, n_intra, 2))
    adds.extend(range(n_intra, len(routes)))
    # the ramp's sizes are stratified (one per equal-width band of the
    # range, bands shuffled), so every seed starts from the same spread
    bands = (rng.permutation(len(adds)) + rng.random(len(adds))) \
        / len(adds)
    ramp = CHURN_UNIT * (CHURN_RAMP_LOW
                         + (CHURN_MAX_MB - CHURN_RAMP_LOW) * bands)
    for k in range(0, len(adds), CHURN_RAMP_BATCH):
        batch = list(zip(adds[k:k + CHURN_RAMP_BATCH],
                         ramp[k:k + CHURN_RAMP_BATCH].tolist()))
        kernel.schedule(k * 1e-9, lambda b=batch: net.start_flows(
            [request(i, size) for i, size in b]))
    horizon = len(adds) * 1e-9 + scale["warm_s"]
    kernel.run(until=horizon)
    concurrent = len(net.active_flows)

    digest = Digest(scale["digest_ops"])
    for k in pacer.ops():
        horizon += scale["slice_s"]
        pacer.begin(k)
        try:
            kernel.run(until=horizon)
            pacer.end(k)
        except Exception:  # noqa: BLE001 - counted as a failed op
            pacer.end(k, ok=False)
        # fingerprint: the flow-log length, swapped below for the log
        # prefix itself, so hashing stays out of the timed slices
        digest.add(k, kernel.now, len(net.flow_log))
    if digest.vtime is not None:
        digest.items = net.flow_log[:digest.items[-1]]

    # ledger: every launched flow is either complete or still active,
    # every completion delivered its requested size, and the bytes
    # credited to links equal the bytes the flows moved
    active = net.active_flows
    moved = ledger["done_bytes"] + sum(
        (f.size - f.remaining) * len(f.route) for f in active)
    credited = sum(net.link_bytes.values())
    consistent = (ledger["launched"] == ledger["completed"] + len(active)
                  and ledger["completed"] == net.completed_flows
                  and ledger["bad"] == 0
                  and abs(credited - moved) <= 1e-9 * moved
                  + CHURN_SLACK * ledger["completed"])
    counters = _runtime_counters(rt)
    counters["net.concurrent_flows"] = concurrent
    rt.shutdown()
    return _outcome(t0, pacer, digest, counters,
                    0 if consistent else pacer.count)


#: bytes a completing flow may leave uncredited (the flow network
#: completes a flow within a tiny residue of its size)
CHURN_SLACK = 64.0


# ---------------------------------------------------------------------------
# coupling (§4.4 across sites)
# ---------------------------------------------------------------------------

class _CouplerImpl(ComponentImpl):
    """Server op: ``allreduce`` of the blocks and ``bcast`` of the peak
    over the component's own (cross-site) MPI world."""

    def exchange(self, rho):
        comm = self.mpi
        total = comm.allreduce(rho, SUM)
        peak = comm.bcast(float(np.abs(total).max()) + 1.0
                          if comm.rank == 0 else None, root=0)
        return rho * 2.0 + total / peak


def coupling_reference(vector: np.ndarray, parts: int) -> np.ndarray:
    """numpy reference of one coupling step (exact: integer-valued
    doubles sum exactly in any order)."""
    blocks = vector.reshape(parts, -1)
    total = blocks.sum(axis=0)
    peak = float(np.abs(total).max()) + 1.0
    return (blocks * 2.0 + total / peak).reshape(-1)


def run_coupling(seed: int, scale: dict, pacer: Pacer,
                 prof: Any = NULL_PROFILER) -> Outcome:
    n = scale["ranks"]
    length = n * scale["block"]
    t0 = time.perf_counter()
    with prof.section("net.build"):
        topo, sites = build_grid(sites=4, hosts_per_site=n // 2,
                                 san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    _attach(rt, prof)
    hosts = [h for s in sorted(sites) for h in sites[s]]
    with prof.section("gridccm.deploy"):
        server_procs = [rt.create_process(h, f"s-{h.name}")
                        for h in hosts[:n]]
        comp = ParallelComponent.create(rt, "solver", server_procs,
                                        BENCH_IDL, COUPLING_XML,
                                        _CouplerImpl, profile=OMNIORB4)
        url = comp.proxy_url("flow")
        client_procs = [rt.create_process(h, f"c-{h.name}")
                        for h in hosts[n:]]
        world = create_world(rt, "clients", client_procs)
    pool = np.random.default_rng([seed, 19]).integers(
        -1000, 1001, 2 * length).astype(np.float64)
    src = BlockDistribution(n, length)
    digest = Digest(scale["digest_ops"])

    def main(proc, comm):
        idl = compile_idl(BENCH_IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(COUPLING_XML)).compile()
        orb = Orb(client_procs[comm.rank], OMNIORB4, idl)
        pc = ParallelClient.attach(orb, plan, "flow", url, comm=comm)
        lo, hi = src.start(comm.rank), src.end(comm.rank)
        pc.exchange(pool[lo:hi])  # connections and the cached plans
        comm.barrier()
        for k in pacer.ops():
            offset = (k * 4099 + seed) % length
            vector = pool[offset:offset + length]
            pacer.begin(k)
            v0 = rt.kernel.now
            try:
                result = pc.exchange(vector[lo:hi])
            except Exception:  # noqa: BLE001 - counted as a failed op
                pacer.end(k, ok=False)
                continue
            pacer.end(k)
            if comm.rank == 0:
                if not np.array_equal(result,
                                      coupling_reference(vector, n)):
                    pacer.failed.add(k)
                digest.add(k, rt.kernel.now, (
                    rt.kernel.now - v0,
                    hashlib.sha256(np.asarray(result).tobytes())
                    .hexdigest()[:16]))

    procs = spmd(world, main, name="bench")
    with _timed_planner(prof):
        failures = _drain(rt, procs)
    return _outcome(t0, pacer, digest, _runtime_counters(rt), failures)


# ---------------------------------------------------------------------------
# registry and sizes
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "pingpong": run_pingpong,
    "gridccm-absorb": run_gridccm_absorb,
    "grid-churn": run_grid_churn,
    "coupling": run_coupling,
}

#: per-workload sizes: ``full`` is what the benchmark measures, ``tiny``
#: keeps the benchmark's own tests fast.  A run is a series of fresh
#: instances ("rounds") of ``round_ops`` ops each, so a round's work and
#: peak memory do not depend on how fast the program is; ``setups`` is
#: the least number of set-up samples a run takes.
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "pingpong": {
        "full": {"round_ops": 1500, "digest_ops": 64, "setups": 5},
        "tiny": {"round_ops": 20, "digest_ops": 8, "setups": 2},
    },
    "gridccm-absorb": {
        "full": {"ranks": 8, "base_length": 1_000_000, "length_stride": 64,
                 "round_ops": 2, "digest_ops": 2, "setups": 3},
        "tiny": {"ranks": 4, "base_length": 2_000, "length_stride": 16,
                 "round_ops": 3, "digest_ops": 2, "setups": 2},
    },
    "grid-churn": {
        "full": {"sites": 2, "hosts_per_site": 500, "fanout": 32,
                 "flows_per_host": 10, "warm_s": 0.02, "slice_s": 0.01,
                 "round_ops": 20, "digest_ops": 8, "setups": 5},
        "tiny": {"sites": 2, "hosts_per_site": 40, "fanout": 8,
                 "flows_per_host": 4, "warm_s": 0.02, "slice_s": 0.04,
                 "round_ops": 3, "digest_ops": 2, "setups": 2},
    },
    "coupling": {
        "full": {"ranks": 8, "block": 4096, "round_ops": 60,
                 "digest_ops": 8, "setups": 3},
        "tiny": {"ranks": 8, "block": 64, "round_ops": 3, "digest_ops": 2,
                 "setups": 2},
    },
}
