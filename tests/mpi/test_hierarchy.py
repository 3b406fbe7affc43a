"""Topology-aware hierarchical collectives (MPICH-G2 style).

Flat mode (``CollTuning(aware=False)``) runs the same two-level
schedule over a one-site view of the group, so flat/aware equality
alone proves little.  The oracle is :func:`_expected`, a pure function
that shares no code with the schedule: both modes must produce its
values for every collective, every root and every rank layout, and the
aware mode must cross the WAN less.
"""

import functools

import numpy as np
import pytest

from repro.mpi import CollTuning, create_world, spmd
from repro.mpi.ops import MAXLOC, SUM, ReduceOp
from repro.net import (
    NoRouteError,
    TransferError,
    build_grid,
)
from repro.net.devices import MYRINET_2000
from repro.obs import TraceRecorder
from repro.padicotm import PadicoRuntime


#: a non-commutative (but associative) op: string/tuple concatenation
CONCAT = ReduceOp("concat", lambda a, b: a + b)


def _grid(sites, hosts_per_site, **kw):
    topo, site_hosts = build_grid(sites=sites,
                                  hosts_per_site=hosts_per_site,
                                  san=MYRINET_2000, **kw)
    rt = PadicoRuntime(topo)
    return rt, site_hosts


def _run(rt, procs, fn, *args, aware=True, tolerate_blocked=False):
    world = create_world(rt, "w", procs, coll=CollTuning(aware=aware))
    threads = spmd(world, fn, *args)
    rt.kernel.run()
    results = []
    for t in threads:
        if not tolerate_blocked:
            assert not t.alive, f"{t.name} never finished"
            assert t.exc is None, f"{t.name}: {t.exc!r}"
        results.append(t.result if not t.alive and t.exc is None
                       else None)
    return world, results


def _procs(rt, site_hosts, order="contiguous"):
    hosts = [h for hs in site_hosts.values() for h in hs]
    if order == "interleaved":
        by_site = list(site_hosts.values())
        hosts = [h for tier in zip(*by_site) for h in tier]
    return [rt.create_process(h, f"p-{h.name}") for h in hosts]


def _all_collectives(proc, comm, root):
    """One pass over every rewritten collective, rooted at ``root``."""
    res = {}
    comm.barrier()
    res["bcast"] = comm.bcast(
        {"from": root, "blob": bytes(2048)} if comm.rank == root
        else None, root=root)["from"]
    buf = np.arange(64, dtype=np.int64) + (1000 if comm.rank == root
                                           else 0)
    comm.Bcast(buf, root=root)
    res["Bcast"] = int(buf.sum())
    res["gather"] = comm.gather((comm.rank, "x" * comm.rank), root=root)
    res["scatter"] = comm.scatter(
        [f"part{i}" for i in range(comm.size)]
        if comm.rank == root else None, root=root)
    res["allgather"] = comm.allgather(comm.rank * 7)
    res["reduce"] = comm.reduce((comm.rank + 1) * 3, SUM, root=root)
    res["reduce_nc"] = comm.reduce(f"r{comm.rank}.", CONCAT, root=root)
    res["maxloc"] = comm.reduce((comm.size - comm.rank, comm.rank),
                                MAXLOC, root=root)
    res["allreduce"] = comm.allreduce(comm.rank + 1, SUM)
    res["alltoall"] = comm.alltoall(
        [f"{comm.rank}->{d}" for d in range(comm.size)])
    sendbuf = np.full(32, float(comm.rank + 1))
    recvbuf = np.zeros(32)
    comm.Reduce(sendbuf, recvbuf if comm.rank == root else None, SUM,
                root=root)
    res["Reduce"] = float(recvbuf[0]) if comm.rank == root else None
    out = np.zeros(32)
    comm.Allreduce(sendbuf, out, SUM)
    res["Allreduce"] = float(out[0])
    comm.barrier()
    return res


def _expected(root, size):
    """What :func:`_all_collectives` returns on each rank, computed
    directly.  Reductions combine operands in root-rotated rank order
    (``root, root+1, ..., root-1``), the order the binomial tree
    documents for non-commutative ops."""
    ranks = range(size)
    rotated = [(root + i) % size for i in ranks]

    def at_root(r, value):
        return value if r == root else None

    def fold(op, operand):
        return functools.reduce(op, [operand(r) for r in rotated])

    total = size * (size + 1) // 2
    return [{
        "bcast": root,
        "Bcast": int((np.arange(64) + 1000).sum()),
        "gather": at_root(r, [(i, "x" * i) for i in ranks]),
        "scatter": f"part{r}",
        "allgather": [i * 7 for i in ranks],
        "reduce": at_root(r, fold(SUM, lambda i: (i + 1) * 3)),
        "reduce_nc": at_root(r, fold(CONCAT, lambda i: f"r{i}.")),
        "maxloc": at_root(r, fold(MAXLOC, lambda i: (size - i, i))),
        "allreduce": total,
        "alltoall": [f"{i}->{r}" for i in ranks],
        "Reduce": at_root(r, float(total)),
        "Allreduce": float(total),
    } for r in ranks]


@pytest.mark.parametrize("sites,hps", [(2, 2), (3, 3), (2, 1), (4, 2)])
def test_flat_vs_aware_identical_for_every_root(sites, hps):
    """Every collective, every root: both modes match the oracle (and
    therefore each other)."""
    for aware in (False, True):
        rt, site_hosts = _grid(sites, hps)
        world = create_world(rt, "w", _procs(rt, site_hosts),
                             coll=CollTuning(aware=aware))
        for root in range(sites * hps):
            threads = spmd(world, _all_collectives, root)
            rt.kernel.run()
            for t in threads:
                assert not t.alive and t.exc is None, \
                    f"root={root} {t.name}: {t.exc!r}"
            assert [t.result for t in threads] == \
                _expected(root, sites * hps), f"aware={aware} root={root}"
        rt.shutdown()


def test_single_site_group_keeps_flat_path():
    """A one-site group must not engage the hierarchy at all — same
    messages, same circuits, byte-identical observable traffic."""
    recs = []
    for aware in (False, True):
        rt, site_hosts = _grid(1, 4)
        rec = rt.observe(TraceRecorder())
        _, results = _run(rt, _procs(rt, site_hosts), _all_collectives,
                          1, aware=aware)
        recs.append((results,
                     rec.counters,
                     [(f.src, f.dst, f.nbytes, f.fabric)
                      for f in rec.flow_records()]))
        rt.shutdown()
    assert recs[0] == recs[1]
    assert "mpi.wan_crossings" not in recs[0][1]


def test_bcast_crosses_wan_exactly_sites_minus_one():
    for sites, hps in ((2, 3), (4, 2)):
        rt, site_hosts = _grid(sites, hps)
        procs = _procs(rt, site_hosts)

        def body(proc, comm):
            comm.bcast(bytes(4096) if comm.rank == 0 else None, root=0)

        world, _ = _run(rt, procs, body, aware=True)
        stats = world.comm(0).coll_stats
        assert stats.wan_crossings == sites - 1
        assert stats.wan_bytes["bcast"] == pytest.approx(
            (sites - 1) * len(__import__("pickle").dumps(bytes(4096))))
        rt.shutdown()


def test_flat_mode_crosses_more_and_both_modes_count():
    """The comparison the bench publishes: both modes maintain the
    counters; aware crosses strictly less on a multi-site group."""
    rt, site_hosts = _grid(2, 2)

    def bcast(proc, comm):
        assert not comm.coll_aware
        comm.bcast(b"x" if comm.rank == 0 else None, root=0)

    world, _ = _run(rt, _procs(rt, site_hosts), bcast, aware=False)
    # flat 2x2 bcast from rank 0: edges 0->1 (intra), 0->2, 1->3 cross
    assert world.comm(0).coll_stats.wan_crossings == 2
    rt.shutdown()

    xings = {}
    for aware in (False, True):
        rt, site_hosts = _grid(3, 3)
        procs = _procs(rt, site_hosts)

        def body(proc, comm):
            comm.bcast(b"x" * 1024 if comm.rank == 0 else None, root=0)
            comm.allreduce(comm.rank, SUM)

        world, _ = _run(rt, procs, body, aware=aware)
        xings[aware] = world.comm(0).coll_stats.wan_crossings
        rt.shutdown()
    assert 0 < xings[True] < xings[False]


def test_obs_counters_emitted_only_with_monitor():
    rt, site_hosts = _grid(2, 2)
    rec = rt.observe(TraceRecorder())
    procs = _procs(rt, site_hosts)

    def body(proc, comm):
        comm.bcast(b"payload" if comm.rank == 0 else None, root=0)

    world, _ = _run(rt, procs, body, aware=True)
    assert rec.counters["mpi.wan_crossings"] == 1.0
    assert rec.counters["mpi.wan_bytes.bcast"] > 0
    rt.shutdown()


def test_intra_site_edges_ride_the_site_san():
    """Aware mode's intra-site tree edges go over a per-site subcircuit
    whose fabric the selector picks — the site SAN, not the WAN."""
    rt, site_hosts = _grid(2, 3)
    rec = rt.observe(TraceRecorder())
    procs = _procs(rt, site_hosts)
    payload = bytes(1 << 16)

    def body(proc, comm):
        comm.bcast(payload if comm.rank == 0 else None, root=0)

    _run(rt, procs, body, aware=True)
    fabrics = {f.fabric for f in rec.flow_records() if f.nbytes > 4096}
    assert "g0-san" in fabrics and "g1-san" in fabrics
    wan_flows = [f for f in rec.flow_records()
                 if f.fabric == "g-wan" and f.nbytes > 4096]
    assert len(wan_flows) == 1  # the single leader-to-leader crossing
    rt.shutdown()


def test_non_contiguous_sites_still_correct():
    """Interleaved rank placement (sites are not contiguous rank
    blocks): reduce falls back to the one-site view, and every
    collective still matches the oracle."""
    for aware in (False, True):
        rt, site_hosts = _grid(3, 2)
        procs = _procs(rt, site_hosts, order="interleaved")
        _, results = _run(rt, procs, _all_collectives, 2, aware=aware)
        assert results == _expected(2, len(procs))
        rt.shutdown()


def test_non_power_of_two_and_uneven_roots():
    for aware in (False, True):
        rt, site_hosts = _grid(3, 3)
        procs = _procs(rt, site_hosts)
        _, results = _run(rt, procs, _all_collectives, 5, aware=aware)
        assert results == _expected(5, len(procs))
        rt.shutdown()


def test_alltoall_aggregates_through_leaders():
    """Cross-site payloads travel as one aggregate per (source site,
    destination site) pair, and every payload still arrives."""
    rt, site_hosts = _grid(3, 2)
    procs = _procs(rt, site_hosts)

    def body(proc, comm):
        return comm.alltoall([(comm.rank, d) for d in range(comm.size)])

    world, results = _run(rt, procs, body, aware=True)
    n = len(procs)
    assert results == [[(s, d) for s in range(n)] for d in range(n)]
    assert world.comm(0).coll_stats.wan_crossings == 3 * 2
    rt.shutdown()


def test_split_inherits_tuning_and_subgroup_hierarchy():
    rt, site_hosts = _grid(2, 3)
    procs = _procs(rt, site_hosts)

    def body(proc, comm):
        # odd/even split: both halves still span the two sites
        sub = comm.split(color=comm.rank % 2, key=comm.rank)
        val = sub.allreduce(sub.rank, SUM)
        return val, sub.coll_aware, sub.coll_stats.wan_crossings > 0

    _, results = _run(rt, procs, body, aware=True)
    for val, aware, crossed in results:
        assert val == sum(range(3))
        assert aware and crossed
    rt.shutdown()


def test_wan_failure_mid_collective_fails_both_modes():
    """Kill the destination site's router-core cable while the 8 MiB
    broadcast is crossing it: in both modes the sending leader edge is
    rank 0 -> rank 2, and in both modes that sender observes the
    failure (TransferError mid-flight) while the collective as a whole
    never completes successfully anywhere."""
    errs = {}
    for aware in (False, True):
        rt, site_hosts = _grid(2, 2)
        procs = _procs(rt, site_hosts)
        payload = bytes(8 << 20)
        out = {}

        def body(proc, comm):
            try:
                comm.bcast(payload if comm.rank == 0 else None, root=0)
            except (TransferError, NoRouteError) as e:
                out[comm.rank] = type(e).__name__
                return "failed"
            return "ok"

        def saboteur(proc):
            proc.sleep(1.0)  # the 0->2 crossing is in flight by now
            wan = rt.topology.fabrics["g-wan"]
            for a, b in (("g-wan-core", "g-wan-r1"),
                         ("g-wan-r1", "g-wan-core")):
                rt.network.fail_link(wan.link(a, b))
            rt.topology.set_link_state("g-wan", "g-wan-r1",
                                       "g-wan-core", up=False)

        world = create_world(rt, "w", procs,
                             coll=CollTuning(aware=aware))
        threads = spmd(world, body)
        procs[0].spawn(saboteur, name="saboteur")
        rt.kernel.run()
        finished = {i: t.result for i, t in enumerate(threads)
                    if not t.alive and t.exc is None}
        assert "ok" not in [finished.get(2), finished.get(3)], \
            "site 1 completed despite the dead WAN link"
        errs[aware] = out.get(0)
        rt.shutdown()
    assert errs[False] == errs[True] == "TransferError"
