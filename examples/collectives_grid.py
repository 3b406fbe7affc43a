#!/usr/bin/env python
"""Topology-aware MPI collectives on a multi-site grid.

MPICH-G2's two-level scheme on the reproduction's grid topology: each
communicator resolves its ranks to topology sites, elects one leader
per site, and routes every collective through intra-site binomial
subtrees glued by a leaders-only WAN tree — so a broadcast crosses the
expensive wide-area links exactly ``sites - 1`` times instead of once
per cross-site tree edge.

The same workload runs twice, flat (``CollTuning(aware=False)``: the
same schedule over a one-site view, i.e. rank-order binomial trees) and
topology-aware (the default), asserts
the results are identical, and prints the virtual-clock time and
WAN-crossing count of each mode.

Run:  python examples/collectives_grid.py
"""

import numpy as np

from repro.mpi import SUM, CollTuning, create_world, spmd
from repro.net import build_grid
from repro.net.devices import MYRINET_2000
from repro.padicotm import PadicoRuntime

SITES = 4
HOSTS_PER_SITE = 4
PAYLOAD = 1024 * 1024  # 1 MiB


def run(aware: bool) -> dict:
    topo, site_hosts = build_grid(sites=SITES,
                                  hosts_per_site=HOSTS_PER_SITE,
                                  san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(h, f"p-{h.name}")
             for hosts in site_hosts.values() for h in hosts]
    world = create_world(rt, "grid", procs, coll=CollTuning(aware=aware))
    out: dict = {}

    def main(proc, comm):
        blob = bytes(PAYLOAD) if comm.rank == 0 else None
        got = comm.bcast(blob, root=0)
        total = comm.allreduce(np.full(PAYLOAD // 8, comm.rank + 1.0), SUM)
        comm.barrier()
        if comm.rank == 0:
            out["bcast_ok"] = len(got) == PAYLOAD
            out["allreduce"] = float(total[0])
            out["time"] = comm.Wtime()
            out["wan_crossings"] = comm.coll_stats.wan_crossings
            out["hierarchical"] = comm.coll_aware

    spmd(world, main)
    rt.run()
    rt.shutdown()
    return out


def main() -> None:
    flat = run(aware=False)
    hier = run(aware=True)
    assert flat["bcast_ok"] and hier["bcast_ok"]
    assert flat["allreduce"] == hier["allreduce"]  # bit-identical values
    n = SITES * HOSTS_PER_SITE
    print(f"{SITES} sites x {HOSTS_PER_SITE} hosts ({n} ranks), "
          f"1 MiB bcast + allreduce + barrier")
    print(f"  flat  tree: {flat['time']:8.3f} sim-s, "
          f"{flat['wan_crossings']:3d} WAN crossings")
    print(f"  aware tree: {hier['time']:8.3f} sim-s, "
          f"{hier['wan_crossings']:3d} WAN crossings")
    print(f"  speedup {flat['time'] / hier['time']:.2f}x, results identical")


if __name__ == "__main__":
    main()
