"""Run the reproduction benches and write ``BENCH_padico.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.run --quick --out BENCH_padico.json
    PYTHONPATH=src python -m benchmarks.run --wallclock --out BENCH_wallclock.json

``--quick`` trims the message-size sweep and the GridCCM node counts so
the whole run fits in a CI smoke step; the full sweep regenerates every
series behind Figure 7, Figure 8 and the §4.4 text.  All numbers are
virtual-clock quantities, so the output is bit-for-bit reproducible —
the document carries no wall-clock timestamps on purpose.

``--wallclock`` switches to the :mod:`benchmarks.wallclock` suite
instead: simulator *wall-clock* throughput (kernel events/s, concurrent
flow churn, CDR MB/s) under the machine-varying ``padico-wallclock/1``
schema.  The default output path follows the mode.

``--topology-scaling`` runs just the grid-scale
``wallclock.topology.scaling`` series (hierarchical site-sharded solver
on :func:`repro.net.build_grid` topologies up to 10k hosts / 100k
flows) and writes it under the wall-clock schema — the CI smoke slice
is ``make bench-topology``.

``--collectives`` runs just the ``wallclock.collectives`` series (flat
vs topology-aware MPI collectives on grids up to 8 sites, asserting the
aware replay gives the same results as the flat one) — the CI smoke slice
is ``make bench-collectives``.  ``--gate-wan-crossings`` additionally
fails the run unless the aware bcast crossed the WAN exactly sites − 1
times per call at every measured grid size.

``--gate-backend-speedup N`` (wall-clock mode only) fails the run
unless the fastest non-thread switch backend clears ``N``x the thread
backend on the ``wallclock.kernel.switch`` series measured in the same
run.  CI smoke uses a conservative bar (quick sizes on shared runners
are noisy); regenerating the committed full document uses the
acceptance bar of 10.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.harness import (
    FIG7_SIZES,
    concurrent_sharing_mbps,
    corba_bandwidth_curve,
    corba_one_way_latency_us,
    gridccm_n_to_n,
    mpi_bandwidth_curve,
    mpi_one_way_latency_us,
    proxy_vs_direct,
)
from benchmarks.wallclock import (
    bench_collectives,
    bench_topology_scaling,
    collect_wallclock,
    document_meta,
)
from repro.corba import MICO, OMNIORB3, OMNIORB4, ORBACUS
from repro.obs import WALLCLOCK_SCHEMA, BenchResult, write_bench_json

QUICK_SIZES = (1024, 1024 * 1024)
QUICK_NODES = (1, 2)
FULL_NODES = (1, 2, 4, 8)


def collect(quick: bool, log=lambda msg: None) -> list[BenchResult]:
    sizes = QUICK_SIZES if quick else FIG7_SIZES
    profiles = (OMNIORB4, MICO) if quick \
        else (OMNIORB3, OMNIORB4, MICO, ORBACUS)
    results: list[BenchResult] = []

    for profile in profiles:
        results.append(corba_bandwidth_curve(profile, sizes))
        log(results[-1].render())
    results.append(corba_bandwidth_curve(OMNIORB4, sizes, lan_only=True))
    log(results[-1].render())
    results.append(mpi_bandwidth_curve(sizes))
    log(results[-1].render())

    results.append(BenchResult(
        name="corba.latency.omniorb4", unit="us",
        points=(("one_way", corba_one_way_latency_us(OMNIORB4)),),
        meta={"profile": OMNIORB4.key}))
    log(results[-1].render())
    results.append(BenchResult(
        name="mpi.latency.mpich-madeleine", unit="us",
        points=(("one_way", mpi_one_way_latency_us()),),
        meta={"profile": "mpich-madeleine"}))
    log(results[-1].render())

    results.append(concurrent_sharing_mbps())
    log(results[-1].render())

    for n in (QUICK_NODES if quick else FULL_NODES):
        results.append(gridccm_n_to_n(n))
        log(results[-1].render())

    if not quick:
        results.append(proxy_vs_direct())
        log(results[-1].render())
    return results


def _check_wan_crossings(results: list[BenchResult]) -> list[str]:
    """MPICH-G2 invariant on the ``wallclock.collectives`` series: a
    topology-aware bcast must cross the WAN exactly sites - 1 times per
    call (one leader-to-leader edge per non-root site, nothing else).
    Returns a list of violations (empty = gate green)."""
    series = next((r for r in results
                   if r.name == "wallclock.collectives"), None)
    if series is None:
        return ["no wallclock.collectives series in this run"]
    bad = []
    for key, value in series.meta.items():
        if not key.startswith("wan_crossings_bcast_aware_S"):
            continue
        sites = int(key.rsplit("S", 1)[1])
        if value != sites - 1:
            bad.append(f"{key} = {value}, expected {sites - 1}")
    if not any(k.startswith("wan_crossings_bcast_aware_S")
               for k in series.meta):
        bad.append("no aware-bcast crossing counts in the series meta")
    return bad


def _backend_speedup(results: list[BenchResult]) -> float | None:
    """Best non-thread rate over the thread rate on the
    ``wallclock.kernel.switch`` series; None if thread is the only
    backend measured."""
    series = next(r for r in results
                  if r.name == "wallclock.kernel.switch")
    rates = dict(series.points)
    others = [rate for name, rate in rates.items() if name != "thread"]
    if not others:
        return None
    return max(others) / rates["thread"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.run",
        description="regenerate the paper-reproduction bench document")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_padico.json, or "
                             "BENCH_wallclock.json with --wallclock)")
    parser.add_argument("--quick", action="store_true",
                        help="trimmed sweep for CI smoke runs")
    parser.add_argument("--wallclock", action="store_true",
                        help="run the wall-clock suite (padico-wallclock/1) "
                             "instead of the virtual-clock sweep")
    parser.add_argument("--topology-scaling", action="store_true",
                        help="run only the wallclock.topology.scaling "
                             "series (grid-scale hierarchical-solver "
                             "bench); implies the wall-clock schema")
    parser.add_argument("--gate-backend-speedup", type=float, default=None,
                        metavar="N",
                        help="with --wallclock: fail unless the fastest "
                             "non-thread switch backend reaches N x the "
                             "thread backend on wallclock.kernel.switch")
    parser.add_argument("--collectives", action="store_true",
                        help="run only the wallclock.collectives series "
                             "(flat vs topology-aware MPI collectives on "
                             "build_grid); implies the wall-clock schema")
    parser.add_argument("--gate-wan-crossings", action="store_true",
                        help="with --collectives or --wallclock: fail "
                             "unless the topology-aware bcast crossed the "
                             "WAN exactly sites - 1 times per call at "
                             "every measured grid size")
    args = parser.parse_args(argv)

    if args.gate_backend_speedup is not None and not args.wallclock:
        parser.error("--gate-backend-speedup requires --wallclock")
    if args.topology_scaling and args.wallclock:
        parser.error("--topology-scaling already implies the wall-clock "
                     "schema; drop --wallclock")
    if args.collectives and (args.wallclock or args.topology_scaling):
        parser.error("--collectives already implies the wall-clock "
                     "schema; drop the other mode flags")
    if args.gate_wan_crossings and not (args.collectives or args.wallclock):
        parser.error("--gate-wan-crossings requires --collectives or "
                     "--wallclock")

    if args.collectives:
        out = args.out or "BENCH_collectives.json"
        results = [bench_collectives(args.quick)]
        print(results[-1].render())
        write_bench_json(out, results, meta=document_meta(args.quick),
                         schema=WALLCLOCK_SCHEMA)
    elif args.topology_scaling:
        out = args.out or "BENCH_topology.json"
        results = [bench_topology_scaling(args.quick)]
        print(results[-1].render())
        write_bench_json(out, results, meta=document_meta(args.quick),
                         schema=WALLCLOCK_SCHEMA)
    elif args.wallclock:
        out = args.out or "BENCH_wallclock.json"
        results = collect_wallclock(args.quick, log=print)
        write_bench_json(out, results, meta=document_meta(args.quick),
                         schema=WALLCLOCK_SCHEMA)
        if args.gate_backend_speedup is not None:
            speedup = _backend_speedup(results)
            bar = args.gate_backend_speedup
            if speedup is None:
                print("backend-speedup gate: only the thread backend is "
                      "available; nothing to compare")
            elif speedup < bar:
                print(f"backend-speedup gate FAILED: best non-thread "
                      f"backend is {speedup:.1f}x thread (< {bar:g}x)")
                return 1
            else:
                print(f"backend-speedup gate: {speedup:.1f}x thread "
                      f"(>= {bar:g}x)")
    else:
        out = args.out or "BENCH_padico.json"
        results = collect(args.quick, log=print)
        write_bench_json(out, results, meta={
            "suite": "padico-repro",
            "mode": "quick" if args.quick else "full",
            "clock": "virtual",
        })
    if args.gate_wan_crossings:
        violations = _check_wan_crossings(results)
        if violations:
            for v in violations:
                print(f"wan-crossings gate FAILED: {v}")
            return 1
        print("wan-crossings gate: aware bcast crossed the WAN exactly "
              "sites - 1 times at every measured grid size")
    print(f"wrote {len(results)} series to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
