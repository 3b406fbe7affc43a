"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics: rounds of a fixed number
of closed-loop ops, each round on a freshly built instance, until
``--seconds`` have passed; set-up is timed once per round (at least 3-5
times) and its median reported.  ``--trace 1`` runs one round untraced
and the same round with the per-layer wall profiler attached, and prints
the per-layer split, its coverage and the tracing overhead; on
``pingpong`` and ``coupling`` it also runs the round unpinned once and
notes the unpinned-over-pinned wall ratio.  ``--workload all`` runs
every workload in turn, each in its own process.

The process pins itself to one core, chosen afresh before each round
(see :class:`Pinning`).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced run are written to ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: the seed whose virtual-clock digests are recorded in digests.json
DEFAULT_SEED = 1
OUT_DIR = Path(".perfbench")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MiB"))

PER_LAYER = (
    ("sim.events", "count"), ("sim.events_skipped", "count"),
    ("sim.switches", "count"), ("sim.timer_fires", "count"),
    ("sim.self_s", "s"),
    ("net.self_s", "s"), ("net.solver_solves", "count"),
    ("net.solver_iterations", "count"),
    ("net.solver_flows_resolved", "count"), ("net.timer_reuses", "count"),
    ("net.flows_completed", "count"), ("net.admit_s", "s"),
    ("net.route_cache_hit_ratio", "ratio"),
    ("net.route_cache_lookups", "count"),
    ("padicotm.abstraction.msgs", "count"),
    ("padicotm.arbitration.msgs", "count"),
    ("padicotm.driver_bytes", "bytes"),
    ("padicotm.abstraction.self_s", "s"),
    ("padicotm.arbitration.self_s", "s"),
    ("padicotm.personality.self_s", "s"),
    ("corba.requests", "count"), ("corba.self_s", "s"),
    ("corba.copied_bytes", "bytes"), ("corba.referenced_bytes", "bytes"),
    ("corba.copy_ratio", "ratio"),
    ("mpi.calls", "count"), ("mpi.self_s", "s"),
    ("mpi.wan_crossings", "count"), ("mpi.wan_bytes", "bytes"),
    ("mpi.copied_bytes", "bytes"),
    ("core.plans_built", "count"), ("core.plan_s", "s"),
    ("core.plans_per_call", "ratio"), ("core.self_s", "s"),
    ("core.redistribution_bytes", "bytes"), ("core.copied_bytes", "bytes"),
    ("app.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.coverage", "ratio"),
    ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
)

WORKLOAD_NAMES = ("pingpong", "gridccm-absorb", "grid-churn", "coupling")

#: workloads whose traced run also notes the unpinned/pinned wall ratio
PIN_NOTE_WORKLOADS = ("pingpong", "coupling")


def _import_program():
    """Put the program's sources on the path; exit 2 when absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------

class Pinning:
    """Keeps this thread, and every thread it starts, on one core.

    Before each round :meth:`pin` moves the thread to the allowed core
    that runs the calibration loop fastest at that moment.  On a virtual
    machine one virtual core can run at half the speed of another for
    minutes, while the host shares its physical core with other work,
    and which core that is changes over time; choosing per round keeps
    that out of the figures.  A round's simulated processes are
    created after the choice and inherit it.
    """

    def __init__(self) -> None:
        self.allowed = os.sched_getaffinity(0)
        #: core -> times :meth:`pin` chose it
        self.rounds_on: dict[int, int] = {}
        self.core = self.pin()

    def pin(self) -> int:
        scores = {}
        for core in sorted(self.allowed):
            os.sched_setaffinity(0, {core})
            scores[core] = calibration_score(rounds=1)
        self.core = max(scores, key=scores.get)
        os.sched_setaffinity(0, {self.core})
        self.rounds_on[self.core] = self.rounds_on.get(self.core, 0) + 1
        return self.core

    def release(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def calibration_score(rounds: int = 5) -> float:
    """Median millions of simple interpreter loop steps per second."""
    rates = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i & 7
        rates.append(0.2 / (time.perf_counter() - t0))
    return statistics.median(rates)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_meta(pinning: Pinning) -> dict:
    import numpy
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": sorted(pinning.allowed),
        "pinned_to": pinning.core,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_mloops_per_s": round(calibration_score(), 3),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples
    beyond it: (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


#: ops per tail window: a run's tail is the median of the tails of its
#: windows of this many consecutive ops, so a single stall in a long run
#: (tens of thousands of ping-pongs) does not become the reported tail
TAIL_WINDOW = 1000


def windowed_tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """(median window tail, its percentile, ops per window, windows);
    one window of every op when there are fewer than TAIL_WINDOW."""
    n = len(latencies)
    starts = range(0, n - TAIL_WINDOW + 1, TAIL_WINDOW) \
        if n >= TAIL_WINDOW else [0]
    width = TAIL_WINDOW if n >= TAIL_WINDOW else n
    tails = [tail(latencies[i:i + width]) for i in starts]
    return (statistics.median(t[0] for t in tails), tails[0][1], width,
            len(tails))


def _wait_for_sim_threads(timeout: float = 10.0) -> None:
    """Join the simulated processes' OS threads left by a shut-down
    runtime, so no thread outlives the run that started it."""
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and \
                thread.name.startswith("sim:"):
            thread.join(max(0.0, deadline - time.monotonic()))


def _release_memory() -> None:
    """Collect the finished instance and hand freed heap back to the OS,
    so each instance's peak memory stands on its own (the simulated
    processes' threads spread allocations over many malloc arenas)."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _load_libc():
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        return libc
    except (OSError, AttributeError):
        return None


_LIBC = _load_libc()


def run_instance(wl, name: str, seed: int, scale: dict, pacer, prof=None):
    """Build and run one instance; a profiler, if given, covers exactly
    the instance (set-up, ops and the instance's own checks)."""
    prof = prof or wl.NULL_PROFILER
    prof.start()
    try:
        return wl.WORKLOADS[name](seed, scale, pacer, prof)
    finally:
        prof.stop()
        _wait_for_sim_threads()
        _release_memory()


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def measure(wl, name: str, seed: int, seconds: float, scale: dict,
            pinning: Pinning, log=print) -> dict:
    """Untraced run: rounds of ``round_ops`` ops on fresh instances until
    ``seconds`` have passed (at least one round), plus set-up-only
    instances until ``setups`` set-up samples exist."""
    rounds = scale["round_ops"]
    t_end = time.perf_counter() + seconds
    outs = []
    while not outs or time.perf_counter() < t_end:
        pinning.pin()
        outs.append(run_instance(wl, name, seed, scale,
                                 wl.Pacer(len(outs) * rounds, rounds)))
    setups = [out.setup_s for out in outs]
    while len(setups) < scale["setups"]:
        pinning.pin()
        setups.append(run_instance(wl, name, seed, scale,
                                   wl.Pacer(0, 0)).setup_s)
    lat = [x for out in outs for x in out.pacer.latencies()]
    if not lat:
        raise SystemExit(f"perfbench: no {name} op completed")
    value, pct, width, windows = windowed_tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(out.pacer.timed_wall() for out in outs),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    log(f"  {len(outs)} rounds of {rounds} ops; set-up measured "
        f"{len(setups)} times: " + ", ".join(f"{s:.4f}" for s in setups)
        + " s")
    log(f"  op_tail_ms is p{pct:.2f} of {width} ops"
        + (" (10 beyond it)" if width > 10 else " (the maximum)")
        + f", median over {windows} window(s) of {len(lat)} ops")
    return {"metrics": metrics,
            "attempted": sum(out.attempted for out in outs),
            "failed": sum(out.failed for out in outs),
            "digests": [outs[0].digest]}


def traced(wl, name: str, seed: int, scale: dict, log, pinning: Pinning,
           spans_path: Path) -> dict:
    """One round untraced, the same round traced, and (pingpong,
    coupling) the same round unpinned for the pinning note."""
    from wallprof import WallProfiler

    n_ops = scale["round_ops"]
    pinning.pin()
    base = run_instance(wl, name, seed, scale, wl.Pacer(0, n_ops))
    prof = WallProfiler()
    pinning.pin()
    out = run_instance(wl, name, seed, scale, wl.Pacer(0, n_ops), prof)
    attempted = base.attempted + out.attempted
    failed = base.failed + out.failed
    if base.digest != out.digest or base.digest is None:
        log(f"  DIGEST MISMATCH traced {out.digest} untraced {base.digest}")
        failed += out.attempted
    untraced_rate = len(base.pacer.latencies()) / base.pacer.timed_wall()
    traced_rate = len(out.pacer.latencies()) / out.pacer.timed_wall()
    metrics = layer_metrics(prof, out, untraced_rate, traced_rate)
    log(f"  traced {n_ops} ops: digest {out.digest} (untraced "
        f"{base.digest}); coverage {metrics['trace.coverage']:.4f} of "
        f"{prof.wall_s:.3f} s")
    log("  host-time split (s): " + ", ".join(
        f"{layer} {prof.self_s[layer]:.4f}" for layer in prof.self_s))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    prof.write_spans(str(spans_path))
    log(f"  {len(prof.spans)} spans written to {spans_path}"
        + (f" ({prof.spans_dropped} dropped)" if prof.spans_dropped else ""))
    if name in PIN_NOTE_WORKLOADS and len(pinning.allowed) > 1:
        pinning.release()
        try:
            free = run_instance(wl, name, seed, scale, wl.Pacer(0, n_ops))
        finally:
            pinning.pin()
        attempted += free.attempted
        failed += free.failed
        ratio = free.pacer.timed_wall() / base.pacer.timed_wall()
        log(f"  note: unpinned/pinned wall ratio over {n_ops} ops = "
            f"{ratio:.3f} (not gated).  Known defect: the thread "
            f"backend's semaphore handoff bounces between cores when "
            f"unpinned; pinning hides it, a fix belongs in the program.")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "digests": [base.digest, out.digest]}


def layer_metrics(prof, out, untraced_rate: float,
                  traced_rate: float) -> dict:
    c, k = prof.counters, out.counters
    copied = c.get("wire.copied_bytes.corba", 0.0)
    referenced = c.get("wire.referenced_bytes.corba", 0.0)
    calls = prof.name_starts.get("gridccm.call", 0)
    plans = c.get("core.plan_s.calls", 0.0)
    lookups = k["net.route_cache_lookups"]
    m = {
        "sim.events": k["sim.events"],
        "sim.events_skipped": k["sim.events_skipped"],
        "sim.switches": prof.switches,
        "sim.timer_fires": prof.timer_fires,
        "net.solver_solves": k["net.solver_solves"],
        "net.solver_iterations": k["net.solver_iterations"],
        "net.solver_flows_resolved": k["net.solver_flows_resolved"],
        "net.timer_reuses": k["net.timer_reuses"],
        "net.flows_completed": k["net.flows_completed"],
        "net.admit_s": c.get("net.admit_s", 0.0),
        "net.route_cache_hit_ratio": (k["net.route_cache_hits"] / lookups
                                      if lookups else 0.0),
        "net.route_cache_lookups": lookups,
        "padicotm.abstraction.msgs":
            prof.layer_starts("padicotm.abstraction"),
        "padicotm.arbitration.msgs":
            prof.layer_starts("padicotm.arbitration"),
        "padicotm.driver_bytes": c.get("driver.send_bytes", 0.0),
        "corba.requests": c.get("giop.requests", 0.0),
        "corba.copied_bytes": copied,
        "corba.referenced_bytes": referenced,
        "corba.copy_ratio": (copied / (copied + referenced)
                             if copied + referenced else 0.0),
        "mpi.calls": prof.mpi_calls,
        "mpi.wan_crossings": c.get("mpi.wan_crossings", 0.0),
        "mpi.wan_bytes": sum(v for n, v in c.items()
                             if n.startswith("mpi.wan_bytes.")),
        "mpi.copied_bytes": c.get("wire.copied_bytes.mpi", 0.0),
        "core.plans_built": plans,
        "core.plan_s": c.get("core.plan_s", 0.0),
        "core.plans_per_call": plans / calls if calls else 0.0,
        "core.redistribution_bytes": c.get("gridccm.redistribution_bytes",
                                           0.0),
        "core.copied_bytes": c.get("wire.copied_bytes.gridccm", 0.0),
        "trace.wall_s": prof.wall_s,
        "trace.coverage": prof.coverage,
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_ops_per_s": traced_rate - untraced_rate,
    }
    for layer, spent in prof.self_s.items():
        m[f"{layer}.self_s"] = spent
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale_name: str = "full", expected: dict | None = None,
        log=print) -> dict:
    """Run one workload; returns the result object printed last."""
    wl = _import_program()
    pinning = Pinning()
    try:
        return _run_pinned(wl, workload, seed, seconds, trace, scale_name,
                           expected, log, pinning)
    finally:
        pinning.release()


def _run_pinned(wl, workload: str, seed: int, seconds: float, trace: bool,
                scale_name: str, expected: dict | None, log,
                pinning: Pinning) -> dict:
    meta = machine_meta(pinning)
    scale = wl.SCALES[workload][scale_name]
    if expected is None and seed == DEFAULT_SEED and scale_name == "full":
        expected = load_digests()
    units = dict(PER_LAYER if trace else END_TO_END)
    log(f"workload {workload} seed {seed} trace {int(trace)} "
        f"scale {scale_name}")
    if trace:
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        res = traced(wl, workload, seed, scale, log, pinning, spans)
    else:
        res = measure(wl, workload, seed, seconds, scale, pinning, log)
    failed = res["failed"]
    want = (expected or {}).get(workload)
    for digest in res["digests"]:
        log(f"  virtual-clock digest {digest}"
            + ("" if want is None else
               " (matches the recorded value)" if digest == want
               else f" MISMATCH: recorded {want}"))
        if want is not None and digest != want:
            # a digest covers the first digest_ops ops
            failed = min(res["attempted"], failed + scale["digest_ops"])
    metrics = {}
    for metric, value in res["metrics"].items():
        log(f"  {metric:28s} {value:.6g} {units[metric]}")
        metrics[metric] = {"value": value, "unit": units[metric]}
    log(f"  {'error_rate':28s} {failed / res['attempted']:.6g} share "
        f"({failed} of {res['attempted']} ops failed)")
    meta["rounds_per_core"] = pinning.rounds_on
    log("# meta " + json.dumps(meta, sort_keys=True))
    return {"correct": failed == 0, "attempted": res["attempted"],
            "failed": failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> dict:
    """``--workload all``: every workload in its own process, one after
    another (so peak memory stays per workload); metrics are prefixed
    with the workload's name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {name} failed "
                             f"(exit {proc.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
