"""Flow-level network simulation with max-min fair bandwidth sharing.

A :class:`Flow` is one in-flight message occupying a route (a list of
simplex :class:`~repro.net.topology.Link`).  Whenever the set of active
flows changes, every flow's progress is advanced at its previous rate
and rates are re-solved with the classic *progressive filling* (max-min
fairness) algorithm: repeatedly find the most-loaded link, give each
flow crossing it an equal share of that link's remaining capacity, fix
those flows, and subtract what they consume elsewhere.

This is the mechanism behind the paper's concurrency experiment
("Concurrent benchmarks (CORBA and MPI at the same time) show the
bandwidth is efficiently shared: each gets 120 MB/s"): two flows across
one 240 MB/s Myrinet host link each receive exactly half.

The flow table.  :class:`FlowNetwork` keeps each live flow as one row
of typed columns, in admission (``Flow.seq``) order: remaining bytes,
rate, seq, shard code and route length, plus one flat column of
interned link ids holding the routes back to back.  Every per-event
step runs over whole columns — numpy ops on zero-copy views once the
table is large, plain loops up to ``_SCALAR_ROWS`` rows — and performs
exactly the float operations of the per-flow loop it replaced, in the
same order, so results are bit-identical:

* *advance*: ``remaining -= rate * dt``, and the moved bytes credited
  to a per-link array by ``np.add.at`` over the route column
  (unbuffered: flow by flow, link by link).  It stays *eager*, since
  crediting lazily would change ``remaining`` in the last bits;
* *reschedule*: a masked ``min(remaining / rate)``;
* *completion*: a ``remaining <= _EPS_BYTES`` mask;
* *departure*: order-preserving deletion (never swap-remove), so every
  summation order above stays the admission order.

``Flow.remaining``/``.rate`` read the table while the flow is live and
are written back to the flow when it departs.

Re-solving (see docs/PERFORMANCE.md).  Flows in different
*link-connected components* share no link, so progressive filling
never couples them: on every flow add/remove only the touched
component is re-solved, through a persistent link→flows index.  The
component-restricted fill performs bit-for-bit the float operations of
the full fill restricted to it (same flow order, link insertion order
and subtraction sequence), so incremental rates are *exactly* the
from-scratch ones; ``FlowNetwork(..., incremental=False)`` keeps the
full re-solve for differential testing.

At grid scale fabrics carry a ``site`` tag
(:class:`repro.net.topology.Fabric`).  A flow whose route stays inside
one site's fabrics belongs to that site's **shard**, everything else to
the site-less **coupling tier**.  A shard is a union of components, so
a dirty shard can be re-solved whole — its rows are one mask over the
shard column, no graph search — once it holds ``shard_threshold`` live
flows and the last component walked inside it spanned at least half
of it (a decaying estimate).  Subsets of ``vec_threshold`` flows or
more are solved by a numpy twin of the fill
(:func:`_progressive_fill_vec`) with the same shares, rounds and
subtraction sequence.  A coupling flow touching a site's fabrics
*taints* that shard, which then falls back to the component walk.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.net.topology import Link, Topology
from repro.sim.kernel import SimKernel, SimProcess, Timer

#: Residual byte count below which a flow is considered complete
#: (guards against floating-point drift in progress accounting).
_EPS_BYTES = 1e-6

#: tables of at most this many rows run the per-event steps as loops
#: over the columns (same float ops, same order): the loops cost about
#: 1 µs a row, numpy's calls about 18 µs in all, and they break even
#: near 18 rows (docs/PERFORMANCE.md, "One flow table")
_SCALAR_ROWS = 16

_flow_seq_key = attrgetter("seq")


class TransferError(RuntimeError):
    """A transfer failed mid-flight (link down, aborted)."""


class Flow:
    """One in-flight message on the network.

    While the flow is live, ``remaining`` and ``rate`` are read from the
    owning :class:`FlowNetwork`'s flow table; the network writes them
    back here when the flow departs.
    """

    __slots__ = ("route", "size", "waiter", "callback", "error", "done",
                 "start_time", "fid", "seq", "shard", "_remaining",
                 "_rate", "_net")

    def __init__(self, route: Sequence[Link], size: float,
                 waiter: SimProcess | None, callback: Callable | None,
                 start_time: float):
        self.route = list(route)
        self.size = float(size)
        self.waiter = waiter
        self.callback = callback
        self.error: Exception | None = None
        self.done = False
        self.start_time = start_time
        #: observability id; assigned only while a monitor is attached
        self.fid: int | None = None
        #: creation order within a FlowNetwork: the flow's row order in
        #: the table, so component re-solves can reproduce the full
        #: solve's iteration order exactly
        self.seq = 0
        #: site tag when every link on the route lives in fabrics of one
        #: site; ``None`` for wide-area / mixed routes (coupling tier)
        self.shard: str | None = None
        self._remaining = self.size
        self._rate = 0.0
        #: the network whose table holds this flow's row while it is live
        self._net: FlowNetwork | None = None

    @property
    def remaining(self) -> float:
        """Bytes still to transfer (as of the network's last advance)."""
        net = self._net
        if net is None:
            return self._remaining
        return net._remaining[net._row(self.seq)]

    @property
    def rate(self) -> float:
        """Current fair-share rate in bytes/s."""
        net = self._net
        if net is None:
            return self._rate
        return net._rates[net._row(self.seq)]

    @property
    def progress(self) -> float:
        """Fraction of the transfer completed, clamped to [0.0, 1.0]."""
        size = self.size
        if size <= 0.0:
            return 1.0
        frac = (size - self.remaining) / size
        if frac <= 0.0:
            return 0.0
        return frac if frac < 1.0 else 1.0

    def __repr__(self) -> str:
        # the sanitizer fingerprints reprs in bulk: keep the common
        # terminal states free of float formatting work
        if self.done:
            return (f"<Flow {self.size:.0f}B "
                    f"{'failed' if self.error is not None else 'done'}>")
        rate = self.rate
        if rate == 0.0:
            return f"<Flow {self.size:.0f}B remaining={self.remaining:.0f}>"
        return (f"<Flow {self.size:.0f}B remaining={self.remaining:.0f} "
                f"rate={rate/1e6:.1f}MB/s done={self.done}>")


def _progressive_fill(
        flows: Sequence[Flow]) -> tuple[dict[Flow, float], int]:
    """Core progressive-filling loop.

    Returns ``(rates, iterations)`` where ``rates`` assigns every input
    flow a rate and ``iterations`` counts bottleneck-fixing rounds (the
    quantity the incremental solver saves; exported via the
    ``net.maxmin.iterations`` obs counter).
    """
    link_flows: dict[Link, list[Flow]] = {}
    for f in flows:
        for link in f.route:
            link_flows.setdefault(link, []).append(f)

    capacity = {link: link.bandwidth for link in link_flows}
    unfixed_count = {link: len(fl) for link, fl in link_flows.items()}
    rates: dict[Flow, float] = {}
    # insertion-ordered dict as a set: iteration below must not depend
    # on hash order, or the rates dict's order varies across runs
    unfixed = dict.fromkeys(flows)
    iterations = 0

    while unfixed:
        iterations += 1
        # bottleneck link: smallest equal-share among links with demand
        best_link = None
        best_share = None
        for link, count in unfixed_count.items():
            if count <= 0:
                continue
            share = max(capacity[link], 0.0) / count
            if best_share is None or share < best_share:
                best_share = share
                best_link = link
        if best_link is None:  # no flow crosses any link (empty routes)
            for f in unfixed:
                rates[f] = float("inf")
            break
        for f in link_flows[best_link]:
            if f not in unfixed:
                continue
            rates[f] = best_share
            unfixed.pop(f, None)
            for link in f.route:
                capacity[link] -= best_share
                unfixed_count[link] -= 1
    return rates, iterations


def _route_shard(route: Sequence[Link]) -> str | None:
    """Site tag owning every link of ``route``, or ``None``.

    ``None`` marks the coupling tier: wide-area routes (a link in an
    untagged fabric) and routes mixing two sites' fabrics.
    """
    shard: str | None = None
    for link in route:
        tag = link.fabric.site
        if tag is None:
            return None
        if shard is None:
            shard = tag
        elif tag != shard:
            return None
    return shard


def _progressive_fill_vec(
        lens: np.ndarray, gids: np.ndarray, bw: np.ndarray, n_ids: int,
        groups: Sequence[int] | None = None,
) -> tuple[np.ndarray, int]:
    """Vectorised progressive fill for large flow sets.

    The flows come as table columns: ``lens`` holds each route's length,
    ``gids`` the routes' interned link ids back to back (all below
    ``n_ids``), ``bw`` the matching bandwidths.  Returns ``(rates,
    iterations)``, one rate per flow.

    *Bit-for-bit* the computation of :func:`_progressive_fill`: the same
    bottleneck choices (ties break on the first link in insertion
    order, as ``np.argmin`` does), the same equal-share divisions and
    the same capacity subtractions (one round subtracts one share
    value, so the order inside ``np.subtract.at`` cannot matter) — but
    each round is a handful of numpy reductions instead of a Python
    scan over every link.

    ``groups`` (optional) declares the flows a concatenation of
    *link-disjoint* blocks of the given sizes (several dirty shards
    solved in one event).  First-appearance ranking gives each block a
    contiguous link range, so the rounds run per block over views: the
    same float ops, at O(block links) per round.
    """
    n = len(lens)
    inf = float("inf")
    total = int(lens.sum())
    if total == 0:  # no flow crosses any link (empty routes)
        return np.full(n, inf, dtype=np.float64), int(n > 0)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    # local link ids must follow *first-appearance* order (the scalar
    # fill's link insertion order, which is what ties break on).  A
    # reversed scatter records each id's first position (last write
    # wins, so writing positions back-to-front leaves the smallest),
    # and only the *present* ids get sorted
    first = np.full(n_ids, total, dtype=np.int64)
    first[gids[::-1]] = np.arange(total - 1, -1, -1, dtype=np.int64)
    present = np.flatnonzero(first < total)
    n_links = len(present)
    order = np.argsort(first[present], kind="stable")
    rank = np.empty(n_ids, dtype=np.intp)
    rank[present[order]] = np.arange(n_links, dtype=np.intp)
    local = rank[gids]
    cap = np.empty(n_links, dtype=np.float64)
    cap[local] = bw  # duplicate writes all carry the same bandwidth
    counts = np.bincount(local, minlength=n_links)
    cnt = counts.astype(np.int64)
    # flows grouped per link; the stable sort preserves subset order
    # within each group, matching the scalar fill's member lists (on
    # 16-bit keys it is a radix sort: O(E), not O(E log E))
    flow_of = np.repeat(np.arange(n, dtype=np.intp), lens)
    keyed = local.astype(np.int16) if n_links <= 1 << 15 else local
    grouped = flow_of[np.argsort(keyed, kind="stable")]
    bounds = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])

    shares = np.empty(n_links, dtype=np.float64)
    fixed = np.zeros(n, dtype=bool)
    rate_of = np.zeros(n, dtype=np.float64)
    iterations = 0
    if groups is None:
        groups = (n,)
    f_lo = 0
    l_lo = 0
    for gsize in groups:
        f_hi = f_lo + gsize
        e_lo, e_hi = int(offsets[f_lo]), int(offsets[f_hi])
        if e_hi == e_lo:  # block of route-less flows: uncapacitated
            rate_of[f_lo:f_hi] = inf
            iterations += 1
            f_lo = f_hi
            continue
        # first-appearance ranking gives each link-disjoint block the
        # contiguous rank range [l_lo, l_hi); rounds run on views of it
        l_hi = int(local[e_lo:e_hi].max()) + 1
        cap_b = cap[l_lo:l_hi]
        cnt_b = cnt[l_lo:l_hi]
        shares_b = shares[l_lo:l_hi]
        remaining = f_hi - f_lo
        while remaining:
            iterations += 1
            valid = cnt_b > 0
            shares_b.fill(inf)
            # max(cap, 0.0) keeps -0.0 (Python max semantics), so
            # compare strictly against 0.0 rather than clipping
            np.divide(np.where(cap_b < 0.0, 0.0, cap_b), cnt_b,
                      out=shares_b, where=valid)
            bi = int(np.argmin(shares_b))
            if not bool(valid[bi]):
                if not valid.any():
                    # only route-less flows remain: uncapacitated
                    unfixed = ~fixed[f_lo:f_hi]
                    rate_of[f_lo:f_hi][unfixed] = inf
                    break
                # every live share is inf (infinite-bandwidth links):
                # the scalar scan settles on the first live link
                # instead of the inf placeholder of a drained one
                bi = int(np.argmax(valid))
            best = float(shares_b[bi])
            gi = l_lo + bi
            mem = grouped[bounds[gi]:bounds[gi + 1]]
            newly = mem[~fixed[mem]]
            fixed[newly] = True
            rate_of[newly] = best
            # gather the newly-fixed flows' link rows — the
            # concatenation of ranges [offsets[fi], offsets[fi] +
            # lens[fi]) built with the cumsum range trick, no per-flow
            # Python loop.  Every grouped flow crosses >= 1 link, so
            # no zero-length range can corrupt the boundary steps.
            # subtract.at applies element-by-element (unbuffered), so
            # repeated hits on one link reproduce the scalar fill's
            # sequential same-value subtractions exactly.
            if len(newly) == 1:
                # churn rounds usually fix one straggler: its link rows
                # are a single contiguous slice, no range trick needed
                s0 = int(offsets[newly[0]])
                seg = local[s0:s0 + int(lens[newly[0]])]
            else:
                sel_start = offsets[newly]
                sel_len = lens[newly]
                step = np.ones(int(sel_len.sum()), dtype=np.int64)
                ends = np.cumsum(sel_len)
                step[0] = sel_start[0]
                step[ends[:-1]] = sel_start[1:] - sel_start[:-1] \
                    - sel_len[:-1] + 1
                seg = local[np.cumsum(step)]
            np.subtract.at(cap, seg, best)
            np.subtract.at(cnt, seg, 1)
            remaining -= len(newly)
        f_lo, l_lo = f_hi, l_hi
    return rate_of, iterations


def maxmin_rates(flows: Sequence[Flow]) -> dict[Flow, float]:
    """Progressive-filling max-min fair allocation.

    Each flow receives the largest rate such that no link capacity is
    exceeded and no flow can be increased without decreasing a flow with
    an equal or smaller rate.  Deterministic: ties broken by link
    insertion order.  The returned dict lists flows in *input* order
    (not fixing order), so two solves over the same flows compare equal
    including iteration order — the property the incremental solver's
    differential tests rely on.
    """
    rates, _ = _progressive_fill(flows)
    return {f: rates[f] for f in flows}


class FlowNetwork:
    """Transfer engine binding a :class:`Topology` to a :class:`SimKernel`.

    The blocking entry point is :meth:`transfer`; middleware layers call
    it from inside simulated processes.  Bytes crossing each link are
    accounted in :attr:`link_bytes` for white-box assertions in tests.

    Live flows are the rows of the flow table (see module docstring),
    kept in ``array.array`` columns: appends are amortised O(route),
    small tables loop over them and large ones use zero-copy
    ``np.frombuffer`` views.  A view pins its buffer's size, so no view
    outlives the method that makes it.  A departing flow is written
    back and unindexed at once; its row goes at the next
    :meth:`_settle`, before the next step reads the table, so callbacks
    that re-enter still see the live set.

    ``incremental=True`` (the default) re-solves only the changed
    flows' link-connected component; ``sharded=True`` (the default)
    adds the whole-shard tier and the vectorised fill above
    ``vec_threshold`` flows.  Every path is bit-for-bit equal to the
    scalar from-scratch solve; the thresholds only move work between
    equally exact implementations.
    """

    #: live flows a shard needs before whole-shard re-solving beats the
    #: per-event component walk (dict lookup vs O(component) BFS)
    SHARD_THRESHOLD = 64
    #: subset size where the numpy fill's setup cost amortises over the
    #: saved per-round link scans
    VEC_THRESHOLD = 64

    def __init__(self, kernel: SimKernel, topology: Topology,
                 incremental: bool = True, sharded: bool = True,
                 shard_threshold: int | None = None,
                 vec_threshold: int | None = None):
        self.kernel = kernel
        self.topology = topology
        self.incremental = incremental
        self.sharded = sharded
        self.shard_threshold = (self.SHARD_THRESHOLD
                                if shard_threshold is None
                                else shard_threshold)
        self.vec_threshold = (self.VEC_THRESHOLD if vec_threshold is None
                              else vec_threshold)
        # the flow table: one entry per live flow in each row column,
        # the routes back to back in the route column, and the Flow
        # objects in a list (an object ndarray would hide its references
        # from the cycle collector, and a live Flow refers back to us)
        self._remaining = array("d")
        self._rates = array("d")
        self._seqs = array("q")
        self._keys = array("q")  # shard code, see _shard_codes
        self._lens = array("q")  # route length
        self._route_ids = array("q")
        self._flows: list[Flow] = []
        #: seqs of departed flows whose rows are still in the table
        self._gone: list[int] = []
        #: link → interned int id, assigned on first sight (deterministic:
        #: flow-add order); the per-link columns are indexed by it
        self._link_ids: dict[Link, int] = {}
        self._links: list[Link] = []
        self._link_bw = array("d")
        #: bytes credited to each link (``link_bytes``, by link id)
        self._link_acc = array("d")
        #: whether a link has been credited yet, and the link ids in
        #: first-credit order — ``link_bytes``'s key order
        self._credited = bytearray()
        self._credit_order: list[int] = []
        #: a flow admitted since the last advance crosses an uncredited link
        self._uncredited = False
        #: persistent link→flows index (insertion-ordered dicts used as
        #: ordered sets), consulted for component discovery and
        #: link-failure victim lookup
        self._link_flows: dict[Link, dict[Flow, None]] = {}
        #: hierarchical tier: live flows per shard key (site tag, or
        #: None for the site-less coupling tier), and each key's code in
        #: the table's shard column
        self._shard_count: dict[str | None, int] = {}
        self._shard_codes: dict[str | None, int] = {}
        #: sites touched by coupling flows (counts): a tainted site's
        #: shard is not closed under link sharing, so it falls back to
        #: the component walk; _taint_total gates the coupling tier
        self._site_taint: dict[str, int] = {}
        self._taint_total = 0
        #: per-shard-key size of the last component solved inside that
        #: shard (None keys the coupling tier), decremented as member
        #: flows leave.  Whole-shard solving only pays off when the
        #: dirty component covers most of the shard, and this estimate
        #: is how the solver knows without running the BFS; see
        #: _reallocate_sharded
        self._shard_comp: dict[str | None, int] = {}
        self._last_update = kernel.now
        self._timer: Timer | None = None
        self.completed_flows = 0
        #: completed-transfer records for timeline analysis:
        #: (start time, end time, size bytes, first link name, ok)
        self.flow_log: list[tuple[float, float, float, str, bool]] = []
        #: observability hook surface (see repro.obs); pushed down by
        #: PadicoRuntime.observe, or set directly for standalone use
        self.monitor: Any = None
        self._flow_seq = 0
        self._flow_counter = 0
        #: solver work counters (plain ints — never routed through the
        #: monitor, so traces stay identical across solver modes; the
        #: wall-clock bench reports them via obs counters after the run)
        self.solver_solves = 0
        self.solver_iterations = 0
        self.solver_flows_resolved = 0
        #: completion-timer pushes avoided because the fire instant was
        #: unchanged (lazy cancellation fast path)
        self.timer_reuses = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def transfer(self, proc: SimProcess, src: str, dst: str, nbytes: float,
                 fabric: str, extra_latency: float = 0.0) -> float:
        """Move ``nbytes`` from ``src`` to ``dst`` over ``fabric``.

        Blocks the calling process for propagation latency plus the
        fluid transfer time; returns the elapsed virtual seconds.
        Raises :class:`TransferError` if a link on the route goes down
        mid-flight, and :class:`NoRouteError` if there is no live path.
        """
        t0 = self.kernel.now
        mon = self.monitor
        if mon is not None:
            mon.on_span_start("net.transfer", cat="net", src=src, dst=dst,
                              nbytes=float(nbytes), fabric=fabric)
        try:
            route = self.topology.route(src, dst, fabric)
            latency = sum(l.latency for l in route) + extra_latency
            if latency > 0:
                proc.sleep(latency)
            if nbytes > 0:
                self.send_on_route(proc, route, nbytes)
        finally:
            if mon is not None:
                mon.on_span_end("net.transfer")
        return self.kernel.now - t0

    def send_on_route(self, proc: SimProcess, route: Sequence[Link],
                      nbytes: float) -> None:
        """Blocking fluid transfer on an explicit route (no latency)."""
        if nbytes <= 0:
            return
        if not route:  # same-host, zero-cost copy handled by caller
            return
        flow = self._add_flow(route, nbytes, waiter=proc)
        try:
            proc.suspend()
        except BaseException:
            self._abort_flow(flow, TransferError("transfer cancelled"),
                             wake=False)
            raise
        if flow.error is not None:
            raise flow.error

    def start_flow(self, route: Sequence[Link], nbytes: float,
                   callback: Callable[[Flow], None]) -> Flow:
        """Non-blocking transfer; ``callback(flow)`` fires on completion
        (check ``flow.error``).  Used by event-driven transports."""
        if nbytes <= 0:
            raise ValueError("flow size must be positive")
        return self._add_flow(route, nbytes, callback=callback)

    def start_flows(self, requests: Sequence[
            tuple[Sequence[Link], float, Callable[[Flow], None]]],
    ) -> list[Flow]:
        """Admit many ``(route, nbytes, callback)`` transfers in one
        re-solve.

        Bit-for-bit equivalent to :meth:`start_flow` on each request
        back-to-back at one virtual instant (no time passes between
        them, so the intermediate allocations are unobservable), at the
        cost of one re-solve instead of one per flow.  Validation is
        atomic: a bad size or downed link admits nothing.
        """
        reqs = list(requests)
        for route, nbytes, _callback in reqs:
            if nbytes <= 0:
                raise ValueError("flow size must be positive")
            for link in route:
                if not link.up:
                    raise TransferError(f"link {link.name} is down")
        flows = [self._admit(route, nbytes, None, callback)
                 for route, nbytes, callback in reqs]
        if flows:
            self._reallocate(flows)
            for flow in flows:
                self._notify_start(flow)
        return flows

    def current_rate(self, flow: Flow) -> float:
        """Instantaneous fair-share rate of an active flow (bytes/s)."""
        return flow.rate

    @property
    def active_flows(self) -> list[Flow]:
        """Live flows in admission order."""
        self._settle()
        return list(self._flows)

    @property
    def link_bytes(self) -> dict[Link, float]:
        """Bytes credited to each link so far, keyed in first-credit
        order (a fresh dict per read)."""
        links, acc = self._links, self._link_acc
        return {links[i]: acc[i] for i in self._credit_order}

    def fail_link(self, link: Link) -> None:
        """Bring a link down and abort every flow crossing it."""
        link.up = False
        victims = list(self._link_flows.get(link, ()))
        self._advance()
        for f in victims:
            self._abort_flow(
                f, TransferError(f"link {link.name} went down"), wake=True,
                advance=False)
        self._reallocate(victims)

    # ------------------------------------------------------------------
    # the flow table
    # ------------------------------------------------------------------
    def _row(self, seq: int) -> int:
        """Table row of the live flow with ``seq``."""
        return bisect_left(self._seqs, seq)

    def _admit(self, route: Sequence[Link], nbytes: float,
               waiter: SimProcess | None,
               callback: Callable | None) -> Flow:
        """Validate, create, append and index one flow — no re-solve, no
        monitor notification; callers compose those (see
        :meth:`start_flows`)."""
        for link in route:
            if not link.up:
                raise TransferError(f"link {link.name} is down")
        self._advance()
        flow = Flow(route, nbytes, waiter, callback, self.kernel.now)
        flow.shard = _route_shard(flow.route)
        self._flow_counter += 1
        flow.seq = self._flow_counter
        code = self._shard_codes.get(flow.shard)
        if code is None:
            code = self._shard_codes[flow.shard] = len(self._shard_codes)
        self._remaining.append(flow.size)
        self._rates.append(0.0)
        self._seqs.append(flow.seq)
        self._keys.append(code)
        self._lens.append(len(flow.route))
        self._route_ids.extend(self._intern(flow.route))
        self._flows.append(flow)
        flow._net = self
        self._index_add(flow)
        return flow

    def _intern(self, route: Sequence[Link]) -> list[int]:
        """Interned link ids of ``route``, registering new links."""
        ids = self._link_ids
        out = []
        for link in route:
            li = ids.get(link)
            if li is None:
                li = ids[link] = len(self._links)
                self._links.append(link)
                self._link_bw.append(link.bandwidth)
                self._link_acc.append(0.0)
                self._credited.append(False)
            if not self._credited[li]:
                self._uncredited = True
            out.append(li)
        return out

    def _depart(self, flow: Flow, remaining: float | None) -> None:
        """Write ``flow``'s table state back to it (``remaining``
        overrides the byte count) and unindex it; the row itself is
        dropped at the next :meth:`_settle`."""
        row = self._row(flow.seq)
        flow._remaining = (self._remaining[row] if remaining is None
                           else remaining)
        flow._rate = self._rates[row]
        flow._net = None
        flow.done = True
        self._gone.append(flow.seq)
        self._index_remove(flow)

    def _settle(self) -> None:
        """Drop departed flows' rows, keeping admission order.

        Order-preserving (not swap-remove): rows stay in ``seq`` order,
        so every later summation over the table runs in the order of
        the per-flow loops it replaces.  Rows go one at a time, last
        first, each a ``memmove`` per column: events end one to eight
        flows on every benchmark workload, and compacting a large table
        through a boolean mask costs far more than that.
        """
        gone = self._gone
        if not gone:
            return
        lens = self._lens
        cols = (self._remaining, self._rates, self._seqs, self._keys, lens)
        for seq in sorted(gone, reverse=True):
            row = self._row(seq)
            e0 = int(np.frombuffer(lens, np.int64)[:row].sum())
            del self._route_ids[e0:e0 + lens[row]]
            for col in cols:
                del col[row]
            del self._flows[row]
        gone.clear()

    def _advance(self) -> None:
        """Credit every active flow with progress since the last update
        (eagerly, per event; see the module docstring)."""
        self._settle()
        now = self.kernel.now
        dt = now - self._last_update
        self._last_update = now
        n = len(self._flows)
        if dt <= 0 or not n:
            return
        if n > _SCALAR_ROWS:
            moved = np.frombuffer(self._rates) * dt
            np.frombuffer(self._remaining)[:] -= moved
            np.add.at(np.frombuffer(self._link_acc),
                      np.frombuffer(self._route_ids, np.int64),
                      np.repeat(moved, np.frombuffer(self._lens, np.int64)))
        else:
            rem, acc, ids, e = self._remaining, self._link_acc, \
                self._route_ids, 0
            for i, (rate, k) in enumerate(zip(self._rates, self._lens)):
                moved = rate * dt
                rem[i] -= moved
                for li in ids[e:e + k]:
                    acc[li] += moved
                e += k
        if self._uncredited:
            # links credited for the first time join link_bytes in the
            # order the per-flow loop would have inserted them
            ids = np.frombuffer(self._route_ids, np.int64)
            credited = np.frombuffer(self._credited, bool)
            uniq, first = np.unique(ids[~credited[ids]], return_index=True)
            fresh = uniq[np.argsort(first)]
            credited[fresh] = True
            self._credit_order.extend(fresh.tolist())
            self._uncredited = False

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_flow(self, route: Sequence[Link], nbytes: float,
                  waiter: SimProcess | None = None,
                  callback: Callable | None = None) -> Flow:
        flow = self._admit(route, nbytes, waiter, callback)
        self._reallocate((flow,))
        self._notify_start(flow)
        return flow

    def _notify_start(self, flow: Flow) -> None:
        mon = self.monitor
        if mon is not None:
            self._flow_seq += 1
            flow.fid = self._flow_seq
            first = flow.route[0] if flow.route else None
            mon.on_flow_start(
                flow.fid,
                src=first.src if first else "",
                dst=flow.route[-1].dst if flow.route else "",
                nbytes=flow.size,
                fabric=first.fabric.name if first else "")

    def _index_add(self, flow: Flow) -> None:
        link_flows = self._link_flows
        for link in flow.route:
            peers = link_flows.get(link)
            if peers is None:
                link_flows[link] = {flow: None}
            else:
                peers[flow] = None
        shard = flow.shard
        self._shard_count[shard] = self._shard_count.get(shard, 0) + 1
        if shard is None:
            for tag in self._coupling_tags(flow):
                self._site_taint[tag] = self._site_taint.get(tag, 0) + 1
                self._taint_total += 1

    def _index_remove(self, flow: Flow) -> None:
        link_flows = self._link_flows
        for link in flow.route:
            peers = link_flows.get(link)
            if peers is not None:
                peers.pop(flow, None)
                if not peers:
                    del link_flows[link]
        shard = flow.shard
        comp = self._shard_comp.get(shard, 0)
        if comp > 0:
            # a departing member can only shrink the component the
            # estimate came from; decaying it forces an eventual BFS
            # re-probe, so the estimate cannot stay optimistic forever
            self._shard_comp[shard] = comp - 1
        self._shard_count[shard] -= 1
        if shard is None:
            for tag in self._coupling_tags(flow):
                left = self._site_taint.get(tag, 0) - 1
                if left > 0:
                    self._site_taint[tag] = left
                else:
                    self._site_taint.pop(tag, None)
                self._taint_total -= 1

    @staticmethod
    def _coupling_tags(flow: Flow) -> set[str]:
        """Distinct site tags a coupling flow's route touches."""
        return {link.fabric.site for link in flow.route
                if link.fabric.site is not None}

    def _component(self, seeds: Sequence[Flow]) -> dict[Flow, None]:
        """Flows link-connected to any seed (seeds themselves included).

        Seeds may already have been removed from the index (completion /
        abort); their routes still seed the link frontier, so the
        closure covers every flow whose rate the change can affect.
        Deterministic: plain worklist over insertion-ordered dicts.
        """
        member: dict[Flow, None] = dict.fromkeys(seeds)
        frontier: list[Link] = []
        seen: dict[Link, None] = {}
        for f in seeds:
            for link in f.route:
                if link not in seen:
                    seen[link] = None
                    frontier.append(link)
        link_flows = self._link_flows
        i = 0
        while i < len(frontier):
            peers = link_flows.get(frontier[i])
            i += 1
            if peers is None:
                continue
            for g in peers:
                if g not in member:
                    member[g] = None
                    for link in g.route:
                        if link not in seen:
                            seen[link] = None
                            frontier.append(link)
        return member

    def _live_component(self, dirty: Sequence[Flow]) -> list[Flow]:
        """Live flows link-connected to ``dirty``, in admission order —
        so link insertion order (and with it every tie-break and float
        op) matches the full solve restricted to this component."""
        live = [f for f in self._component(dirty) if not f.done]
        live.sort(key=_flow_seq_key)
        return live

    def _reallocate(self, dirty: Sequence[Flow] | None = None) -> None:
        """Re-solve fair-share rates after a flow-set change.

        ``dirty`` lists the flows added/removed since the last solve.
        In incremental mode only their link-connected component — or,
        with ``sharded=True``, their whole site shard when that is
        cheaper — is re-solved (flows elsewhere keep their — provably
        unchanged — rates); with ``dirty=None`` or
        ``incremental=False`` the whole network is re-solved from
        scratch by the historical scalar fill, the exactness oracle the
        differential suite compares every other path against.
        """
        self._settle()
        if not self.incremental or dirty is None:
            self._solve(list(self._flows))
        elif self.sharded:
            self._reallocate_sharded(dirty)
        else:
            self._solve(self._live_component(dirty))
        self._reschedule()

    def _reallocate_sharded(self, dirty: Sequence[Flow]) -> None:
        """Hierarchical re-solve: dirty site shards wholesale, the rest
        through the component walk.

        Whole-shard re-solving is exact when the shard is closed under
        link sharing (untainted), but only *cheaper* when the dirty
        component covers most of the shard.  ``_shard_comp`` — the size
        of the last component walked inside the shard, decayed as
        members leave — decides: the shard is solved whole once that
        spans half of it, and the decay forces a re-probe so the
        estimate tracks fragmentation.  Everything else takes one
        combined component walk, the always-correct path.
        """
        groups: dict[str | None, list[Flow]] = {}
        for f in dirty:
            groups.setdefault(f.shard, []).append(f)
        residual: list[Flow] = []
        comp_est = self._shard_comp
        # every gate-passing shard becomes one block of a single fill:
        # shards are link-disjoint by construction, so a union fill
        # performs exactly the per-shard fills' arithmetic (each link
        # only ever meets subtractions from its own shard's rounds, in
        # the same relative order) while paying the vec setup once per
        # *event* instead of once per shard
        blocks: list[np.ndarray] = []
        for key, seeds in groups.items():
            size = self._shard_count.get(key, 0)
            untainted = (self._taint_total == 0 if key is None
                         else not self._site_taint.get(key))
            if size >= self.shard_threshold and untainted \
                    and 2 * comp_est.get(key, 0) >= size:
                blocks.append(np.flatnonzero(
                    np.frombuffer(self._keys, np.int64)
                    == self._shard_codes.get(key, -1)))
            else:
                residual.extend(seeds)
        if blocks and sum(map(len, blocks)) >= self.vec_threshold:
            self._solve(blocks=blocks)
        elif blocks:
            flows = self._flows
            self._solve([flows[i] for b in blocks for i in b.tolist()])
        if residual:
            live = self._live_component(residual)
            if len(live) >= self.vec_threshold:
                self._solve(blocks=[np.searchsorted(
                    np.frombuffer(self._seqs, np.int64),
                    [f.seq for f in live])])
            else:
                self._solve(live)
            shards = {f.shard for f in live}
            if len(shards) == 1:
                # the walk just measured one shard's component structure:
                # remember it so the next dirty event can skip the walk
                comp_est[shards.pop()] = len(live)

    def _solve(self, flows: list[Flow] | None = None,
               blocks: Sequence[np.ndarray] = ()) -> None:
        """One fill, writing back the rates that changed and counting
        the work: the scalar fill over ``flows`` (admission order), or
        the vectorised fill over the table rows ``blocks`` — each
        block ascending, the blocks link-disjoint — whose routes it
        reads straight from the route column.

        Skipping a write when old and new compare equal is the scalar
        assignment's ``!=`` guard, including its ``-0.0 == 0.0`` case.
        """
        if flows is not None:
            rates, iterations = _progressive_fill(flows)
            col = self._rates
            for f in flows:
                row, new = self._row(f.seq), rates[f]
                if new != col[row]:
                    col[row] = new
            resolved = len(flows)
        else:
            lens = np.frombuffer(self._lens, np.int64)
            ids = np.frombuffer(self._route_ids, np.int64)
            parts = []
            for block in blocks:
                sel = np.zeros(len(lens), dtype=bool)
                sel[block] = True
                parts.append(ids[np.repeat(sel, lens)])
            rows = np.concatenate(blocks)
            gids = np.concatenate(parts)
            new, iterations = _progressive_fill_vec(
                lens[rows], gids, np.frombuffer(self._link_bw)[gids],
                len(self._links), [len(b) for b in blocks])
            col = np.frombuffer(self._rates)
            changed = new != col[rows]
            col[rows[changed]] = new[changed]
            resolved = len(rows)
        self.solver_solves += 1
        self.solver_iterations += iterations
        self.solver_flows_resolved += resolved

    def _reschedule(self) -> None:
        next_finish = None
        if len(self._flows) > _SCALAR_ROWS:
            rates = np.frombuffer(self._rates)
            live = rates > 0
            if live.any():
                next_finish = float((np.frombuffer(self._remaining)[live]
                                     / rates[live]).min())
        else:
            for rem, rate in zip(self._remaining, self._rates):
                if rate > 0:
                    finish = rem / rate
                    if next_finish is None or finish < next_finish:
                        next_finish = finish
        timer = self._timer
        if next_finish is None:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        fire = self.kernel.now + max(next_finish, 0.0)
        if timer is not None:
            # lazy cancellation: when the earliest completion instant is
            # unchanged, keep the already-queued timer instead of
            # cancel+repush (the cancelled entry would linger in the
            # heap until popped anyway)
            if not timer.cancelled and timer.time == fire:
                self.timer_reuses += 1
                return
            timer.cancel()
        self._timer = self.kernel.schedule(max(next_finish, 0.0),
                                           self._on_completion)

    def _finished(self) -> list[Flow]:
        """Live flows within ``_EPS_BYTES`` of done, in row order."""
        if len(self._flows) > _SCALAR_ROWS:
            done = np.frombuffer(self._remaining) <= _EPS_BYTES
            return [self._flows[i] for i in done.nonzero()[0].tolist()]
        return [f for f, rem in zip(self._flows, self._remaining)
                if rem <= _EPS_BYTES]

    def _on_completion(self) -> None:
        self._timer = None
        self._advance()
        finished = self._finished()
        for f in finished:
            self._depart(f, 0.0)
            self.completed_flows += 1
            self.flow_log.append((f.start_time, self.kernel.now, f.size,
                                  f.route[0].name if f.route else "", True))
            mon = self.monitor
            if mon is not None and f.fid is not None:
                mon.on_flow_end(f.fid, ok=True, progress=1.0)
            self._notify(f)
        self._reallocate(finished)

    def _abort_flow(self, flow: Flow, error: Exception, wake: bool,
                    advance: bool = True) -> None:
        if flow.done or flow._net is not self:
            return
        if advance:
            self._advance()
        flow.error = error
        self._depart(flow, None)
        self.flow_log.append((flow.start_time, self.kernel.now, flow.size,
                              flow.route[0].name if flow.route else "",
                              False))
        mon = self.monitor
        if mon is not None and flow.fid is not None:
            mon.on_flow_end(flow.fid, ok=False, progress=flow.progress)
        if wake:
            self._notify(flow)
        if advance:
            self._reallocate((flow,))

    def _notify(self, flow: Flow) -> None:
        if flow.waiter is not None:
            self.kernel.wake(flow.waiter, flow)
        if flow.callback is not None:
            flow.callback(flow)
