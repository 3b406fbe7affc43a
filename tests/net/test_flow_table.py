"""The flow table's per-event steps against the per-flow loops they
replace.

:class:`FlowNetwork` keeps live flows as table rows and runs advance,
reschedule and completion as column operations (numpy ops once the
table is large).  The per-flow loops those steps replaced are kept here
as plain functions.  Randomised schedules (mid-table departures,
cancelled blocking sends, link failures) replay on a network that,
after every step, checks bit for bit:

* every live flow's ``remaining`` against the scalar advance loop;
* ``link_bytes`` (values *and* key order) against the same loop;
* every live rate against a from-scratch :func:`maxmin_rates` solve;
* the completion-timer fire instant against the scalar reschedule scan;
* each completion's finished set against the scalar completion scan.

Each small schedule runs twice: as is, and with every table forced onto
the numpy path.  One ``build_grid`` case runs above ``vec_threshold`` so
whole-shard solves and multi-shard fills run too.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NoRouteError, Topology, build_cluster, build_grid
from repro.net import flows as flows_mod
from repro.net.flows import (_EPS_BYTES, FlowNetwork, TransferError,
                             maxmin_rates)
from repro.sim.kernel import SimInterrupt, SimKernel


# ---------------------------------------------------------------------------
# the scalar oracle
# ---------------------------------------------------------------------------

def scalar_advance(flows, rate, remaining, link_bytes, dt):
    """Credit ``dt`` seconds of progress, flow by flow, link by link."""
    for f in flows:
        moved = rate[f] * dt
        remaining[f] -= moved
        for link in f.route:
            link_bytes[link] = link_bytes.get(link, 0.0) + moved


def scalar_next_finish(flows, rate, remaining):
    """Seconds until the first live flow completes, or ``None``."""
    next_finish = None
    for f in flows:
        if rate[f] <= 0:
            continue
        finish = remaining[f] / rate[f]
        if next_finish is None or finish < next_finish:
            next_finish = finish
    return next_finish


def scalar_finished(flows, remaining):
    """Flows within ``_EPS_BYTES`` of done, in admission order."""
    return [f for f in flows if remaining[f] <= _EPS_BYTES]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class OracleNetwork(FlowNetwork):
    """Checks each per-event step against the scalar oracle above."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: remaining bytes per flow as the scalar loop computes them
        self.expect_remaining: dict = {}
        self.expect_link_bytes: dict = {}
        self.fire_at: float | None = None
        self.checked_fires = 0

    def _expected(self, f):
        return self.expect_remaining.get(f, f.size)

    def _live(self):
        # live flows without settling the table (``active_flows`` would
        # drop departed rows before the production step runs)
        return [f for f in self._flows if not f.done]

    def _advance(self):
        flows = self._live()
        dt = self.kernel.now - self._last_update
        if dt > 0:
            for f in flows:
                self.expect_remaining.setdefault(f, f.size)
            scalar_advance(flows, {f: f.rate for f in flows},
                           self.expect_remaining, self.expect_link_bytes,
                           dt)
        super()._advance()
        assert [bits(f.remaining) for f in flows] == \
            [bits(self._expected(f)) for f in flows]
        assert [(l, bits(v)) for l, v in self.link_bytes.items()] == \
            [(l, bits(v)) for l, v in self.expect_link_bytes.items()]

    def _reallocate(self, dirty=None):
        super()._reallocate(dirty)
        live = self._live()
        expected = maxmin_rates(live)
        assert [bits(f.rate) for f in live] == \
            [bits(expected[f]) for f in live]

    def _reschedule(self):
        flows = self._live()
        finish = scalar_next_finish(
            flows, {f: f.rate for f in flows},
            {f: self._expected(f) for f in flows})
        super()._reschedule()
        if finish is None:
            assert self._timer is None
            self.fire_at = None
        else:
            self.fire_at = self.kernel.now + max(finish, 0.0)
            assert bits(self._timer.time) == bits(self.fire_at)

    def _on_completion(self):
        assert bits(self.kernel.now) == bits(self.fire_at)
        self.checked_fires += 1
        self._advance()  # checked here; the inner advance sees dt == 0
        flows = self._live()
        rates = {f: f.rate for f in flows}
        expected = scalar_finished(flows, self.expect_remaining)
        super()._on_completion()
        done = [f for f in flows if f.done and f.error is None]
        assert done == expected
        # departure wrote the table state back to the flow
        assert all(f.remaining == 0.0 and bits(f.rate) == bits(rates[f])
                   for f in done)

    def _abort_flow(self, flow, error, wake, advance=True):
        live = not flow.done and flow._net is self
        super()._abort_flow(flow, error, wake, advance)
        if live:
            assert flow.done and flow._net is None
            assert bits(flow.remaining) == bits(self._expected(flow))


# ---------------------------------------------------------------------------
# small randomised schedules
# ---------------------------------------------------------------------------

@st.composite
def schedules(draw):
    n_clusters = draw(st.integers(1, 2))
    clusters = [draw(st.integers(2, 5)) for _ in range(n_clusters)]
    events = []
    t = 0.0
    for _ in range(draw(st.integers(1, 16))):
        t += draw(st.floats(0.0, 0.01, allow_nan=False))
        ci = draw(st.integers(0, n_clusters - 1))
        n = clusters[ci]
        src = draw(st.integers(0, n - 1))
        dst = (src + draw(st.integers(1, n - 1))) % n
        where = (ci, src, dst, draw(st.sampled_from(["san", "lan"])))
        kind = draw(st.sampled_from(["flow", "flow", "send", "fail"]))
        if kind == "fail":
            events.append(("fail", t, where))
            continue
        size = draw(st.floats(1e3, 1e7, allow_nan=False))
        # a blocking send may be cancelled while in flight: its flow
        # leaves the table from wherever its row is
        cancel = draw(st.one_of(st.none(), st.floats(0.0, 0.05)))
        events.append((kind, t, where, size, cancel))
    return clusters, events


def run_schedule(spec):
    clusters, events = spec
    topo = Topology()
    for ci, n_hosts in enumerate(clusters):
        build_cluster(topo, f"c{ci}", n_hosts)
    kernel = SimKernel()
    net = OracleNetwork(kernel, topo)

    def route(where):
        ci, src, dst, fabric = where
        return topo.route(f"c{ci}{src}", f"c{ci}{dst}", f"c{ci}-{fabric}")

    def start(where, size):
        try:
            net.start_flow(route(where), size, lambda flow: None)
        except (NoRouteError, TransferError):
            pass  # a link failed earlier

    def send(proc, t, where, size):
        try:
            proc.sleep(t)
            net.send_on_route(proc, route(where), size)
        except (NoRouteError, TransferError, SimInterrupt):
            pass

    def fail(where):
        try:
            net.fail_link(route(where)[0])
        except NoRouteError:
            pass

    for kind, t, where, *rest in events:
        if kind == "flow":
            kernel.schedule(t, start, where, rest[0])
        elif kind == "send":
            size, cancel = rest
            proc = kernel.spawn(send, t, where, size)
            if cancel is not None:
                kernel.schedule(t + cancel, proc.interrupt)
        else:
            kernel.schedule(t, fail, where)
    kernel.run()
    assert net.active_flows == []
    return net


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_table_steps_match_scalar_loops(spec):
    run_schedule(spec)


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_numpy_table_steps_match_scalar_loops(spec):
    # every table on the numpy path, however small
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows_mod, "_SCALAR_ROWS", 0)
        run_schedule(spec)


def test_mid_table_departures_keep_admission_order():
    # three flows on one link; the middle one is smallest, so it
    # departs from the middle of the table
    spec = ([3], [("flow", 0.0, (0, 0, 1, "san"), 4e6, None),
                  ("flow", 0.0, (0, 0, 1, "san"), 1e6, None),
                  ("flow", 0.0, (0, 0, 1, "san"), 9e6, None)])
    net = run_schedule(spec)
    assert [size for _s, _e, size, _l, ok in net.flow_log] == \
        [1e6, 4e6, 9e6]
    assert net.checked_fires == 3


def test_link_bytes_keep_first_credit_order():
    # the first flow is aborted before any time passes, so the links it
    # interned stay uncredited; the second flow then credits its own new
    # link before the shared one, against link-id order
    spec = ([3], [("flow", 0.0, (0, 0, 1, "san"), 4e6, None),
                  ("fail", 0.0, (0, 0, 1, "san")),
                  ("flow", 0.0, (0, 2, 1, "san"), 1e6, None)])
    net = run_schedule(spec)
    assert [l.name for l in net.link_bytes] == \
        [l.name for l in net.topology.route("c02", "c01", "c0-san")]


def test_cancelled_send_leaves_mid_table():
    spec = ([3], [("flow", 0.0, (0, 0, 1, "san"), 4e6, None),
                  ("send", 0.0, (0, 0, 1, "san"), 9e6, 0.001),
                  ("flow", 0.0, (0, 0, 1, "san"), 8e6, None)])
    net = run_schedule(spec)
    assert [ok for *_rest, ok in net.flow_log] == [False, True, True]


# ---------------------------------------------------------------------------
# grid scale: whole-shard and multi-shard fills
# ---------------------------------------------------------------------------

def test_grid_shards_above_vec_threshold(monkeypatch):
    groups_seen = []
    fill = flows_mod._progressive_fill_vec

    def recording_fill(lens, gids, bw, n_ids, groups=None):
        groups_seen.append(list(groups or [len(lens)]))
        return fill(lens, gids, bw, n_ids, groups)

    monkeypatch.setattr(flows_mod, "_progressive_fill_vec", recording_fill)
    topo, sites = build_grid(sites=2, hosts_per_site=40, switch_fanout=8)
    kernel = SimKernel()
    net = OracleNetwork(kernel, topo)
    assert net.vec_threshold == net.shard_threshold == 64
    names = {s: [h.name for h in hosts] for s, hosts in sites.items()}

    def ring(shift, size):
        # the same ring in both sites: completions land in both shards
        # at the same instants, so their fills share one call
        return [(topo.route(hs[i], hs[(i + shift) % len(hs)], f"{s}-san"),
                 size * (1 + i % 5), lambda flow: None)
                for s, hs in names.items() for i in range(len(hs))]

    kernel.schedule(0.0, net.start_flows, ring(1, 1e6) + ring(9, 2e6))
    # one flow per site, at distinct instants: each site's component
    # walk teaches the shard gate that the site is one component
    for k, s in enumerate(names):
        kernel.schedule(1e-4 * (k + 1), net.start_flow,
                        topo.route(names[s][2], names[s][7], f"{s}-san"),
                        4e5, lambda flow: None)
    # now both shards pass the gate on one event: one fill, two blocks
    kernel.schedule(4e-4, net.start_flows, ring(3, 5e5))
    kernel.schedule(1e-3, net.start_flow,
                    topo.route("g0n0", "g1n0", "g-wan"), 3e6,
                    lambda flow: None)
    # a WAN failure aborts the coupling flow mid-run
    kernel.schedule(6e-3, net.fail_link,
                    topo.fabrics["g-wan"].link("g-wan-r0", "g-wan-core"))
    kernel.run()
    assert net.active_flows == []
    assert sum(not ok for *_rest, ok in net.flow_log) == 1
    assert len(net.flow_log) == 243
    assert any(len(g) >= 2 for g in groups_seen), \
        "no event solved two shards in one fill"
    assert max(sum(g) for g in groups_seen) > net.vec_threshold
