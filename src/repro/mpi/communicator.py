"""MPI communicator: point-to-point and collective operations.

A :class:`Comm` is bound to one rank of a Circuit and to the simulated
thread that runs that rank (see :func:`repro.mpi.world.spmd`).  Message
envelopes are ``(context, tag, body)`` tuples; contexts isolate
communicators (and each collective call) from each other, so overlapping
traffic can never be mis-matched.

Cost model (charged to the virtual clock):

- lowercase/pickle path: ``len(pickle) * PICKLE_BYTE_COST`` CPU seconds
  on each side (the serialisation copy);
- uppercase/buffer path: no software copy — the zero-copy Madeleine DMA
  path, which is what lets MPI saturate Myrinet in Figure 7;
- wire time and per-message overheads are charged by the Circuit layer.

Collectives are *topology aware* by default (MPICH-G2 style, see
:mod:`repro.mpi.coll`): each collective has one two-level schedule —
cluster-local binomial subtrees under per-site leaders, with only
leaders crossing the WAN; intra-site edges ride a per-site subcircuit
whose fabric the PadicoTM selector picks (the site SAN on a grid).
``CollTuning(aware=False)`` runs the same schedule over a one-site view
of the group, which is the classic flat rank-order binomial tree; a
single-site group gets that tree in both modes.  Both modes maintain
per-communicator WAN-crossing/byte counters
(:attr:`Comm.coll_stats`) and, when a monitor is attached, the
``mpi.wan_crossings`` / ``mpi.wan_bytes.<op>`` obs counters.

Wall-clock protocol selection (Madeleine-style, virtual clock
unaffected): outgoing buffers below :data:`RENDEZVOUS_THRESHOLD` are
staged through an eager copy, so the caller may reuse its buffer the
moment the send returns; buffers at or above it ride the rendezvous
path — the message references the caller's memory, which must stay
unmutated until the matching receive has completed (the standard
zero-copy send contract).  Both disciplines are metered through the
``wire.copied_bytes.mpi`` / ``wire.referenced_bytes.mpi`` obs counters,
as is the delivery copy into the receiver's buffer.
"""

from __future__ import annotations

import functools
import pickle
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.mpi.coll import (
    CollShared,
    CollStats,
    CollTuning,
    SiteMap,
    shared_state,
)
from repro.mpi.ops import ReduceOp
from repro.mpi.request import Request
from repro.padicotm.abstraction.circuit import ANY_SOURCE as _CIRCUIT_ANY
from repro.padicotm.abstraction.circuit import Circuit
from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

#: wildcard receive selectors (mpi4py names)
ANY_SOURCE = -1
ANY_TAG = -1

#: CPU cost of the pickle serialisation copy, seconds per byte (~500 MB/s,
#: generous for a 1 GHz Pentium III but it keeps the pickle path visibly
#: slower than the zero-copy buffer path).
PICKLE_BYTE_COST = 2.0e-9

#: eager/rendezvous cutover for the buffer path: sends below this size
#: are staged through an eager copy (buffer reusable immediately);
#: larger sends reference the caller's buffer until the matching
#: receive completes — Madeleine's large-message rendezvous protocol.
RENDEZVOUS_THRESHOLD = 64 * 1024


class MpiError(RuntimeError):
    """MPI usage or transport error."""


def _collective(op: str) -> Callable:
    """Wrap a collective in an ``mpi.<op>`` observability span.

    Pure bookkeeping when a monitor is attached, nothing at all when
    none is — the decorated body runs unchanged either way.
    """
    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: "Comm", *args: Any, **kwargs: Any) -> Any:
            mon = self._monitor()
            if mon is None:
                return fn(self, *args, **kwargs)
            mon.on_span_start(f"mpi.{op}", cat="middleware",
                              rank=self._rank, size=self.size)
            try:
                return fn(self, *args, **kwargs)
            finally:
                mon.on_span_end(f"mpi.{op}")
        return wrapper
    return deco


class Status:
    """Receive status: envelope information of a matched message."""

    def __init__(self) -> None:
        self.source: int = ANY_SOURCE
        self.tag: int = ANY_TAG
        self.count: float = 0.0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self) -> float:
        return self.count


class Comm:
    """An MPI communicator bound to one rank.

    Created through :func:`repro.mpi.world.create_world`; user code
    receives it already bound to the simulated thread of its rank.
    """

    def __init__(self, circuit: Circuit, group: list[int], rank: int,
                 context: str, tuning: CollTuning | None = None):
        self._circuit = circuit
        self._group = group           # group index -> circuit rank
        self._rank = rank             # my index within the group
        self._context = context
        self._coll_seq = 0
        self._proc: SimProcess | None = None
        self._tuning = tuning or CollTuning()
        self._shared_memo: CollShared | None = None

    # ------------------------------------------------------------------
    # binding & identity
    # ------------------------------------------------------------------
    def bind(self, proc: SimProcess) -> "Comm":
        """Attach this communicator to the simulated thread of its rank."""
        self._proc = proc
        return self

    @property
    def proc(self) -> SimProcess:
        if self._proc is None:
            raise MpiError("communicator not bound to a thread; "
                           "run ranks through repro.mpi.spmd()")
        return self._proc

    @property
    def kernel(self):
        return self._circuit.runtime.kernel

    @property
    def process(self) -> "PadicoProcess":
        return self._circuit.members[self._group[self._rank]]

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    def Get_processor_name(self) -> str:
        return self.process.host.name

    def Wtime(self) -> float:
        return self.kernel.now

    def _monitor(self) -> Any:
        return self._circuit.runtime.monitor

    def _stage(self, arr: np.ndarray) -> np.ndarray:
        """Eager/rendezvous protocol selection for an outgoing buffer.

        Below :data:`RENDEZVOUS_THRESHOLD` the buffer is copied
        (eager — the caller may scribble on it right away); at or above
        it the message references the caller's memory (rendezvous).
        Pure wall-clock behaviour: the virtual clock never charges for
        this copy either way."""
        mon = self._monitor()
        if arr.nbytes >= RENDEZVOUS_THRESHOLD:
            if mon is not None:
                mon.on_counter("wire.referenced_bytes.mpi",
                               float(arr.nbytes))
            return arr
        if mon is not None:
            mon.on_counter("wire.copied_bytes.mpi", float(arr.nbytes))
        return arr.copy()

    def _count_delivery(self, nbytes: int) -> None:
        """Meter the copy into the receiver's buffer."""
        mon = self._monitor()
        if mon is not None:
            mon.on_counter("wire.copied_bytes.mpi", float(nbytes))

    def __repr__(self) -> str:
        return (f"<Comm rank {self._rank}/{self.size} "
                f"ctx={self._context!r}>")

    # ------------------------------------------------------------------
    # envelope plumbing
    # ------------------------------------------------------------------
    def _send_body(self, proc: SimProcess, dest: int, tag: int, body: Any,
                   nbytes: float, context: str) -> None:
        if not 0 <= dest < self.size:
            raise MpiError(f"destination rank {dest} out of range "
                           f"(size {self.size})")
        self._circuit.send(proc, self._group[self._rank],
                           self._group[dest], (context, tag, body), nbytes)

    def _recv_body(self, proc: SimProcess, source: int, tag: int,
                   context: str) -> tuple[int, int, Any, float]:
        csrc = _CIRCUIT_ANY if source == ANY_SOURCE \
            else self._group[source]

        def where(payload) -> bool:
            ctx, mtag, _body = payload
            return ctx == context and (tag == ANY_TAG or mtag == tag)

        src, payload, n = self._circuit.recv(
            proc, self._group[self._rank], source=csrc, where=where)
        _ctx, mtag, body = payload
        return self._group.index(src), mtag, body, n

    def _p2p_context(self) -> str:
        return f"{self._context}|p2p"

    def _coll_context(self, opname: str) -> str:
        """A fresh context per collective call.

        SPMD discipline means every rank issues collectives in the same
        order, so per-rank sequence numbers agree."""
        ctx = f"{self._context}|coll{self._coll_seq}|{opname}"
        self._coll_seq += 1
        return ctx

    # ------------------------------------------------------------------
    # topology-aware routing (see repro.mpi.coll)
    # ------------------------------------------------------------------
    def _shared(self) -> CollShared:
        if self._shared_memo is None:
            self._shared_memo = shared_state(
                self._circuit, self._group, self._context, self._tuning)
        return self._shared_memo

    @property
    def coll_stats(self) -> CollStats:
        """Per-communicator WAN crossing/byte counters (shared across
        all ranks of this communicator; maintained in both modes)."""
        return self._shared().stats

    @property
    def coll_aware(self) -> bool:
        """True when collectives schedule over more than one site."""
        return self._shared().view.multi_site

    def _xsend(self, proc: SimProcess, dest: int, tag: int, body: Any,
               nbytes: float, ctx: str, op: str,
               local: bool = False) -> None:
        """One collective tree edge.

        Cross-site edges are counted against the communicator's WAN
        stats (both modes — the flat-vs-aware comparison needs the flat
        numbers too).  With ``local=True`` (an intra-site edge of a
        schedule whose view has more than one site; the matching
        receive agrees) the edge is routed over the per-site subcircuit
        instead of the group circuit."""
        shared = self._shared()
        sm = shared.sitemap
        if sm.site_of[self._rank] != sm.site_of[dest]:
            shared.stats.count(op, nbytes)
            mon = self._monitor()
            if mon is not None:
                mon.on_counter("mpi.wan_crossings", 1.0)
                mon.on_counter(f"mpi.wan_bytes.{op}", float(nbytes))
        elif local:
            sub, index = shared.site_channel(sm.site_of[self._rank])
            sub.send(proc, index[self._rank], index[dest],
                     (ctx, tag, body), nbytes)
            return
        self._send_body(proc, dest, tag, body, nbytes, ctx)

    def _xrecv(self, proc: SimProcess, source: int, tag: int, ctx: str,
               local: bool = False) -> tuple[int, int, Any, float]:
        """Receive one collective tree edge; routing mirrors
        :meth:`_xsend` (``local=True`` with ``ANY_SOURCE`` matches any
        same-site sender on the subcircuit)."""
        if not local:
            return self._recv_body(proc, source, tag, ctx)
        shared = self._shared()
        si = shared.sitemap.site_of[self._rank]
        sub, index = shared.site_channel(si)
        csrc = _CIRCUIT_ANY if source == ANY_SOURCE else index[source]

        def where(payload) -> bool:
            mctx, mtag, _body = payload
            return mctx == ctx and (tag == ANY_TAG or mtag == tag)

        src, payload, n = sub.recv(proc, index[self._rank],
                                   source=csrc, where=where)
        _ctx, mtag, body = payload
        return shared.sitemap.members[si][src], mtag, body, n

    # ------------------------------------------------------------------
    # point-to-point: pickle path (lowercase)
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking send of a pickled Python object."""
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        n = len(data)
        self.proc.sleep(n * PICKLE_BYTE_COST)
        self._send_body(self.proc, dest, tag, ("p", data), n,
                        self._p2p_context())

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        """Blocking receive of a pickled Python object."""
        src, mtag, body, n = self._recv_body(self.proc, source, tag,
                                             self._p2p_context())
        obj = self._decode(self.proc, body, n)
        if status is not None:
            status.source, status.tag, status.count = src, mtag, n
        return obj

    def _decode(self, proc: SimProcess, body: tuple[str, Any],
                nbytes: float) -> Any:
        kind, data = body
        if kind == "p":
            proc.sleep(nbytes * PICKLE_BYTE_COST)
            return pickle.loads(data)
        return data

    # ------------------------------------------------------------------
    # point-to-point: buffer path (uppercase, zero-copy)
    # ------------------------------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Blocking send of a numpy buffer on the zero-copy path.

        Small sends are eager (the buffer is reusable immediately);
        sends of :data:`RENDEZVOUS_THRESHOLD` bytes or more reference
        the caller's buffer, which must stay unmutated until the
        receiver has completed the matching receive."""
        arr = np.ascontiguousarray(buf)
        self._send_body(self.proc, dest, tag, ("b", self._stage(arr)),
                        arr.nbytes, self._p2p_context())

    def _deliver(self, out: np.ndarray, body: tuple[str, Any]) -> None:
        """Copy a buffer-path message body into ``out``.

        Every buffer receive goes through here, so a pickled message or
        a byte-size mismatch is an :class:`MpiError` on all of them."""
        kind, data = body
        if kind != "b":
            raise MpiError("buffer receive matched a pickled message; "
                           "use the lowercase call")
        if out.nbytes != data.nbytes:
            raise MpiError(f"receive buffer is {out.nbytes} bytes, "
                           f"message is {data.nbytes}")
        np.copyto(out, data.reshape(out.shape))
        self._count_delivery(out.nbytes)

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG, status: Status | None = None) -> None:
        """Blocking receive into a caller-provided numpy buffer."""
        src, mtag, body, n = self._recv_body(self.proc, source, tag,
                                             self._p2p_context())
        self._deliver(np.asarray(buf), body)
        if status is not None:
            status.source, status.tag, status.count = src, mtag, n

    # ------------------------------------------------------------------
    # nonblocking
    # ------------------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking pickled send; the buffer is captured immediately."""
        req = Request(self)
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        n = len(data)
        ctx = self._p2p_context()

        def worker(p: SimProcess) -> None:
            try:
                p.sleep(n * PICKLE_BYTE_COST)
                self._send_body(p, dest, tag, ("p", data), n, ctx)
            except Exception as exc:  # noqa: BLE001 - surfaced via request
                req._complete(error=exc)
            else:
                req._complete()

        self.process.spawn(worker, name="mpi-isend", daemon=True)
        return req

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer send."""
        req = Request(self)
        # MPI nonblocking semantics already forbid touching the buffer
        # before wait(), so the rendezvous reference is always safe here
        arr = self._stage(np.ascontiguousarray(buf))
        ctx = self._p2p_context()

        def worker(p: SimProcess) -> None:
            try:
                self._send_body(p, dest, tag, ("b", arr), arr.nbytes, ctx)
            except Exception as exc:  # noqa: BLE001
                req._complete(error=exc)
            else:
                req._complete()

        self.process.spawn(worker, name="mpi-Isend", daemon=True)
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking pickled receive; ``wait()`` returns the object."""
        req = Request(self)
        ctx = self._p2p_context()

        def worker(p: SimProcess) -> None:
            try:
                _src, _t, body, n = self._recv_body(p, source, tag, ctx)
                obj = self._decode(p, body, n)
            except Exception as exc:  # noqa: BLE001
                req._complete(error=exc)
            else:
                req._complete(obj)

        self.process.spawn(worker, name="mpi-irecv", daemon=True)
        return req

    def Irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Nonblocking buffer receive into ``buf``."""
        req = Request(self)
        ctx = self._p2p_context()

        def worker(p: SimProcess) -> None:
            try:
                _src, _t, body, _n = self._recv_body(p, source, tag, ctx)
                self._deliver(np.asarray(buf), body)
            except Exception as exc:  # noqa: BLE001
                req._complete(error=exc)
            else:
                req._complete()

        self.process.spawn(worker, name="mpi-Irecv", daemon=True)
        return req

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (deadlock-free by construction)."""
        req = self.isend(obj, dest, sendtag)
        got = self.recv(source, recvtag)
        req.wait()
        return got

    @_collective("Scatterv")
    def Scatterv(self, sendbuf: np.ndarray | None,
                 counts: Sequence[int] | None, recvbuf: np.ndarray,
                 root: int = 0) -> None:
        """Variable-count scatter of a numpy buffer.

        ``counts[i]`` elements go to rank i; displacements are the
        running sum (contiguous layout, the common case)."""
        ctx = self._coll_context("Scatterv")
        out = np.asarray(recvbuf)
        if self._rank == root:
            if sendbuf is None or counts is None or \
                    len(counts) != self.size:
                raise MpiError(f"root must supply sendbuf and exactly "
                               f"{self.size} counts")
            flat = np.ascontiguousarray(sendbuf).ravel()
            if sum(counts) != flat.size:
                raise MpiError(f"counts sum to {sum(counts)} but sendbuf "
                               f"has {flat.size} elements")
            offset = 0
            my_part = None
            for dst, count in enumerate(counts):
                part = flat[offset:offset + count]
                offset += count
                if dst == root:
                    my_part = part.copy()
                else:
                    self._xsend(self.proc, dst, 9,
                                ("b", self._stage(part)),
                                part.nbytes, ctx, "Scatterv")
            np.copyto(out, my_part.reshape(out.shape))
        else:
            _s, _t, body, _n = self._recv_body(self.proc, root, 9, ctx)
            self._deliver(out, body)

    @_collective("Gatherv")
    def Gatherv(self, sendbuf: np.ndarray,
                recvbuf: np.ndarray | None,
                counts: Sequence[int] | None, root: int = 0) -> None:
        """Variable-count gather into a contiguous buffer at ``root``."""
        ctx = self._coll_context("Gatherv")
        part = np.ascontiguousarray(sendbuf).ravel()
        if self._rank == root:
            if recvbuf is None or counts is None or \
                    len(counts) != self.size:
                raise MpiError(f"root must supply recvbuf and exactly "
                               f"{self.size} counts")
            flat = np.asarray(recvbuf).ravel()
            if sum(counts) != flat.size:
                raise MpiError(f"counts sum to {sum(counts)} but recvbuf "
                               f"has {flat.size} elements")
            offsets = np.concatenate(([0], np.cumsum(counts)))
            flat[offsets[root]:offsets[root + 1]] = part
            for _ in range(self.size - 1):
                src, _t, body, _n = self._recv_body(self.proc, ANY_SOURCE,
                                                    10, ctx)
                self._deliver(flat[offsets[src]:offsets[src + 1]], body)
        else:
            self._xsend(self.proc, root, 10, ("b", self._stage(part)),
                        part.nbytes, ctx, "Gatherv")

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Status | None = None) -> None:
        """Block until a matching message is pending, without receiving
        it (MPI_Probe); fills ``status`` with the pending envelope."""
        ctx = self._p2p_context()
        csrc = _CIRCUIT_ANY if source == ANY_SOURCE else self._group[source]
        src, payload, n = self._circuit.wait_message(
            self.proc, self._group[self._rank], source=csrc,
            where=lambda p: p[0] == ctx and
            (tag == ANY_TAG or p[1] == tag))
        if status is not None:
            status.source = self._group.index(src)
            status.tag = payload[1]
            status.count = n

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        ctx = self._p2p_context()
        csrc = _CIRCUIT_ANY if source == ANY_SOURCE else self._group[source]
        return self._circuit.poll(
            self._group[self._rank], source=csrc,
            where=lambda p: p[0] == ctx and (tag == ANY_TAG or p[1] == tag))

    # ------------------------------------------------------------------
    # collective schedules
    #
    # Every collective runs one two-level schedule over a site view
    # (see _place): binomial trees over a site's members (intra-site
    # edges, on the per-site subcircuit when the view has several
    # sites) and over the per-site leaders (WAN edges, counted).  Flat
    # mode's view is the whole group as one site, where the leader
    # level is the root alone and the site level is the classic
    # rank-order binomial tree.  The _seq_* helpers run a binomial
    # schedule over an explicit participant list (global ranks) rooted
    # at ``parts[rootpos]``.
    # ------------------------------------------------------------------
    def _seq_bcast(self, parts: list[int], rootpos: int, body: Any,
                   nbytes: float, tag: int, ctx: str, op: str,
                   local: bool) -> tuple[Any, float]:
        k = len(parts)
        v = (parts.index(self._rank) - rootpos) % k
        mask = 1
        while mask < k:
            if v < mask:
                if v + mask < k:
                    dst = parts[(v + mask + rootpos) % k]
                    self._xsend(self.proc, dst, tag, body, nbytes, ctx,
                                op, local=local)
            elif v < mask << 1:
                src = parts[(v - mask + rootpos) % k]
                _s, _t, body, nbytes = self._xrecv(self.proc, src, tag,
                                                   ctx, local=local)
            mask <<= 1
        return body, nbytes

    def _seq_gather_signal(self, parts: list[int], rootpos: int, tag: int,
                           ctx: str, op: str, local: bool) -> None:
        k = len(parts)
        v = (parts.index(self._rank) - rootpos) % k
        mask = 1
        while mask < k:
            if v & mask:
                dst = parts[(v - mask + rootpos) % k]
                self._xsend(self.proc, dst, tag, ("p", b""), 0, ctx, op,
                            local=local)
                break
            if v + mask < k:
                src = parts[(v + mask + rootpos) % k]
                self._xrecv(self.proc, src, tag, ctx, local=local)
            mask <<= 1

    def _seq_reduce(self, parts: list[int], rootpos: int, value: Any,
                    redop: ReduceOp, tag: int, ctx: str, op: str,
                    local: bool, buffered: bool) -> Any:
        """Binomial reduction over ``parts``; combines child-first so
        operands associate in participant order (result meaningful only
        at ``parts[rootpos]``)."""
        k = len(parts)
        v = (parts.index(self._rank) - rootpos) % k
        acc = value
        mask = 1
        while mask < k:
            if v & mask:
                dst = parts[(v - mask + rootpos) % k]
                if buffered:
                    self._xsend(self.proc, dst, tag, ("b", acc),
                                acc.nbytes, ctx, op, local=local)
                else:
                    data = pickle.dumps(acc,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    self.proc.sleep(len(data) * PICKLE_BYTE_COST)
                    self._xsend(self.proc, dst, tag, ("p", data),
                                len(data), ctx, op, local=local)
                break
            if v + mask < k:
                src = parts[(v + mask + rootpos) % k]
                _s, _t, body, n = self._xrecv(self.proc, src, tag, ctx,
                                              local=local)
                contrib = body[1] if buffered \
                    else self._decode(self.proc, body, n)
                acc = redop(acc, contrib)
            mask <<= 1
        return acc

    def _place(self, root: int, reduce: bool = False
               ) -> tuple[SiteMap, list[int], int, bool]:
        """This rank's place in a collective rooted at ``root``:
        ``(view, my site's members, my site's leader, local)``, where
        ``local`` says intra-site edges ride the per-site subcircuits
        (only when the view has more than one site).

        A reduction keeps the real sites only when they partition the
        ranks into contiguous blocks and the root leads its block: the
        one-site tree combines operands child-first in (root-rotated)
        rank order, and only then does site-local pre-reduction
        preserve that operand order for non-commutative ops
        (associativity is still assumed, as in any tree reduction).
        Otherwise it runs over the one-site view."""
        shared = self._shared()
        sm = shared.view
        if reduce and not (sm.contiguous and
                           sm.members[sm.site_of[root]][0] == root):
            sm = shared.one_site
        si = sm.site_of[self._rank]
        return sm, sm.members[si], sm.leader(si, root), sm.multi_site

    def _bcast_body(self, body: Any, nbytes: float, root: int, ctx: str,
                    op: str) -> tuple[Any, float]:
        """Route a broadcast body: WAN tree over the leaders, then the
        intra-site trees."""
        sm, members, leader, local = self._place(root)
        if self._rank == leader:
            body, nbytes = self._seq_bcast(
                sm.leaders(root), sm.site_of[root], body, nbytes, 20,
                ctx, op, local=False)
        return self._seq_bcast(members, members.index(leader), body,
                               nbytes, 21, ctx, op, local=local)

    def _gather_up(self, data: bytes, root: int, ctx: str,
                   op: str) -> None:
        """A non-root rank's part of a raw-body gather to ``root``:
        members hand their pickled body to the site leader, which
        forwards its site's bodies to the root as one rank-ordered
        bundle."""
        _sm, members, leader, local = self._place(root)
        if self._rank != leader:
            self._xsend(self.proc, leader, 26, ("p", data), len(data),
                        ctx, op, local=local)
            return
        entries = sorted(self._site_entries(data, len(members), ctx,
                                            local))
        total = sum(len(d) for _r, d in entries)
        self._xsend(self.proc, root, 27, ("rl", entries), total, ctx, op)

    def _site_entries(self, data: bytes, nmembers: int, ctx: str,
                      local: bool) -> list[tuple[int, bytes]]:
        """A leader's own body plus its site members' raw bodies."""
        entries = [(self._rank, data)]
        for _ in range(nmembers - 1):
            src, _t, body, _n = self._xrecv(self.proc, ANY_SOURCE, 26,
                                            ctx, local=local)
            entries.append((src, body[1]))
        return entries

    def _reduce_tree(self, acc: Any, redop: ReduceOp, root: int,
                     ctx: str, op: str, buffered: bool) -> Any:
        """Site-local pre-reduction under each leader, then the site
        partials combine over a leaders-only WAN tree."""
        sm, members, leader, local = self._place(root, reduce=True)
        acc = self._seq_reduce(members, members.index(leader), acc,
                               redop, 30, ctx, op, local, buffered)
        if self._rank == leader:
            acc = self._seq_reduce(sm.leaders(root), sm.site_of[root],
                                   acc, redop, 31, ctx, op, False,
                                   buffered)
        return acc

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    @_collective("barrier")
    def barrier(self) -> None:
        """Binomial gather-to-0 then binomial release (MPICH style).

        2·ceil(log2(size)) message hops on the critical path — the term
        the paper's Figure-8 latency column grows by with node count.
        On a multi-site view each site fences under its leader first,
        and both phases cross the WAN leader-only: 2·(sites−1)
        crossings instead of O(size·log size).
        """
        ctx = self._coll_context("barrier")
        sm, members, leader, local = self._place(0)
        self._seq_gather_signal(members, members.index(leader), 22, ctx,
                                "barrier", local)
        if self._rank == leader:
            self._seq_gather_signal(sm.leaders(0), sm.site_of[0], 23,
                                    ctx, "barrier", local=False)
        self._bcast_body(("p", b""), 0.0, 0, ctx, "barrier")

    Barrier = barrier

    @_collective("bcast")
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast of a pickled object (leader-relayed
        on a multi-site view: exactly sites−1 WAN crossings)."""
        ctx = self._coll_context("bcast")
        if self._rank == root:
            data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.sleep(len(data) * PICKLE_BYTE_COST)
            body: tuple[str, Any] = ("p", data)
            n = float(len(data))
        else:
            body, n = None, 0.0  # type: ignore[assignment]
        body, n = self._bcast_body(body, n, root, ctx, "bcast")
        _kind, data = body
        self.proc.sleep(n * PICKLE_BYTE_COST)
        return pickle.loads(data)

    @_collective("Bcast")
    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """Binomial-tree broadcast of a numpy buffer, in place."""
        ctx = self._coll_context("Bcast")
        out = np.asarray(buf)
        if self._rank == root:
            # rendezvous contract for large broadcasts: the root buffer
            # must stay unmutated until every rank's delivery copy —
            # tree forwarding (leaders included) passes the same
            # reference down unchanged, so the hierarchy stays
            # reference-only end-to-end
            body: tuple[str, Any] = \
                ("b", self._stage(np.ascontiguousarray(out)))
            n = float(out.nbytes)
        else:
            body, n = None, 0.0  # type: ignore[assignment]
        body, _n = self._bcast_body(body, n, root, ctx, "Bcast")
        if self._rank != root:
            self._deliver(out, body)

    @_collective("gather")
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather pickled objects to ``root`` (rank order preserved).

        Raw pickled bodies are collected under each site leader first,
        then forwarded to the root as one bundle per remote site
        (sites−1 WAN crossings, each carrying only that site's bytes);
        the root alone pays the unpickle cost, once per contribution."""
        ctx = self._coll_context("gather")
        if self._rank != root:
            data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.sleep(len(data) * PICKLE_BYTE_COST)
            self._gather_up(data, root, ctx, "gather")
            return None
        sm, members, _leader, local = self._place(root)
        out: list[Any] = [None] * self.size
        out[root] = obj
        for _ in range(len(members) - 1):
            src, _t, body, n = self._xrecv(self.proc, ANY_SOURCE, 26, ctx,
                                           local=local)
            out[src] = self._decode(self.proc, body, n)
        for _ in range(sm.nsites - 1):
            _s, _t, body, _n = self._recv_body(self.proc, ANY_SOURCE, 27,
                                               ctx)
            for src, data in body[1]:
                self.proc.sleep(len(data) * PICKLE_BYTE_COST)
                out[src] = pickle.loads(data)
        return out

    @_collective("scatter")
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one object per rank from ``root``.

        The root pickles every part up front and charges the
        serialisation cost once, then ships one bundle per remote site
        to its leader, which fans out locally."""
        if self._rank == root and (objs is None or len(objs) != self.size):
            # reject before allocating the collective context so a failed
            # call leaves the context sequence aligned across ranks
            raise MpiError(f"scatter needs exactly {self.size} items "
                           f"at the root")
        ctx = self._coll_context("scatter")
        sm, members, leader, local = self._place(root)
        if self._rank == root:
            parts = {dst: pickle.dumps(item,
                                       protocol=pickle.HIGHEST_PROTOCOL)
                     for dst, item in enumerate(objs) if dst != root}
            self.proc.sleep(
                sum(len(d) for d in parts.values()) * PICKLE_BYTE_COST)
            for s in range(sm.nsites):
                if s != sm.site_of[root]:
                    bundle = [(dst, parts[dst]) for dst in sm.members[s]]
                    total = sum(len(d) for _r, d in bundle)
                    self._xsend(self.proc, sm.leader(s, root), 28,
                                ("rl", bundle), total, ctx, "scatter")
                    continue
                for dst in members:
                    if dst != root:
                        self._xsend(self.proc, dst, 29, ("p", parts[dst]),
                                    len(parts[dst]), ctx, "scatter",
                                    local=local)
            return objs[root]
        if self._rank != leader:
            _s, _t, body, n = self._xrecv(self.proc, leader, 29, ctx,
                                          local=local)
            return self._decode(self.proc, body, n)
        # leader of a remote site: unpack the root's bundle, fan out
        _s, _t, body, _n = self._recv_body(self.proc, root, 28, ctx)
        mine = None
        for dst, data in body[1]:
            if dst == self._rank:
                mine = data
            else:
                self._xsend(self.proc, dst, 29, ("p", data), len(data),
                            ctx, "scatter", local=local)
        self.proc.sleep(len(mine) * PICKLE_BYTE_COST)
        return pickle.loads(mine)

    @_collective("allgather")
    def allgather(self, obj: Any) -> list[Any]:
        """Gather raw pickled bodies to rank 0, broadcast the bundle,
        decode once per entry on every rank: bytes are serialised once
        at their source and deserialised once per consumer."""
        ctx = self._coll_context("allgather")
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.sleep(len(data) * PICKLE_BYTE_COST)
        body: tuple[str, Any] | None = None
        nbytes = 0.0
        if self._rank == 0:
            sm, members, _leader, local = self._place(0)
            entries = self._site_entries(data, len(members), ctx, local)
            for _ in range(sm.nsites - 1):
                _s, _t, bundle, _n = self._recv_body(
                    self.proc, ANY_SOURCE, 27, ctx)
                entries.extend(bundle[1])
            entries.sort()
            body = ("rl", entries)
            nbytes = float(sum(len(d) for _r, d in entries))
        else:
            self._gather_up(data, 0, ctx, "allgather")
        body, _n = self._bcast_body(body, nbytes, 0, ctx, "allgather")
        out: list[Any] = [None] * self.size
        for src, raw in body[1]:
            self.proc.sleep(len(raw) * PICKLE_BYTE_COST)
            out[src] = pickle.loads(raw)
        return out

    @_collective("alltoall")
    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all exchange.

        Every payload is pickled up front and the serialisation cost
        charged once.  Same-site payloads travel directly, in shift
        order ``(rank + s) % size``.  On a multi-site view the rest is
        aggregated per destination site through the two leaders
        (source leader merges its site's traffic, destination leader
        fans out), collapsing the one-site view's
        size·(size − site size) WAN crossings to sites·(sites − 1)."""
        if len(objs) != self.size:
            raise MpiError(f"alltoall needs exactly {self.size} items")
        ctx = self._coll_context("alltoall")
        out: list[Any] = [None] * self.size
        out[self._rank] = objs[self._rank]
        shifts = [(self._rank + s) % self.size
                  for s in range(1, self.size)]
        parts = {dst: pickle.dumps(objs[dst],
                                   protocol=pickle.HIGHEST_PROTOCOL)
                 for dst in shifts}
        self.proc.sleep(
            sum(len(d) for d in parts.values()) * PICKLE_BYTE_COST)
        sm, members, leader, local = self._place(0)
        si = sm.site_of[self._rank]
        for dst in shifts:
            if sm.site_of[dst] == si:
                self._xsend(self.proc, dst, 5, ("p", parts[dst]),
                            len(parts[dst]), ctx, "alltoall", local=local)
        relayed = self._alltoall_relay(parts, sm, leader, ctx) \
            if sm.multi_site else []
        for _ in range(len(members) - 1):
            src, _t, body, n = self._xrecv(self.proc, ANY_SOURCE, 5, ctx,
                                           local=local)
            out[src] = self._decode(self.proc, body, n)
        for src, data in relayed:
            self.proc.sleep(len(data) * PICKLE_BYTE_COST)
            out[src] = pickle.loads(data)
        return out

    def _alltoall_relay(self, parts: dict[int, bytes], sm: SiteMap,
                        leader: int, ctx: str) -> list[tuple[int, bytes]]:
        """Ship this rank's cross-site payloads through the leaders;
        returns the ``(src, body)`` payloads relayed to this rank."""
        si = sm.site_of[self._rank]
        members = sm.members[si]
        up = (self._rank, [(s, [(dst, parts[dst]) for dst in sm.members[s]])
                           for s in range(sm.nsites) if s != si])
        if self._rank != leader:
            upn = sum(len(d) for _s, sub in up[1] for _r, d in sub)
            self._xsend(self.proc, leader, 60, ("a2a", up), upn, ctx,
                        "alltoall", local=True)
            _s, _t, body, _n = self._xrecv(self.proc, leader, 62, ctx,
                                           local=True)
            return body[1]
        ups = [up]
        for _ in range(len(members) - 1):
            _s, _t, body, _n = self._xrecv(self.proc, ANY_SOURCE, 60, ctx,
                                           local=True)
            ups.append(body[1])
        ups.sort(key=lambda u: u[0])
        for s in range(sm.nsites):
            if s == si:
                continue
            entries = sorted(
                (src, dst, data)
                for src, bundles in ups
                for bs, sub in bundles if bs == s
                for dst, data in sub)
            total = sum(len(d) for _s2, _d2, d in entries)
            self._xsend(self.proc, sm.leader(s, 0), 61, ("a2a", entries),
                        total, ctx, "alltoall")
        deliveries: dict[int, list[tuple[int, bytes]]] = \
            {m: [] for m in members}
        for _ in range(sm.nsites - 1):
            _s, _t, body, _n = self._recv_body(self.proc, ANY_SOURCE, 61,
                                               ctx)
            for src, dst, data in body[1]:
                deliveries[dst].append((src, data))
        for m in members:
            ent = sorted(deliveries[m])
            if m != self._rank:
                total = sum(len(d) for _r, d in ent)
                self._xsend(self.proc, m, 62, ("a2a", ent), total, ctx,
                            "alltoall", local=True)
        return sorted(deliveries[self._rank])

    @_collective("reduce")
    def reduce(self, obj: Any, op: ReduceOp, root: int = 0) -> Any:
        """Binomial-tree reduction of pickled objects towards ``root``.

        On a multi-site view (contiguous site blocks, block-leading
        root) each site pre-reduces under its leader, then the site
        partials combine over a leaders-only WAN tree — sites−1
        crossings, each carrying one partial."""
        ctx = self._coll_context("reduce")
        acc = self._reduce_tree(obj, op, root, ctx, "reduce",
                                buffered=False)
        return acc if self._rank == root else None

    @_collective("allreduce")
    def allreduce(self, obj: Any, op: ReduceOp) -> Any:
        """Reduce to rank 0, then broadcast the result (each leg
        hierarchical on a multi-site view)."""
        reduced = self.reduce(obj, op, root=0)
        return self.bcast(reduced, root=0)

    @_collective("scan")
    def scan(self, obj: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction (linear chain)."""
        ctx = self._coll_context("scan")
        acc = obj
        if self._rank > 0:
            _s, _t, body, n = self._recv_body(self.proc, self._rank - 1,
                                              7, ctx)
            prefix = self._decode(self.proc, body, n)
            acc = op(prefix, obj)
        if self._rank + 1 < self.size:
            data = pickle.dumps(acc, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.sleep(len(data) * PICKLE_BYTE_COST)
            self._xsend(self.proc, self._rank + 1, 7, ("p", data),
                        len(data), ctx, "scan")
        return acc

    @_collective("Reduce")
    def Reduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
               op: ReduceOp, root: int = 0) -> None:
        """Buffer-path binomial reduction (no pickle cost), scheduled
        like :meth:`reduce`; partials stay on the zero-copy path
        throughout (the initial accumulator is staged once, op results
        are fresh arrays forwarded by reference)."""
        ctx = self._coll_context("Reduce")
        # ops are functional (no in-place accumulation), so the initial
        # accumulator can reference sendbuf on the rendezvous path
        acc = self._reduce_tree(self._stage(np.ascontiguousarray(sendbuf)),
                                op, root, ctx, "Reduce", buffered=True)
        if self._rank == root:
            if recvbuf is None:
                raise MpiError("root must supply recvbuf")
            out = np.asarray(recvbuf)
            np.copyto(out, acc.reshape(out.shape))
            self._count_delivery(out.nbytes)

    @_collective("Allreduce")
    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: ReduceOp) -> None:
        """Buffer-path reduce to rank 0 followed by broadcast."""
        out = np.asarray(recvbuf)
        if self._rank == 0:
            self.Reduce(sendbuf, out, op, root=0)
        else:
            self.Reduce(sendbuf, None, op, root=0)
        self.Bcast(out, root=0)

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Partition the communicator by ``color``; order ranks by
        ``(key, old rank)``.  Returns None for ``color=None``
        (MPI_UNDEFINED)."""
        triples = self.allgather((color, key, self._rank))
        seq = self._coll_seq  # advanced identically on every rank
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color)
        group = [self._group[r] for _k, r in members]
        my_index = [r for _k, r in members].index(self._rank)
        ctx = f"{self._context}/split{seq}:{color}"
        sub = Comm(self._circuit, group, my_index, ctx,
                   tuning=self._tuning)
        sub.bind(self.proc)
        return sub

    def Create_cart(self, dims, periods=None) -> "Comm":
        """Cartesian topology view (see :mod:`repro.mpi.cartesian`)."""
        from repro.mpi.cartesian import create_cart

        return create_cart(self, dims, periods)

    def dup(self) -> "Comm":
        """Duplicate with a fresh context (isolated traffic)."""
        triples = self.allgather(0)  # synchronise context generation
        del triples
        ctx = f"{self._context}/dup{self._coll_seq}"
        dup = Comm(self._circuit, list(self._group), self._rank, ctx,
                   tuning=self._tuning)
        dup.bind(self.proc)
        return dup
