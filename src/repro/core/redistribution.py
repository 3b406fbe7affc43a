"""Redistribution planning: who sends which indices to whom.

Given a source distribution over N client nodes and a target
distribution over M server nodes of the same global index space, the
plan lists every required :class:`Transfer`.  A block source (every
GridCCM source) plans against a block target in closed form: O(N + M)
Python ints at any length, one ``slice`` per side.  Other pairs fall
back to vectorised owner arithmetic.  All nodes can compute the
full plan independently (it depends only on the two distributions),
which is what lets every process participate in the transfer with no
coordination — the paper's "all processes of a parallel component
participate to inter-component communications, to avoid bottlenecks".

§4.2.2: the redistribution *site* — client side, server side, or during
communication — is a policy decision; :func:`choose_redistribution_site`
implements the paper's feasibility (memory) / efficiency (network
performance) heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distribution import (
    BlockDistribution,
    Distribution,
    DistributionError,
)


@dataclass(frozen=True, eq=False)
class Transfer:
    """One message of a redistribution.

    ``src_local``/``dst_local`` select equally many elements of the
    source part's and the target part's local arrays: a unit ``slice``
    with explicit non-negative bounds (indexing yields a view), or an
    index array for a run of the generic fallback that is not one.
    """

    src: int
    dst: int
    src_local: slice | np.ndarray
    dst_local: slice | np.ndarray

    @property
    def size(self) -> int:
        ix = self.src_local
        return ix.stop - ix.start if isinstance(ix, slice) else len(ix)


@dataclass
class RedistributionPlan:
    """All transfers from ``source`` to ``target`` distribution."""

    source: Distribution
    target: Distribution
    transfers: list[Transfer]

    def outgoing(self, src: int) -> list[Transfer]:
        return [t for t in self.transfers if t.src == src]

    def incoming(self, dst: int) -> list[Transfer]:
        return [t for t in self.transfers if t.dst == dst]

    def apply(self, locals_in: list[np.ndarray]) -> list[np.ndarray]:
        """Execute the plan in-memory (reference semantics for tests).

        ``locals_in[p]`` is part p's local array under ``source``;
        returns the local arrays under ``target``.
        """
        if len(locals_in) != self.source.parts:
            raise DistributionError(
                f"expected {self.source.parts} local arrays")
        dtype = locals_in[0].dtype if locals_in else np.float64
        out = [np.zeros(self.target.local_size(p), dtype=dtype)
               for p in range(self.target.parts)]
        for t in self.transfers:
            out[t.dst][t.dst_local] = locals_in[t.src][t.src_local]
        return out


def redistribute_schedule(source: Distribution,
                          target: Distribution) -> RedistributionPlan:
    """Compute the transfer schedule from ``source`` to ``target``."""
    if source.length != target.length:
        raise DistributionError(
            f"length mismatch: {source.length} != {target.length}")
    if isinstance(source, BlockDistribution) and \
            isinstance(target, BlockDistribution):
        transfers = _block_block(source, target)
    else:
        transfers = _generic(source, target)
    return RedistributionPlan(source, target, transfers)


def _block_block(source: BlockDistribution,
                 target: BlockDistribution) -> list[Transfer]:
    """Closed-form interval intersection: O(N + M) unit slices.

    Empty target blocks only trail, so every target part between the
    owners of a source block's ends overlaps it."""
    transfers: list[Transfer] = []
    for src in range(source.parts):
        s0, s1 = source.start(src), source.end(src)
        if s0 == s1:
            continue
        for dst in range(target.owner(s0), target.owner(s1 - 1) + 1):
            t0, t1 = target.start(dst), target.end(dst)
            lo, hi = max(s0, t0), min(s1, t1)
            transfers.append(Transfer(src, dst, slice(lo - s0, hi - s0),
                                      slice(lo - t0, hi - t0)))
    return transfers


def _generic(source: Distribution, target: Distribution) -> list[Transfer]:
    """Vectorised owner arithmetic for any distribution pair.

    One stable argsort of the owner array replaces the per-destination
    masking pass (which rescanned all ``n`` indices once per distinct
    owner).  A stable sort keeps equal-owner indices in ascending
    position order, so each run of the sorted owner array is exactly
    the index subset the old ``owners == dst`` mask selected, in the
    same order — the equality test in tests/core/ pins that down.
    """
    transfers: list[Transfer] = []
    for src in range(source.parts):
        gidx = source.global_indices(src)
        if len(gidx) == 0:
            continue
        owners = target.owner(gidx)
        src_local = source.local_of_global(src, gidx)
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        cut = np.flatnonzero(np.diff(sorted_owners)) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(sorted_owners)]))
        for s, e in zip(starts, ends):
            sel = order[s:e]
            dst = int(sorted_owners[s])
            transfers.append(Transfer(
                src, dst, _run(src_local[sel]),
                _run(target.local_of_global(dst, gidx[sel]))))
    return transfers


def _run(idx: np.ndarray) -> slice | np.ndarray:
    """``idx`` as a unit slice when it is one; exact because every run
    ``_generic`` builds is strictly increasing."""
    first = int(idx[0])
    if int(idx[-1]) - first == len(idx) - 1:
        return slice(first, first + len(idx))
    return idx


# ---------------------------------------------------------------------------
# placement policy (§4.2.2)
# ---------------------------------------------------------------------------

CLIENT_SIDE = "client"
SERVER_SIDE = "server"
IN_TRANSIT = "in-transit"


def choose_redistribution_site(nbytes: float,
                               client_free_memory: float,
                               server_free_memory: float,
                               client_net_bandwidth: float,
                               server_net_bandwidth: float,
                               ) -> str:
    """Where should the data be rearranged?

    The paper: "It can perform a redistribution of the data on the
    client side, on the server side or during the communication between
    the client and the server.  The decision depends on several
    constraints like feasibility (mainly memory requirements) and
    efficiency (client network performance versus server network
    performance)."

    - rearranging on a side needs roughly one extra copy of the data in
      that side's memory (feasibility);
    - otherwise prefer rearranging on the side with the *faster*
      internal network, since rearrangement costs intra-component
      traffic there (efficiency);
    - if neither side has the memory, stream pieces and rearrange
      in-transit (no full extra copy, but per-piece overhead).
    """
    client_ok = client_free_memory >= nbytes
    server_ok = server_free_memory >= nbytes
    if not client_ok and not server_ok:
        return IN_TRANSIT
    if client_ok and not server_ok:
        return CLIENT_SIDE
    if server_ok and not client_ok:
        return SERVER_SIDE
    return (CLIENT_SIDE if client_net_bandwidth >= server_net_bandwidth
            else SERVER_SIDE)
