"""Topology-aware collective hierarchy (MPICH-G2 style, paper Fig. 8).

MPICH-G2 (Karonis et al.) showed that multi-site MPI collectives must be
*topology-depth aware*: a flat rank-order binomial tree crosses the WAN
O(log N) times per broadcast, while a two-level tree — cluster-local
binomial subtrees under a per-site *leader*, with only leaders talking
over the WAN — crosses it exactly ``sites - 1`` times.  This module
holds the site hierarchy the communicator routes through:

- :class:`CollTuning` — the per-communicator ``aware`` switch;
- :class:`SiteMap` — each group rank resolved to its host's topology
  ``site`` tag, with per-site member lists and the deterministic leader
  rule (lowest rank per site, except the root's site where the root
  itself leads, so data never takes an extra intra-site hop);
- :class:`CollShared` — the state all ranks of one communicator share:
  the real site map, the *schedule view* the collectives run over,
  lazily-established per-site subcircuits (the PadicoTM selector picks
  the site SAN for those, so intra-site tree edges ride Myrinet instead
  of the WAN fabric's uplinks), and the plain-integer WAN-crossing/byte
  counters behind ``Comm.coll_stats``.

Every collective has one two-level schedule.  Flat mode is not a second
code path: it is the same schedule over a one-site view of the whole
group, which degenerates to the classic rank-order binomial trees.

Rank-local ``Comm`` objects cannot share state directly, so
:func:`shared_state` caches one :class:`CollShared` per communicator
context on the (shared) Circuit object.  The counters are plain ints —
they perturb nothing when no monitor is attached (the obs-guard
contract); the ``mpi.wan_crossings`` / ``mpi.wan_bytes.<op>`` obs
counters are emitted by the communicator only under ``mon is not None``
guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.padicotm.abstraction.circuit import Circuit

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

__all__ = ["CollTuning", "CollStats", "SiteMap", "CollShared",
           "shared_state"]


@dataclass(frozen=True)
class CollTuning:
    """Collective-path tuning, fixed at communicator construction.

    ``aware``
        schedule collectives over the group's real sites (default).
        Flat mode, ``CollTuning(aware=False)``, schedules them over a
        one-site view of the group: the original rank-order binomial
        trees, kept as the WAN-crossing baseline.
    """

    aware: bool = True


class CollStats:
    """Per-communicator WAN traffic counters (plain ints/floats —
    maintained whether or not a monitor is attached)."""

    __slots__ = ("wan_crossings", "wan_bytes")

    def __init__(self) -> None:
        self.wan_crossings = 0
        self.wan_bytes: dict[str, float] = {}

    def count(self, op: str, nbytes: float) -> None:
        self.wan_crossings += 1
        self.wan_bytes[op] = self.wan_bytes.get(op, 0.0) + float(nbytes)


class SiteMap:
    """Group ranks resolved to topology sites.

    Sites are indexed in order of first appearance in rank order, so
    every rank derives the identical map without communicating."""

    def __init__(self, tags: list[str]):
        self.tags = tags
        self.sites: list[str] = []
        self.site_of: list[int] = []
        index: dict[str, int] = {}
        for tag in tags:
            si = index.get(tag)
            if si is None:
                si = index[tag] = len(self.sites)
                self.sites.append(tag)
            self.site_of.append(si)
        self.members: list[list[int]] = [[] for _ in self.sites]
        for rank, si in enumerate(self.site_of):
            self.members[si].append(rank)
        # contiguous == every site's ranks form one unbroken block, which
        # is what lets hierarchical reduce preserve flat operand order
        self.contiguous = all(
            m[-1] - m[0] + 1 == len(m) for m in self.members)

    @property
    def nsites(self) -> int:
        return len(self.sites)

    @property
    def multi_site(self) -> bool:
        return len(self.sites) > 1

    def leader(self, si: int, root: int) -> int:
        """Deterministic per-site leader for a collective rooted at
        ``root``: the root itself on its own site (no extra hop for the
        root's data), the lowest member rank elsewhere."""
        if si == self.site_of[root]:
            return root
        return self.members[si][0]

    def leaders(self, root: int) -> list[int]:
        return [self.leader(si, root) for si in range(self.nsites)]


class CollShared:
    """State shared by all ranks of one communicator (cached on the
    Circuit, see :func:`shared_state`)."""

    def __init__(self, circuit: Circuit, group: list[int], context: str,
                 tuning: CollTuning):
        self.stats = CollStats()
        #: the real site map: WAN crossings are counted against it in
        #: both modes
        self.sitemap = SiteMap(
            [circuit.members[g].host.site for g in group])
        #: the whole group as one site — flat mode's schedule view, and
        #: the fallback of reductions the hierarchy cannot reorder
        self.one_site = SiteMap([""] * len(group))
        #: the view every collective schedules over
        self.view = self.sitemap if tuning.aware else self.one_site
        self._circuit = circuit
        self._group = list(group)
        self._context = context
        self._site_circuits: dict[int, tuple[Circuit, dict[int, int]]] = {}

    def site_channel(self, si: int) -> tuple[Circuit, dict[int, int]]:
        """The per-site subcircuit and its group-rank -> local-rank map.

        Established lazily (first collective that routes an intra-site
        edge); the PadicoTM selector picks the best fabric connecting
        just the site's hosts — the site SAN on a grid topology."""
        got = self._site_circuits.get(si)
        if got is None:
            ranks = self.sitemap.members[si]
            procs: list["PadicoProcess"] = [
                self._circuit.members[self._group[r]] for r in ranks]
            sub = Circuit.establish(
                self._circuit.runtime,
                f"{self._context}|site:{self.sitemap.sites[si]}", procs)
            got = (sub, {r: i for i, r in enumerate(ranks)})
            self._site_circuits[si] = got
        return got


def shared_state(circuit: Circuit, group: list[int], context: str,
                 tuning: CollTuning) -> CollShared:
    """One :class:`CollShared` per communicator, shared across its
    rank-local ``Comm`` objects via a cache on the Circuit.

    The first rank to ask builds it; the tuning of later askers is
    ignored (SPMD discipline means they carry the same one anyway)."""
    cache = circuit.__dict__.setdefault("_coll_shared", {})
    key = (context, tuple(group))
    shared = cache.get(key)
    if shared is None:
        shared = cache[key] = CollShared(circuit, group, context, tuning)
    return shared
