"""The argsort-based ``_generic`` must equal the old masking pass.

The old implementation rescanned all ``n`` source indices once per
distinct destination owner (``owners == dst`` per destination); the new
one does a single stable argsort and cuts the runs.  The reference
implementation below is the pre-optimisation code, kept verbatim so the
equivalence is pinned against the real thing, not a paraphrase.  Its
transfers are index arrays; ``_generic`` turns unit runs into slices,
so both are compared as expanded positions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import Distribution, make_distribution
from repro.core.redistribution import (
    Transfer,
    _generic,
    redistribute_schedule,
)


def _generic_reference(source: Distribution,
                       target: Distribution) -> list[Transfer]:
    """The old per-destination masking implementation (pre-argsort)."""
    transfers: list[Transfer] = []
    for src in range(source.parts):
        gidx = source.global_indices(src)
        if len(gidx) == 0:
            continue
        owners = target.owner(gidx)
        src_local = source.local_of_global(src, gidx)
        for dst in np.unique(owners):
            mask = owners == dst
            g_sub = gidx[mask]
            transfers.append(Transfer(
                src, int(dst),
                src_local[mask],
                target.local_of_global(int(dst), g_sub)))
    return transfers


_dist_spec = st.one_of(
    st.tuples(st.just("block"), st.integers(1, 6)),
    st.tuples(st.just("cyclic"), st.integers(1, 6)),
    st.tuples(st.just("block-cyclic"), st.integers(1, 6),
              st.integers(1, 7)),
)


def _make(spec, length):
    kind, parts = spec[:2]
    bs = spec[2] if len(spec) > 2 else None
    return make_distribution(kind, parts, length, bs)


def _positions(local, size):
    """A transfer side (slice or index array) as the positions it
    selects in a local array of ``size`` elements."""
    return np.arange(size)[local]


@settings(max_examples=300, deadline=None)
@given(_dist_spec, _dist_spec, st.integers(0, 200))
def test_generic_equals_reference(src_spec, dst_spec, length):
    """Same transfers, same order, same index arrays — exactly."""
    source = _make(src_spec, length)
    target = _make(dst_spec, length)
    new = _generic(source, target)
    old = _generic_reference(source, target)
    assert len(new) == len(old)
    for t_new, t_old in zip(new, old):
        assert t_new.src == t_old.src
        assert t_new.dst == t_old.dst
        assert np.array_equal(
            _positions(t_new.src_local, source.local_size(t_new.src)),
            t_old.src_local)
        assert np.array_equal(
            _positions(t_new.dst_local, target.local_size(t_new.dst)),
            t_old.dst_local)


# ---------------------------------------------------------------------------
# slices vs index arrays (the wire path's view-vs-copy switch)
# ---------------------------------------------------------------------------

def test_generic_unit_runs_become_slices():
    """A unit-stride run of the generic fallback is planned as a slice:
    block-cyclic blocks wholly inside one source block are contiguous on
    both sides."""
    plan = redistribute_schedule(make_distribution("block", 2, 40, None),
                                 make_distribution("block-cyclic", 2, 40,
                                                   20))
    assert [(t.src, t.dst, t.src_local, t.dst_local)
            for t in plan.transfers] == [(0, 0, slice(0, 20), slice(0, 20)),
                                         (1, 1, slice(0, 20), slice(0, 20))]


def test_generic_scattered_runs_stay_arrays():
    """Block-cyclic plans whose runs span several blocks keep index
    arrays; indexing with them copies."""
    plan = redistribute_schedule(make_distribution("block", 2, 40, None),
                                 make_distribution("block-cyclic", 2, 40, 4))
    assert plan.transfers
    for t in plan.transfers:
        assert isinstance(t.src_local, np.ndarray)
        assert isinstance(t.dst_local, slice)   # whole local blocks
        assert np.array_equal(np.diff(t.src_local) > 0,
                              np.ones(t.size - 1, dtype=bool))


def test_block_block_transfers_are_sliceable():
    source = make_distribution("block", 3, 100, None)
    target = make_distribution("block", 4, 100, None)
    plan = redistribute_schedule(source, target)
    assert plan.transfers
    for t in plan.transfers:
        assert isinstance(t.src_local, slice)
        assert isinstance(t.dst_local, slice)


def test_cyclic_transfers_are_not_sliceable():
    source = make_distribution("cyclic", 2, 40, None)
    target = make_distribution("block", 2, 40, None)
    plan = redistribute_schedule(source, target)
    # cyclic part 0 owns every even global index: its local indices are
    # contiguous but the block-side placement is strided
    assert all(isinstance(t.src_local, slice) for t in plan.transfers)
    assert any(isinstance(t.dst_local, np.ndarray) for t in plan.transfers)
