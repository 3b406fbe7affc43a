"""Property-based and directed tests for 1D distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    DistributionError,
    make_distribution,
)

DISTS = st.one_of(
    st.tuples(st.just("block"), st.integers(1, 8), st.integers(0, 200)),
    st.tuples(st.just("cyclic"), st.integers(1, 8), st.integers(0, 200)),
    st.tuples(st.just("block-cyclic"), st.integers(1, 8),
              st.integers(0, 200), st.integers(1, 9)),
)


def _make(spec):
    kind, parts, length = spec[:3]
    bs = spec[3] if len(spec) > 3 else None
    return make_distribution(kind, parts, length, bs)


@settings(max_examples=200, deadline=None)
@given(DISTS)
def test_partition_property(spec):
    """Every global index is owned by exactly one part, and the owner
    agrees with global_indices / local_of_global round-trips."""
    dist = _make(spec)
    seen = np.full(dist.length, -1, dtype=np.int64)
    total = 0
    for part in range(dist.parts):
        gidx = dist.global_indices(part)
        assert dist.local_size(part) == len(gidx)
        total += len(gidx)
        assert np.all(np.diff(gidx) > 0)  # sorted, unique
        if len(gidx):
            assert np.all(dist.owner(gidx) == part)
            local = dist.local_of_global(part, gidx)
            assert np.array_equal(np.sort(local),
                                  np.arange(len(gidx)))
        seen[gidx] = part
    assert total == dist.length
    assert np.all(seen >= 0)


def test_block_sizes_balanced():
    d = BlockDistribution(3, 10)
    assert [d.local_size(p) for p in range(3)] == [4, 3, 3]
    assert d.start(0) == 0 and d.end(0) == 4
    assert d.start(2) == 7 and d.end(2) == 10


def test_block_owner_scalar_and_array():
    d = BlockDistribution(2, 10)
    assert d.owner(0) == 0
    assert d.owner(5) == 1
    assert np.array_equal(d.owner(np.array([0, 4, 5, 9])), [0, 0, 1, 1])


def test_cyclic_round_robin():
    d = CyclicDistribution(3, 7)
    assert np.array_equal(d.global_indices(0), [0, 3, 6])
    assert np.array_equal(d.global_indices(2), [2, 5])
    assert d.owner(4) == 1
    assert d.local_size(0) == 3
    assert d.local_size(1) == 2


def test_block_cyclic():
    d = BlockCyclicDistribution(2, 10, block_size=2)
    # blocks: [0,1]->0 [2,3]->1 [4,5]->0 [6,7]->1 [8,9]->0
    assert np.array_equal(d.global_indices(0), [0, 1, 4, 5, 8, 9])
    assert d.owner(3) == 1
    assert np.array_equal(
        d.local_of_global(0, np.array([0, 1, 4, 5, 8, 9])),
        [0, 1, 2, 3, 4, 5])


def test_validation():
    with pytest.raises(DistributionError):
        BlockDistribution(0, 10)
    with pytest.raises(DistributionError):
        BlockDistribution(2, -1)
    with pytest.raises(DistributionError):
        BlockCyclicDistribution(2, 10, 0)
    with pytest.raises(DistributionError):
        BlockDistribution(2, 10).owner(10)
    with pytest.raises(DistributionError):
        BlockDistribution(2, 10).global_indices(2)
    with pytest.raises(DistributionError):
        make_distribution("block-cyclic", 2, 10)
    with pytest.raises(DistributionError):
        make_distribution("weird", 2, 10)


def test_equality():
    assert BlockDistribution(2, 10) == BlockDistribution(2, 10)
    assert BlockDistribution(2, 10) != BlockDistribution(3, 10)
    assert BlockDistribution(2, 10) != CyclicDistribution(2, 10)


# grid that includes empty vectors and fewer elements than parts
_SMALL = st.integers(0, 40)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), _SMALL)
def test_block_closed_forms_match_index_sets(parts, length):
    """start/end/local_size and scalar/array owner are int arithmetic;
    pin them to an independent HPF BLOCK split (np.array_split gives
    the first ``length % parts`` parts one extra element)."""
    dist = BlockDistribution(parts, length)
    split = np.array_split(np.arange(length, dtype=np.int64), parts)
    offset = 0
    for part, gidx in enumerate(split):
        assert (dist.start(part), dist.end(part)) == \
            (offset, offset + len(gidx))
        assert dist.local_size(part) == len(gidx)
        assert np.array_equal(dist.global_indices(part), gidx)
        assert [dist.owner(int(g)) for g in gidx] == [part] * len(gidx)
        if len(gidx):
            assert np.array_equal(dist.owner(gidx),
                                  np.full(len(gidx), part))
        offset += len(gidx)
