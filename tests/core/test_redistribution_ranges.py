"""Range-native plans: the same elements as the generic fallback, in
O(N + M) memory.

Block→block plans carry ``slice`` bounds computed in closed form.
``_generic`` (vectorised owner arithmetic over explicit index sets) is
the oracle: expanded over the local arrays, every range-native transfer
must select exactly the elements it selects, in the same order, and
planning must not allocate anything proportional to the vector length.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distribution import BlockDistribution
from repro.core.redistribution import _generic, redistribute_schedule


def _expand(local, size):
    return np.arange(size)[local]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 9),
       length=st.one_of(st.integers(0, 12), st.integers(0, 400)))
@example(n=1, m=1, length=0)
@example(n=1, m=7, length=3)
@example(n=7, m=1, length=5)
def test_range_plans_select_what_generic_selects(n, m, length):
    source = BlockDistribution(n, length)
    target = BlockDistribution(m, length)
    plan = redistribute_schedule(source, target).transfers
    oracle = _generic(source, target)
    assert [(t.src, t.dst) for t in plan] == \
        [(t.src, t.dst) for t in oracle]
    for t, o in zip(plan, oracle):
        assert isinstance(t.src_local, slice)
        assert isinstance(t.dst_local, slice)
        for got, want, size in (
                (t.src_local, o.src_local, source.local_size(t.src)),
                (t.dst_local, o.dst_local, target.local_size(t.dst))):
            assert np.array_equal(_expand(got, size), _expand(want, size))
        assert t.size == o.size


def test_planning_memory_is_independent_of_length():
    """An 8→8 plan of a 10**7-element vector.  Index arrays would take
    16 bytes per element (source and target positions, int64)."""
    length = 10 ** 7
    source = BlockDistribution(8, length)
    target = BlockDistribution(8, length)
    tracemalloc.start()
    try:
        plan = redistribute_schedule(source, target)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.size for t in plan.transfers) == length
    assert peak < 1 << 20
