"""MPI collectives: correctness across rank counts, both data paths."""

import numpy as np
import pytest

from repro.mpi import MAX, MAXLOC, MIN, PROD, SUM, MpiError

from tests.mpi.conftest import run_spmd


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_barrier_synchronises(runtime, n):
    def body(proc, comm):
        proc.sleep(0.001 * comm.rank)  # staggered arrival
        comm.barrier()
        return comm.Wtime()

    times = run_spmd(runtime, n, body)
    # nobody leaves before the slowest arrives
    assert min(times) >= 0.001 * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_bcast_object(runtime, n):
    def body(proc, comm):
        data = {"key": [1, 2, 3]} if comm.rank == 0 else None
        return comm.bcast(data, root=0)

    results = run_spmd(runtime, n, body)
    assert all(r == {"key": [1, 2, 3]} for r in results)


@pytest.mark.parametrize("root", [0, 1, 2])
def test_bcast_nonzero_root(runtime, root):
    def body(proc, comm):
        data = f"from-{comm.rank}" if comm.rank == root else None
        return comm.bcast(data, root=root)

    results = run_spmd(runtime, 3, body)
    assert all(r == f"from-{root}" for r in results)


def test_Bcast_buffer(runtime):
    def body(proc, comm):
        buf = np.arange(64, dtype="i4") if comm.rank == 0 \
            else np.zeros(64, dtype="i4")
        comm.Bcast(buf, root=0)
        return buf.sum()

    results = run_spmd(runtime, 4, body)
    assert all(r == np.arange(64).sum() for r in results)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_gather(runtime, n):
    def body(proc, comm):
        return comm.gather(comm.rank ** 2, root=0)

    results = run_spmd(runtime, n, body)
    assert results[0] == [r * r for r in range(n)]
    assert all(r is None for r in results[1:])


def test_scatter(runtime):
    def body(proc, comm):
        items = [f"item{i}" for i in range(comm.size)] \
            if comm.rank == 0 else None
        return comm.scatter(items, root=0)

    results = run_spmd(runtime, 4, body)
    assert results == [f"item{i}" for i in range(4)]


def test_scatter_wrong_length_raises(runtime):
    from repro.mpi import MpiError

    def body(proc, comm):
        if comm.rank == 0:
            with pytest.raises(MpiError):
                comm.scatter([1], root=0)
            # unblock peers with the real scatter
            return comm.scatter([10, 20], root=0)
        return comm.scatter(None, root=0)

    assert run_spmd(runtime, 2, body) == [10, 20]


def test_bcast_buffer_size_mismatch_raises(runtime):
    """A rank whose Bcast buffer is the wrong size gets an MpiError;
    the tree still forwards the message to everyone else."""
    def body(proc, comm):
        n = 3 if comm.rank == 2 else 6
        buf = np.arange(n, dtype=np.int64)
        if comm.rank == 2:
            with pytest.raises(MpiError, match="24 bytes, message is 48"):
                comm.Bcast(buf, root=0)
            return None
        comm.Bcast(buf, root=0)
        return int(buf.sum())

    assert run_spmd(runtime, 4, body) == [15, 15, None, 15]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_allgather(runtime, n):
    def body(proc, comm):
        return comm.allgather(comm.rank * 10)

    results = run_spmd(runtime, n, body)
    expected = [r * 10 for r in range(n)]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alltoall(runtime, n):
    def body(proc, comm):
        out = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
        return out

    results = run_spmd(runtime, n, body)
    for dst, row in enumerate(results):
        assert row == [f"{src}->{dst}" for src in range(n)]


@pytest.mark.parametrize("n,op,expected", [
    (4, SUM, 0 + 1 + 2 + 3),
    (4, PROD, 1 * 2 * 3 * 4),   # rank+1 inputs
    (5, MAX, 4),
    (5, MIN, 0),
])
def test_reduce_ops(runtime, n, op, expected):
    def body(proc, comm):
        val = comm.rank + 1 if op is PROD else comm.rank
        return comm.reduce(val, op, root=0)

    results = run_spmd(runtime, n, body)
    assert results[0] == expected
    assert all(r is None for r in results[1:])


def test_reduce_maxloc(runtime):
    def body(proc, comm):
        value = [3, 9, 1, 9][comm.rank]
        return comm.reduce((value, comm.rank), MAXLOC, root=0)

    results = run_spmd(runtime, 4, body)
    # ties resolve to the lowest rank (MPI convention via >=)
    assert results[0] == (9, 1)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_allreduce(runtime, n):
    def body(proc, comm):
        return comm.allreduce(comm.rank, SUM)

    results = run_spmd(runtime, n, body)
    assert all(r == n * (n - 1) // 2 for r in results)


def test_Reduce_and_Allreduce_buffers(runtime):
    def body(proc, comm):
        send = np.full(16, comm.rank, dtype="f8")
        out = np.zeros(16, dtype="f8")
        comm.Allreduce(send, out, SUM)
        return out[0]

    results = run_spmd(runtime, 4, body)
    assert all(r == 6.0 for r in results)


def test_scan(runtime):
    def body(proc, comm):
        return comm.scan(comm.rank + 1, SUM)

    results = run_spmd(runtime, 5, body)
    assert results == [1, 3, 6, 10, 15]


def test_parallel_matvec_like_guide(runtime):
    """The mpi4py tutorial's allgather-based matrix-vector product."""
    p = 4
    m = 3  # local rows

    def body(proc, comm):
        rng = np.random.default_rng(42)  # same matrix everywhere
        a_full = rng.random((m * p, m * p))
        a_local = a_full[comm.rank * m:(comm.rank + 1) * m]
        x_full = np.arange(m * p, dtype="f8")
        x_local = x_full[comm.rank * m:(comm.rank + 1) * m]
        xg = np.concatenate(comm.allgather(x_local))
        return a_local @ xg

    results = run_spmd(runtime, p, body)
    rng = np.random.default_rng(42)
    a_full = rng.random((m * p, m * p))
    expected = a_full @ np.arange(m * p, dtype="f8")
    got = np.concatenate(results)
    np.testing.assert_allclose(got, expected)


def test_split_by_parity(runtime):
    def body(proc, comm):
        sub = comm.split(color=comm.rank % 2, key=comm.rank)
        total = sub.allreduce(comm.rank, SUM)
        return (sub.rank, sub.size, total)

    results = run_spmd(runtime, 6, body)
    for world_rank, (sub_rank, sub_size, total) in enumerate(results):
        assert sub_size == 3
        assert sub_rank == world_rank // 2
        expected = sum(r for r in range(6) if r % 2 == world_rank % 2)
        assert total == expected


def test_split_undefined_color(runtime):
    def body(proc, comm):
        color = None if comm.rank == 0 else 1
        sub = comm.split(color=color)
        if sub is None:
            return "undefined"
        return sub.allreduce(1, SUM)

    results = run_spmd(runtime, 3, body)
    assert results == ["undefined", 2, 2]


def test_dup_isolates_traffic(runtime):
    def body(proc, comm):
        dup = comm.dup()
        if comm.rank == 0:
            comm.send("on-orig", dest=1)
            dup.send("on-dup", dest=1)
            return None
        # receive from the dup first: contexts must not cross-match
        got_dup = dup.recv(source=0)
        got_orig = comm.recv(source=0)
        return (got_dup, got_orig)

    results = run_spmd(runtime, 2, body)
    assert results[1] == ("on-dup", "on-orig")


def test_barrier_latency_grows_logarithmically(runtime):
    """Fig. 8 mechanism: barrier cost grows with node count."""
    def body(proc, comm):
        comm.barrier()  # warm-up
        t0 = comm.Wtime()
        comm.barrier()
        return comm.Wtime() - t0

    t2 = max(run_spmd(runtime, 2, body))
    latencies = {}
    for n in (4, 8):
        from repro.net import Topology, build_cluster
        from repro.padicotm import PadicoRuntime

        topo = Topology()
        build_cluster(topo, "a", 8)
        with PadicoRuntime(topo) as rt:
            latencies[n] = max(run_spmd(rt, n, body))
    assert t2 < latencies[4] < latencies[8]
