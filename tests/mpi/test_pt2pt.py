"""MPI point-to-point: blocking, nonblocking, probing, statuses."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiError, Request, Status

from tests.mpi.conftest import run_spmd


def test_send_recv_python_objects(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        return comm.recv(source=0, tag=11)

    results = run_spmd(runtime, 2, body)
    assert results[1] == {"a": 7, "b": 3.14}


def test_send_recv_numpy_buffers(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            data = np.arange(1000, dtype="i4")
            comm.Send(data, dest=1, tag=77)
            return None
        buf = np.empty(1000, dtype="i4")
        comm.Recv(buf, source=0, tag=77)
        return buf.sum()

    results = run_spmd(runtime, 2, body)
    assert results[1] == np.arange(1000).sum()


def test_send_buffer_not_aliased(runtime):
    """Sender mutating its buffer after Send must not corrupt the message."""
    def body(proc, comm):
        if comm.rank == 0:
            data = np.ones(10, dtype="f8")
            comm.Send(data, dest=1)
            data[:] = -1  # mutate after send
            comm.barrier()
            return None
        comm.barrier()
        buf = np.empty(10, dtype="f8")
        comm.Recv(buf, source=0)
        return buf.copy()

    results = run_spmd(runtime, 2, body)
    assert np.all(results[1] == 1.0)


def test_tag_matching_out_of_order(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    results = run_spmd(runtime, 2, body)
    assert results[1] == ("first", "second")


def test_any_source_any_tag_with_status(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                st = Status()
                obj = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
                got.append((obj, st.Get_source(), st.Get_tag()))
            return sorted(got, key=lambda x: x[1])
        proc.sleep(0.001 * comm.rank)
        comm.send(f"hello-{comm.rank}", dest=0, tag=40 + comm.rank)
        return None

    results = run_spmd(runtime, 3, body)
    assert results[0] == [("hello-1", 1, 41), ("hello-2", 2, 42)]


def test_isend_irecv_waitall(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            reqs = [comm.isend(i * i, dest=1, tag=i) for i in range(4)]
            Request.waitall(reqs)
            return None
        reqs = [comm.irecv(source=0, tag=i) for i in range(4)]
        return Request.waitall(reqs)

    results = run_spmd(runtime, 2, body)
    assert results[1] == [0, 1, 4, 9]


def test_isend_overlaps_with_compute(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            big = np.zeros(2_400_000, dtype="u1")  # 10 ms on the wire
            t0 = comm.Wtime()
            req = comm.Isend(big, dest=1)
            proc.sleep(0.010)  # overlapped compute
            req.wait()
            return comm.Wtime() - t0
        buf = np.empty(2_400_000, dtype="u1")
        comm.Recv(buf, source=0)
        return None

    results = run_spmd(runtime, 2, body)
    assert results[0] < 0.012  # overlap, not 20 ms serial


def test_irecv_returns_object(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            req = comm.irecv(source=1)
            assert not req.test()
            val = req.wait()
            assert req.test()
            return val
        proc.sleep(0.001)
        comm.send([1, 2, 3], dest=0)
        return None

    results = run_spmd(runtime, 2, body)
    assert results[0] == [1, 2, 3]


def test_Irecv_buffer(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            buf = np.zeros(8, dtype="i8")
            req = comm.Irecv(buf, source=1)
            req.wait()
            return buf.tolist()
        comm.Send(np.arange(8, dtype="i8"), dest=0)
        return None

    results = run_spmd(runtime, 2, body)
    assert results[0] == list(range(8))


def test_sendrecv_exchanges_without_deadlock(runtime):
    def body(proc, comm):
        peer = 1 - comm.rank
        return comm.sendrecv(f"from{comm.rank}", dest=peer, source=peer)

    results = run_spmd(runtime, 2, body)
    assert results == ["from1", "from0"]


def test_iprobe(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            assert not comm.iprobe()
            comm.barrier()
            proc.sleep(0.01)  # let rank 1's message arrive
            assert comm.iprobe(source=1, tag=5)
            assert not comm.iprobe(source=1, tag=6)
            return comm.recv(source=1, tag=5)
        comm.barrier()
        comm.send("probed", dest=0, tag=5)
        return None

    results = run_spmd(runtime, 2, body)
    assert results[0] == "probed"


def test_send_to_invalid_rank_raises(runtime):
    def body(proc, comm):
        with pytest.raises(MpiError):
            comm.send("x", dest=5)
        return True

    assert run_spmd(runtime, 2, body) == [True, True]


def test_recv_buffer_size_mismatch_raises(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            comm.Send(np.zeros(10), dest=1)
            return None
        with pytest.raises(MpiError):
            comm.Recv(np.empty(5), source=0)
        return True

    assert run_spmd(runtime, 2, body)[1] is True


def test_irecv_checks_the_message_like_recv(runtime):
    """Irecv rejects a byte-size mismatch and a pickled message with
    the same MpiError as Recv, instead of failing inside numpy."""
    def body(proc, comm):
        if comm.rank == 0:
            comm.Send(np.arange(8, dtype=np.int64), dest=1)
            comm.send("pickled", dest=1)
            return None
        req = comm.Irecv(np.empty(4, dtype=np.int64), source=0)
        with pytest.raises(MpiError, match="32 bytes, message is 64"):
            req.wait()
        req = comm.Irecv(np.empty(4, dtype=np.int64), source=0)
        with pytest.raises(MpiError, match="pickled"):
            req.wait()
        return True

    assert run_spmd(runtime, 2, body)[1] is True


def test_mixing_paths_detected(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            comm.send("pickled", dest=1)
            return None
        with pytest.raises(MpiError):
            comm.Recv(np.empty(7), source=0)
        return True

    assert run_spmd(runtime, 2, body)[1] is True


def test_pickle_path_slower_than_buffer_path(runtime):
    """The guide's idiom: buffer-path (upper-case) is the fast path."""
    size = 4_000_000

    def body(proc, comm):
        if comm.rank == 0:
            arr = np.zeros(size, dtype="u1")
            t0 = comm.Wtime()
            comm.Send(arr, dest=1, tag=1)
            fast = comm.Wtime() - t0
            t0 = comm.Wtime()
            comm.send(arr, dest=1, tag=2)
            slow = comm.Wtime() - t0
            return (fast, slow)
        buf = np.empty(size, dtype="u1")
        comm.Recv(buf, source=0, tag=1)
        comm.recv(source=0, tag=2)
        return None

    fast, slow = run_spmd(runtime, 2, body)[0]
    assert slow > fast * 1.2


def test_unbound_comm_raises(runtime):
    from repro.mpi import create_world

    procs = [runtime.create_process(f"a{i}", f"p{i}") for i in range(2)]
    world = create_world(runtime, "w", procs)
    with pytest.raises(MpiError):
        world.comm(0).send("x", dest=1)
