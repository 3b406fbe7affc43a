"""Byte-determinism gate for the §4.4 CORBA+MPI workload.

The switch backends may only change *how* the kernel transfers control,
never what the simulation does: the flow log (every transfer the
network carried, with start/end times and sizes) and the observability
trace must come out byte-identical run to run on every backend that
can run the full stack.  Only the thread backend can (the trampoline
rejects nested-frame blocking by design); backend-to-backend parity on
a coroutine workload lives in ``tests/sim/test_backends.py``.

The workload is the paper's §4.4 cohabitation shape: CORBA and MPI in
the same two PadicoTM processes, transferring over the same Myrinet NIC
at the same instant.
"""

import json

import numpy as np

from repro.corba import OMNIORB4, Orb, compile_idl
from repro.mpi import create_world, spmd
from repro.net import Topology, build_cluster
from repro.obs import TraceRecorder
from repro.obs.export import chrome_trace
from repro.padicotm import PadicoRuntime
from repro.sim import SimKernel, available_backends

IDL = """
module Bench {
    typedef sequence<octet> Blob;
    interface Sink { void push(in Blob data); };
};
"""

#: backends able to run the full PadicoTM stack (the trampoline cannot:
#: the sync primitives block from nested call frames by design)
FULL_STACK_BACKENDS = [n for n in available_backends() if n != "trampoline"]


def _run_cohabitation(backend):
    """CORBA push + MPI send sharing one NIC; returns the trace bytes."""
    kernel = SimKernel(backend=backend)
    topo = Topology()
    build_cluster(topo, "a", 2)
    rt = PadicoRuntime(topo, kernel=kernel)
    recorder = rt.observe(TraceRecorder())

    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    idl = compile_idl(IDL)
    s_orb = Orb(p1, OMNIORB4, idl)
    s_orb.start()
    c_orb = Orb(p0, OMNIORB4, compile_idl(IDL))

    class Sink(s_orb.servant_base("Bench::Sink")):
        def push(self, data):
            pass

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    world = create_world(rt, "w", [p0, p1])
    size = 1_000_000
    start_gate = 0.001
    results = {}

    def corba_main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"")  # warm up connection
        proc.sleep(start_gate - rt.kernel.now)
        stub.push(bytes(size))
        results["corba_done"] = rt.kernel.now

    def mpi_main(proc, comm):
        comm.bind(proc)
        if comm.rank == 0:
            proc.sleep(start_gate - rt.kernel.now)
            comm.Send(np.zeros(size, dtype="u1"), dest=1)
            results["mpi_done"] = rt.kernel.now
        else:
            buf = np.empty(size, dtype="u1")
            comm.Recv(buf, source=0)

    p0.spawn(corba_main)
    spmd(world, mpi_main)
    rt.run()
    rt.shutdown()

    flow_bytes = repr(rt.network.flow_log).encode()
    obs_bytes = json.dumps(chrome_trace(recorder), sort_keys=True).encode()
    return flow_bytes, obs_bytes, results


def test_workload_is_rerun_deterministic_per_backend():
    """Same backend, fresh kernel: the bytes must be stable run to
    run."""
    for name in FULL_STACK_BACKENDS:
        assert _run_cohabitation(name) == _run_cohabitation(name), name
