"""Simulated MPI: an mpi4py-flavoured API running on the discrete-event engine.

Layers, bottom up:

* :mod:`repro.mpi.fabrics` — per-path transports (host shared memory, the
  Phi's on-die path at 1–4 ranks/core, PCIe CCL/SCIF DAPL providers) with
  calibrated α (latency), β (1/bandwidth) and congestion parameters;
* :mod:`repro.mpi.messages` — envelopes and (source, tag) matching;
* :mod:`repro.mpi.api` — :class:`~repro.mpi.api.Communicator` with
  ``send``/``recv``/``isend``/``irecv``/``barrier`` generator methods;
* :mod:`repro.mpi.collectives` — collective *algorithms* (binomial bcast,
  recursive doubling, ring, pairwise exchange) both as simulated programs
  and as closed-form cost models (used for the Figs 10–14 sweeps, and
  cross-checked against the simulation in the test suite);
* :mod:`repro.mpi.runtime` — the ``mpiexec`` equivalent: builds a job of
  N rank processes on a fabric and runs it to completion.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "CompileStats",
    "Fabric",
    "FabricParams",
    "MpiJob",
    "PciePathFabric",
    "Request",
    "compiled_mpiexec",
    "allgather_time",
    "allreduce_time",
    "alltoall_memory_required",
    "alltoall_time",
    "bcast_time",
    "host_fabric",
    "mpiexec",
    "pcie_fabric",
    "phi_fabric",
    "sendrecv_ring_time",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mpi.api": ["ANY_SOURCE", "ANY_TAG", "Communicator", "Request"],
        "repro.mpi.collectives": [
            "allgather_time",
            "allreduce_time",
            "alltoall_memory_required",
            "alltoall_time",
            "bcast_time",
            "sendrecv_ring_time",
        ],
        "repro.mpi.fabrics": ["Fabric", "FabricParams", "host_fabric", "phi_fabric"],
        "repro.mpi.protocols": ["PciePathFabric", "pcie_fabric"],
        "repro.mpi.runtime": ["MpiJob", "mpiexec"],
        "repro.mpi.compile": ["CompileStats", "compiled_mpiexec"],
    },
)
