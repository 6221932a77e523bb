"""The paper's microbenchmark suite (Section 3), reimplemented on the models.

Each module produces the data series behind one or more figures:

* :mod:`repro.microbench.stream` — STREAM triad (Fig 4), plus a *real*
  NumPy STREAM that measures the machine running this code;
* :mod:`repro.microbench.memlatency` — load latency vs working set (Fig 5);
* :mod:`repro.microbench.membandwidth` — per-core load bandwidth (Fig 6);
* :mod:`repro.microbench.pingpong` — MPI latency/bandwidth over PCIe,
  pre/post software update (Figs 7–9);
* :mod:`repro.microbench.mpifuncs` — MPI_Send/Recv, Bcast, Allreduce,
  Allgather, Alltoall on host vs Phi (Figs 10–14);
* :mod:`repro.microbench.ompbench` — EPCC OpenMP overheads (Figs 15–16);
* :mod:`repro.microbench.iobench` — sequential I/O (Fig 17);
* :mod:`repro.microbench.offloadbw` — offload-mode PCIe bandwidth (Fig 18).
"""

from repro._lazy import lazy_exports

__all__ = [
    "MPI_BENCHMARKS",
    "bandwidth_sweep",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "fig9_data",
    "fig15_data",
    "fig16_data",
    "fig17_data",
    "fig18_data",
    "host_over_phi_factors",
    "latency_sweep",
    "mpi_function_sweep",
    "numpy_stream_triad",
    "stream_sweep",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.microbench.stream": ["fig4_data", "numpy_stream_triad", "stream_sweep"],
        "repro.microbench.memlatency": ["fig5_data", "latency_sweep"],
        "repro.microbench.membandwidth": ["bandwidth_sweep", "fig6_data"],
        "repro.microbench.pingpong": ["fig7_data", "fig8_data", "fig9_data"],
        "repro.microbench.mpifuncs": [
            "MPI_BENCHMARKS",
            "host_over_phi_factors",
            "mpi_function_sweep",
        ],
        "repro.microbench.ompbench": ["fig15_data", "fig16_data"],
        "repro.microbench.iobench": ["fig17_data"],
        "repro.microbench.offloadbw": ["fig18_data"],
    },
)
