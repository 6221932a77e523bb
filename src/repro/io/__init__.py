"""Storage stack models: NFS from the host, NFS-over-virtio from the Phi.

Reproduces Section 6.6: I/O on a Phi runs through the MPSS TCP/IP stack
virtualized over PCIe, so its sequential bandwidth is the *chained*
throughput of the NFS server and the virtio hop — 2.6× (write) to 3.9×
(read) slower than the host's direct path.  The paper's workaround —
ship data to the host over MPI/SCIF and write from there — is also
modeled.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FilesystemView",
    "NfsModel",
    "SeqRWBenchmark",
    "maia_nfs",
    "workaround_bandwidth",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.io.filesystem": ["FilesystemView", "NfsModel", "maia_nfs"],
        "repro.io.seqrw": ["SeqRWBenchmark", "workaround_bandwidth"],
    },
)
