"""The paper's evaluation framework: programming modes, software stacks,
the evaluator, sweeps and reporting.

This package is the "core contribution" layer of the reproduction: it
combines the machine models (:mod:`repro.machine`), the execution model
(:mod:`repro.execmodel`) and the simulated runtimes (:mod:`repro.mpi`,
:mod:`repro.openmp`) into the four programming modes of the paper's
Section 4 — native host, native Phi, offload and symmetric — and runs
workloads under them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Evaluator",
    "Measurement",
    "OffloadCostModel",
    "OffloadRegion",
    "OffloadReport",
    "POST_UPDATE",
    "PRE_UPDATE",
    "ProgrammingMode",
    "ResultSet",
    "SoftwareStack",
    "SymmetricRun",
    "SymmetricStep",
    "WorkPartition",
    "partition_zones",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.evaluator": ["Evaluator"],
        "repro.core.modes": ["ProgrammingMode"],
        "repro.core.offload": ["OffloadCostModel", "OffloadRegion", "OffloadReport"],
        "repro.core.results": ["Measurement", "ResultSet"],
        "repro.core.software": ["PRE_UPDATE", "POST_UPDATE", "SoftwareStack"],
        "repro.core.symmetric": [
            "SymmetricRun",
            "SymmetricStep",
            "WorkPartition",
            "partition_zones",
        ],
    },
)
