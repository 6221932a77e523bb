"""repro — a performance-model reproduction of the SC'13 Maia evaluation.

Saini et al., *"An Early Performance Evaluation of Many Integrated Core
Architecture Based SGI Rackable Computing System"*, SC 2013, measured a
host (2× Intel Xeon E5-2670) + coprocessor (2× Intel Xeon Phi 5110P)
node across microbenchmarks, the NAS Parallel Benchmarks, and two NASA
CFD applications.  This library rebuilds that study as software:

* :mod:`repro.machine` — parameterized hardware models (Table 1),
* :mod:`repro.simcore` — a discrete-event engine,
* :mod:`repro.mpi` / :mod:`repro.openmp` — simulated programming runtimes,
* :mod:`repro.execmodel` — roofline-style kernel pricing,
* :mod:`repro.core` — the four programming modes and the evaluator,
* :mod:`repro.microbench` — the paper's microbenchmark suite,
* :mod:`repro.npb` — real NumPy NAS Parallel Benchmarks + characterizations,
* :mod:`repro.apps` — OVERFLOW / Cart3D proxy applications,
* :mod:`repro.paperdata` — every number the paper reports.

Quickstart
----------
>>> from repro.machine import maia_node, Device
>>> node = maia_node()
>>> node.peak_flops(Device.PHI0) / 1e9
1008.0
"""

from repro._lazy import lazy_exports
from repro.version import __version__

__all__ = [
    "Device",
    "Evaluator",
    "KernelSpec",
    "POST_UPDATE",
    "PRE_UPDATE",
    "SoftwareStack",
    "__version__",
    "host_fabric",
    "maia_node",
    "maia_system",
    "mpiexec",
    "phi_fabric",
]

# Top-level convenience API: the objects a session almost always starts
# with.  Subsystem internals stay behind their subpackages.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.evaluator": ["Evaluator"],
        "repro.core.software": ["POST_UPDATE", "PRE_UPDATE", "SoftwareStack"],
        "repro.execmodel.kernel": ["KernelSpec"],
        "repro.machine.node": ["Device"],
        "repro.machine.presets": ["maia_node", "maia_system"],
        "repro.mpi.fabrics": ["host_fabric", "phi_fabric"],
        "repro.mpi.runtime": ["mpiexec"],
    },
)
