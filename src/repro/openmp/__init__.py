"""Simulated OpenMP runtime and construct overhead models.

Reproduces the paper's Section 6.5 methodology (the EPCC-style
microbenchmarks): construct overhead is defined as ``Tp − Ts/p`` — the
parallel time minus the ideal serial share.  The cost models price each
construct from a per-processor synchronization "hop" (a cache-line
hand-off between threads), which is an order of magnitude more expensive
on the Phi (slow in-order cores synchronizing over the on-die ring) than
on the host — the paper's headline OpenMP finding.

Modules:

* :mod:`repro.openmp.affinity` — compact/balanced/scatter thread placement;
* :mod:`repro.openmp.constructs` — synchronization construct overheads (Fig 15);
* :mod:`repro.openmp.scheduling` — STATIC/DYNAMIC/GUIDED loop scheduling
  (Fig 16) and exact iteration-coverage schedules;
* :mod:`repro.openmp.runtime` — a discrete-event thread team.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CONSTRUCTS",
    "Placement",
    "SCHEDULES",
    "Team",
    "construct_overhead",
    "iteration_schedule",
    "scheduling_overhead",
    "sync_hop",
    "thread_map",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.openmp.affinity": ["Placement", "thread_map"],
        "repro.openmp.constructs": ["CONSTRUCTS", "construct_overhead", "sync_hop"],
        "repro.openmp.scheduling": [
            "SCHEDULES",
            "iteration_schedule",
            "scheduling_overhead",
        ],
        "repro.openmp.runtime": ["Team"],
    },
)
