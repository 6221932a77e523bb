"""Fault injection and graceful degradation for simulated campaigns.

Build a :class:`FaultPlan` out of :class:`LinkDegradation`,
:class:`RankCrash`, :class:`Straggler` and :class:`MemoryPressure`
faults, then hand it to ``mpiexec(..., fault_plan=plan)``, an
``Evaluator(fault_plan=plan)`` or a sweep.  :func:`pre_update_plan`
expresses the paper's pre-update MPSS stack as link degradation over the
post-update baseline (gated by ``benchmarks/bench_fault_equivalence.py``
against Figs 7–9).  See ``docs/ROBUSTNESS.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FaultPlan",
    "LinkDegradation",
    "MemoryPressure",
    "RankCrash",
    "Straggler",
    "pre_update_plan",
    "DegradedFabric",
    "DegradedPciePathFabric",
    "arm",
    "degrade",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.plan": [
            "FaultPlan",
            "LinkDegradation",
            "MemoryPressure",
            "RankCrash",
            "Straggler",
            "pre_update_plan",
        ],
        "repro.faults.inject": [
            "DegradedFabric",
            "DegradedPciePathFabric",
            "arm",
            "degrade",
        ],
    },
)
