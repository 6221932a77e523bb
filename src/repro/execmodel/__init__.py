"""Kernel execution-time model (roofline + threading + vectorization).

Bridges workloads and machines: a :class:`~repro.execmodel.kernel.KernelSpec`
describes *what a code does to the hardware* (flops, memory traffic, vector
profile, parallelism); :func:`~repro.execmodel.roofline.kernel_time` prices
it on a :class:`~repro.machine.processor.Processor` at a given thread count.
The NPB and application characterizations (Figs 19–25) are built from these
pieces.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchBreakdown",
    "KernelSpec",
    "TimeBreakdown",
    "kernel_gflops",
    "kernel_time",
    "kernel_time_batch",
    "vector_efficiency",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.execmodel.batch": ["BatchBreakdown", "kernel_time_batch"],
        "repro.execmodel.kernel": ["KernelSpec"],
        "repro.execmodel.roofline": ["TimeBreakdown", "kernel_gflops", "kernel_time"],
        "repro.execmodel.vectorize": ["vector_efficiency"],
    },
)
