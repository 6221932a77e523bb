"""Observability: span tracing, trace export, and timeline rendering.

The measurement substrate for the whole simulator stack.  A
:class:`Tracer` records begin/end spans against the *simulated* clock
with process / rank / device / category labels; instrumentation hooks in
:mod:`repro.simcore.engine`, :mod:`repro.mpi`, the offload path and the
application models feed it; exporters turn a run into a Chrome
trace-event JSON (loadable in Perfetto), an ASCII per-rank timeline, or a
SHA-256 digest used as a determinism oracle.

Quick start::

    from repro.obs import Tracer, trace_digest, write_chrome_trace
    from repro.mpi.fabrics import host_fabric
    from repro.mpi.runtime import mpiexec

    tracer = Tracer()
    mpiexec(8, host_fabric(), main, tracer=tracer)
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev
    trace_digest(tracer)                       # stable across runs

Or from the command line: ``python -m repro trace allreduce --out
trace.json --timeline``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NULL_CONTEXT",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "active",
    "chrome_trace",
    "render_comm_matrix",
    "render_timeline",
    "trace_digest",
    "trace_json",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": [
            "chrome_trace",
            "trace_digest",
            "trace_json",
            "write_chrome_trace",
        ],
        "repro.obs.timeline": ["render_comm_matrix", "render_timeline"],
        "repro.obs.tracer": [
            "NULL_CONTEXT",
            "NULL_TRACER",
            "NullTracer",
            "Span",
            "TraceEvent",
            "Tracer",
            "active",
        ],
    },
)
