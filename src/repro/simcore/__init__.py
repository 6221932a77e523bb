"""Discrete-event simulation core.

A minimal, dependency-free discrete-event engine in the style of SimPy:
processes are Python generators that ``yield`` command objects
(:class:`Timeout`, :class:`WaitEvent`, :class:`Get`, :class:`Put`,
:class:`Acquire`) to an :class:`Engine` that advances a virtual clock.

Everything timing-related in :mod:`repro` — simulated MPI ranks, OpenMP
threads, offload transfers — executes on this substrate, so simulated
wall-clock numbers are causally consistent by construction.

Example
-------
>>> from repro.simcore import Engine, Timeout
>>> eng = Engine()
>>> def hello(env):
...     yield Timeout(1.5)
...     return env.now
>>> proc = eng.spawn(hello(eng))
>>> eng.run()
>>> proc.value
1.5
"""

from repro._lazy import lazy_exports

__all__ = [
    "Acquire",
    "AllOf",
    "Command",
    "Counter",
    "Engine",
    "Event",
    "Get",
    "Process",
    "Put",
    "Resource",
    "Store",
    "TimeSeries",
    "Timeout",
    "WaitEvent",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simcore.engine": ["Engine"],
        "repro.simcore.process": [
            "Acquire",
            "AllOf",
            "Command",
            "Get",
            "Process",
            "Put",
            "Timeout",
            "WaitEvent",
        ],
        "repro.simcore.resources": ["Event", "Resource", "Store"],
        "repro.simcore.trace": ["Counter", "TimeSeries"],
    },
)
