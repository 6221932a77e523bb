"""NPB suite runner: execute the real benchmarks and/or price the
characterizations on the simulated machines."""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, Optional

from repro.errors import ConfigError, OutOfMemoryError
from repro.core.evaluator import Evaluator
from repro.core.results import ResultSet
from repro.machine.node import Device
from repro.npb.characterization import (
    MPI_BENCHMARKS,
    OPENMP_BENCHMARKS,
    class_c_kernel,
)
from repro.npb.common import NpbResult, check_rank_constraint

#: Benchmark name -> the module whose ``run`` executes it.  The kernels
#: need NumPy (CG also SciPy), so they are imported only by
#: :func:`run_real`; the figure datasets below price characterizations.
KERNELS = {
    "EP": "repro.npb.ep",
    "CG": "repro.npb.cg",
    "MG": "repro.npb.mg",
    "FT": "repro.npb.ft",
    "IS": "repro.npb.is_",
    "BT": "repro.npb.bt",
    "LU": "repro.npb.lu",
    "SP": "repro.npb.sp",
}


def run_real(
    benchmarks: Optional[Iterable[str]] = None, problem: str = "S"
) -> Dict[str, NpbResult]:
    """Execute the real NumPy implementations and return their results."""
    names = [b.upper() for b in (benchmarks or KERNELS)]
    out = {}
    for name in names:
        if name not in KERNELS:
            raise ConfigError(f"unknown benchmark {name!r}")
        out[name] = importlib.import_module(KERNELS[name]).run(problem)
    return out


def openmp_figure(evaluator: Optional[Evaluator] = None) -> ResultSet:
    """The Figure 19 dataset: Class C OpenMP on host (16 threads) and
    Phi0 (59·k threads)."""
    ev = evaluator or Evaluator()
    results = ResultSet()
    for b in OPENMP_BENCHMARKS:
        kernel = class_c_kernel(b)
        results.add(
            ev.native(Device.HOST, kernel, 16).with_config(benchmark=b)
        )
        for tpc in (1, 2, 3, 4):
            try:
                results.add(
                    ev.native(Device.PHI0, kernel, 59 * tpc).with_config(
                        benchmark=b, tpc=tpc
                    )
                )
            except OutOfMemoryError:
                continue
    return results


def mpi_figure(evaluator: Optional[Evaluator] = None) -> ResultSet:
    """The Figure 20 dataset: Class C MPI on Phi0 at the legal rank counts.

    Power-of-two benchmarks run at 64/128 ranks; BT/SP at the square
    counts 64/121/169/225; FT is absent — it cannot allocate (OOM).
    """
    ev = evaluator or Evaluator()
    results = ResultSet()
    for b in MPI_BENCHMARKS:
        kernel = class_c_kernel(b, mpi=True)
        ranks = (64, 121, 169, 225) if b in ("BT", "SP") else (64, 128)
        for r in ranks:
            check_rank_constraint(b, r)
            try:
                results.add(
                    ev.native(Device.PHI0, kernel, r).with_config(
                        benchmark=b, ranks=r
                    )
                )
            except OutOfMemoryError:
                # FT's fate on the Phi: recorded as an absent bar.
                break
    return results
