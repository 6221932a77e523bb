"""Production-application proxies: OVERFLOW-2 and Cart3D (Section 3.7).

Each application has two faces, mirroring the NPB package:

* a **real mini-solver** exercising the same numerical structure
  (multi-zone implicit ADI transport for OVERFLOW; finite-volume Euler
  with Runge-Kutta for Cart3D), verified by manufactured solutions and
  conservation laws;
* a **performance model** reproducing the paper's Figures 21–23:
  decomposition sweeps, native host/Phi comparisons, and OVERFLOW's
  symmetric-mode runs under both software stacks.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Cart3dModel",
    "Cart3dSolver",
    "DATASET_SPECS",
    "GridSystem",
    "OverflowModel",
    "OverflowSolver",
    "dataset",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.apps.datasets": ["DATASET_SPECS", "GridSystem", "dataset"],
        "repro.apps.overflow": ["OverflowModel", "OverflowSolver"],
        "repro.apps.cart3d": ["Cart3dModel", "Cart3dSolver"],
    },
)
