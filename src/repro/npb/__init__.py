"""NAS Parallel Benchmarks 3.3 (Section 3.6) — real implementations plus
performance characterizations.

Two halves, mirroring the library's overall design:

* **Real NumPy implementations** (``ep``, ``cg``, ``mg``, ``ft``, ``is_``,
  ``bt``, ``lu``, ``sp``) that compute and self-verify.  EP, CG, MG and FT
  follow the NPB specification exactly — including the 46-bit linear
  congruential generator — so their verification values are the official
  ones.  BT, LU and SP are compact scalar-PDE versions preserving each
  benchmark's solver structure (ADI block-tridiagonal, SSOR, ADI
  pentadiagonal), verified against manufactured solutions.

* **Characterizations** (:mod:`repro.npb.characterization`) — per-benchmark
  :class:`~repro.execmodel.kernel.KernelSpec` resource signatures at
  Class C, which the evaluator prices on host/Phi for Figures 19–20 and
  the MG mode studies (Figs 24–27).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CLASSES",
    "NpbResult",
    "lcg_jump",
    "problem_class",
    "randlc",
    "ranlc_array",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.npb.common": ["CLASSES", "NpbResult", "problem_class"],
        "repro.npb.randdp": ["lcg_jump", "randlc", "ranlc_array"],
    },
)
