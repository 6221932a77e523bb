"""MPI correctness checking: static lint + dynamic race/match verification.

The paper's four programming modes (native host, native Phi, offload,
symmetric) all hinge on correctly written MPI programs, and the early Phi
reports agree that porting *bugs*, not hardware, dominated bring-up time.
This package is the MUST/ISP-style correctness layer for the simulated
MPI stack:

* :mod:`repro.analyze.staticcheck` — an AST linter over user rank
  functions (any function driving a simulated
  :class:`~repro.mpi.api.Communicator`) that flags the classic misuse
  patterns before a run: dropped/unwaited ``isend``/``irecv`` requests,
  collective sequences that diverge across ``if comm.rank == ...``
  branches, sends with no structurally matching receive, send/receive
  loop-bound mismatches, blocking send cycles (rendezvous deadlock), and
  generator methods called without ``yield from``.  Each diagnostic
  carries a stable ``RPA0xx`` code, a location, and a fix hint.

* :mod:`repro.analyze.verifier` — a dynamic pass that arms an
  :class:`~repro.mpi.runtime.MpiJob` with per-rank vector clocks to
  detect wildcard-receive message races (two concurrent sends both
  matching one ``ANY_SOURCE`` receive), unmatched envelopes and leaked
  non-blocking requests at finalize, and cross-rank collective-sequence
  mismatches — reported through the existing
  :class:`~repro.obs.tracer.Tracer` as instants and summarized in a
  :class:`~repro.analyze.verifier.VerifyReport` (JSON + text).

* :mod:`repro.analyze.unitscheck` — a small repo-specific lint that
  flags raw-float arithmetic mixing :mod:`repro.units` quantities
  (seconds vs bytes) in the model layers.

Command line: ``python -m repro check <file|dir>`` (static),
``python -m repro check <experiment> --dynamic`` (verifier), and
``python -m repro check <dir> --units``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CODES",
    "Diagnostic",
    "Issue",
    "RankProgramProfile",
    "Verifier",
    "VerifyReport",
    "check_file",
    "check_paths",
    "check_source",
    "check_units_paths",
    "check_units_source",
    "rank_program_profile",
    "render_diagnostics",
    "verify_mpiexec",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analyze.staticcheck": [
            "CODES",
            "Diagnostic",
            "RankProgramProfile",
            "check_file",
            "check_paths",
            "check_source",
            "rank_program_profile",
            "render_diagnostics",
        ],
        "repro.analyze.unitscheck": ["check_units_paths", "check_units_source"],
        "repro.analyze.verifier": [
            "Issue",
            "Verifier",
            "VerifyReport",
            "verify_mpiexec",
        ],
    },
)
