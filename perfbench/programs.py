"""Rank programs the benchmark generates: plan interpreters.

A *plan* is a tuple of operation tuples, so a generated job is
``functools.partial(<interpreter>, plan)``.  The interpreters live at
module level: :func:`repro.perf.cache.fingerprint` keys a partial by the
function's bytecode plus the plan's contents, so the same plan keys the
same in every interpreter, and :func:`repro.mpi.phasec.lower` can read
the function's source for its static rank veto.

Plan operations:

* ``("shift", offset, nbytes, tag)`` - isend to ``rank + offset``,
  receive from ``rank - offset`` (mod P), wait;
* ``("compute", seconds)``;
* ``("allreduce", nbytes)``, ``("bcast", nbytes, root)``,
  ``("barrier",)``.

Each rank folds what it receives into an integer accumulator and
returns it, so ``JobResult.returns`` checks payload movement too.
"""

from __future__ import annotations

_MOD = 1_000_003


def _step(op, comm, acc):
    """Run one plan op other than a shift; return the new accumulator."""
    kind = op[0]
    if kind == "compute":
        yield from comm.compute(op[1])
    elif kind == "allreduce":
        total = yield from comm.allreduce(acc, nbytes=op[1])
        acc = (acc + total) % _MOD
    elif kind == "bcast":
        value = yield from comm.bcast(acc, root=op[2], nbytes=op[1])
        acc = (acc * 7 + value) % _MOD
    else:
        yield from comm.barrier()
    return acc


def run_plan(plan, comm):
    """Plan interpreter with no rank-dependent control flow: lowerable."""
    acc = comm.rank + 1
    for op in plan:
        if op[0] != "shift":
            acc = yield from _step(op, comm, acc)
            continue
        _, offset, nbytes, tag = op
        dest = (comm.rank + offset) % comm.size
        req = comm.isend(dest, nbytes, tag=tag, payload=acc)
        env = yield from comm.recv((comm.rank - offset) % comm.size, tag)
        yield from req.wait()
        acc = (acc * 31 + env.payload) % _MOD
    return acc


def run_plan_branchy(plan, comm):
    """:func:`run_plan` after a rank-dependent branch.

    Odd ranks compute a little longer first.  The branch vetoes vector
    lowering, so a compiled job replays.
    """
    if comm.rank % 2 == 1:
        yield from comm.compute(1e-6)
    return (yield from run_plan(plan, comm))


def run_plan_wildcard(plan, comm):
    """:func:`run_plan` with wildcard-source receives on every shift.

    Each rank is sent exactly one message per shift tag, so the
    wildcard match is unambiguous.  The receive stays in this function's
    own source, where the static profile sees it and vetoes the replay:
    a compiled job falls back to the stepped engine.
    """
    acc = comm.rank + 1
    for op in plan:
        if op[0] != "shift":
            acc = yield from _step(op, comm, acc)
            continue
        _, offset, nbytes, tag = op
        dest = (comm.rank + offset) % comm.size
        req = comm.isend(dest, nbytes, tag=tag, payload=acc)
        env = yield from comm.recv(None, tag)
        yield from req.wait()
        acc = (acc * 31 + env.payload) % _MOD
    return acc
