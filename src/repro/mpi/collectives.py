"""MPI collective operations: executable algorithms + closed-form costs.

Two coupled halves:

1. **Algorithms** — generator functions over the simulated
   :class:`~repro.mpi.api.Communicator`, implementing the textbook
   algorithms Intel MPI uses at these scales: binomial broadcast/reduce,
   recursive-doubling allreduce/allgather, ring allgather for large
   blocks, pairwise-exchange alltoall.  They move real payloads, so the
   test suite verifies collective *semantics* against NumPy references.

2. **Cost models** — closed-form times for the same algorithms on a
   fabric's α–β parameters.  The figure sweeps (Figs 10–14) use these
   (running 236 simulated ranks per sample would be wasteful), and the
   test suite checks them against the simulated algorithms at small rank
   counts so the two halves cannot drift apart.

The allgather algorithm switch (recursive doubling → ring) at a 2 KiB
block is the paper's "sudden jump in time at 2 KB and 4 KB message size
… due to a change in [algorithm] used in MPI_Allgather" (Section 6.4.4).
The alltoall memory model reproduces its out-of-memory failure beyond
4 KiB at 236 ranks (Section 6.4.5).
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Generator, List, Optional

from repro.errors import ConfigError, OutOfMemoryError
from repro.mpi.api import Communicator
from repro.perf.batch import get_numpy
from repro.units import GiB, KiB

#: Block size at which allgather switches from recursive doubling to ring.
ALLGATHER_RING_SWITCH = 2 * KiB

#: Message size at which bcast/allreduce switch to the bandwidth-optimal
#: (scatter + allgather / Rabenseifner) algorithms.
LARGE_MESSAGE_SWITCH = 32 * KiB

# Intel-MPI-like internal memory footprint per connected rank pair:
# a fixed connection context plus staging buffers proportional to the
# message size, capped at a pipeline chunk.
CONN_BASE = 64 * KiB
STAGING_MULT = 16
STAGING_CAP = 64 * KiB

_TAG_COLL = -2000  # tag space reserved for collective traffic


def _default_op(op: Optional[Callable]) -> Callable:
    return operator.add if op is None else op


def _log2_rounds(p: int) -> int:
    return max(1, math.ceil(math.log2(p))) if p > 1 else 0


# ==========================================================================
# Executable algorithms
# ==========================================================================


def bcast(comm: Communicator, value: Any, root: int = 0, nbytes: int = 8) -> Generator:
    """Broadcast; every rank returns the root's value.

    Binomial tree for small messages; scatter + ring-allgather (van de
    Geijn) for large ones, which halves the bandwidth term.
    """
    p = comm.size
    if p == 1:
        return value
    if nbytes > LARGE_MESSAGE_SWITCH:
        return (yield from _bcast_scatter_allgather(comm, value, root, nbytes))
    vrank = (comm.rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            src = (vrank - mask + root) % p
            env = yield from comm.recv(source=src, tag=_TAG_COLL)
            value = env.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            dest = (vrank + mask + root) % p
            yield from comm.send(dest, nbytes, tag=_TAG_COLL, payload=value)
        mask >>= 1
    return value


def _bcast_scatter_allgather(
    comm: Communicator, value: Any, root: int, nbytes: int
) -> Generator:
    """Large-message broadcast: scatter 1/p-size chunks down a binomial
    tree, then ring-allgather them back together."""
    p = comm.size
    chunk = max(1, nbytes // p)
    chunks = [value] * p if comm.rank == root else None
    part = yield from scatter(comm, chunks, root=root, nbytes=chunk)
    parts = yield from _allgather_ring(comm, part, chunk)
    return parts[root]


def reduce(
    comm: Communicator,
    value: Any,
    op: Optional[Callable] = None,
    root: int = 0,
    nbytes: int = 8,
) -> Generator:
    """Binomial-tree reduction; ``root`` returns the combined value,
    everyone else ``None``."""
    op = _default_op(op)
    p = comm.size
    vrank = (comm.rank - root) % p
    result = value
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = (vrank - mask + root) % p
            yield from comm.send(dest, nbytes, tag=_TAG_COLL - 1, payload=result)
            return None
        partner = vrank + mask
        if partner < p:
            env = yield from comm.recv(
                source=(partner + root) % p, tag=_TAG_COLL - 1
            )
            yield from comm.compute(comm.fabric(env.source).reduce_time(nbytes))
            result = op(result, env.payload)
        mask <<= 1
    return result


def allreduce(
    comm: Communicator,
    value: Any,
    op: Optional[Callable] = None,
    nbytes: int = 8,
) -> Generator:
    """Recursive-doubling allreduce (MPICH-style non-power-of-two folding).

    With ``p = 2^m + r``: the first ``2r`` ranks fold pairwise so ``2^m``
    ranks run the doubling exchange, then results fan back out.
    """
    op = _default_op(op)
    p = comm.size
    if p == 1:
        return value
    m = int(math.log2(p))
    pow2 = 1 << m
    r = p - pow2
    rank = comm.rank
    result = value
    new_rank = -1  # surviving-rank id within the power-of-two group

    if rank < 2 * r:
        if rank % 2 == 0:  # folds into its odd neighbour, waits for answer
            yield from comm.send(rank + 1, nbytes, tag=_TAG_COLL - 2, payload=result)
            env = yield from comm.recv(source=rank + 1, tag=_TAG_COLL - 3)
            return env.payload
        env = yield from comm.recv(source=rank - 1, tag=_TAG_COLL - 2)
        yield from comm.compute(comm.fabric(rank - 1).reduce_time(nbytes))
        result = op(result, env.payload)
        new_rank = rank // 2
    else:
        new_rank = rank - r

    mask = 1
    while mask < pow2:
        new_partner = new_rank ^ mask
        partner = new_partner * 2 + 1 if new_partner < r else new_partner + r
        req = comm.isend(partner, nbytes, tag=_TAG_COLL - 4, payload=result)
        env = yield from comm.recv(source=partner, tag=_TAG_COLL - 4)
        yield from req.wait()
        yield from comm.compute(comm.fabric(partner).reduce_time(nbytes))
        result = op(result, env.payload)
        mask <<= 1

    if rank < 2 * r:  # odd survivors hand the result back to the folded even
        yield from comm.send(rank - 1, nbytes, tag=_TAG_COLL - 3, payload=result)
    return result


def allgather(comm: Communicator, value: Any, nbytes: int = 8) -> Generator:
    """Allgather; returns the list of every rank's value in rank order.

    Recursive doubling for small blocks on power-of-two rank counts; ring
    otherwise (the algorithm switch behind Fig 13's jump).
    """
    p = comm.size
    if p == 1:
        return [value]
    if nbytes <= ALLGATHER_RING_SWITCH:
        if p & (p - 1) == 0:
            return (yield from _allgather_recursive_doubling(comm, value, nbytes))
        return (yield from _allgather_bruck(comm, value, nbytes))
    return (yield from _allgather_ring(comm, value, nbytes))


def _allgather_recursive_doubling(
    comm: Communicator, value: Any, nbytes: int
) -> Generator:
    p = comm.size
    blocks = {comm.rank: value}
    mask = 1
    while mask < p:
        partner = comm.rank ^ mask
        env_blocks = dict(blocks)
        req = comm.isend(
            partner, nbytes * len(env_blocks), tag=_TAG_COLL - 5, payload=env_blocks
        )
        env = yield from comm.recv(source=partner, tag=_TAG_COLL - 5)
        yield from req.wait()
        blocks.update(env.payload)
        mask <<= 1
    return [blocks[i] for i in range(p)]


def _allgather_bruck(comm: Communicator, value: Any, nbytes: int) -> Generator:
    """Bruck's allgather for non-power-of-two rank counts (small blocks):
    ⌈log2 p⌉ rounds of doubling block transfers."""
    p = comm.size
    blocks = {comm.rank: value}
    k = 1
    step = 0
    while k < p:
        dest = (comm.rank - k) % p
        src = (comm.rank + k) % p
        count = min(k, p - k)
        req = comm.isend(
            dest, nbytes * count, tag=_TAG_COLL - 10 - step, payload=dict(blocks)
        )
        env = yield from comm.recv(source=src, tag=_TAG_COLL - 10 - step)
        yield from req.wait()
        blocks.update(env.payload)
        k <<= 1
        step += 1
    return [blocks[i] for i in range(p)]


def _allgather_ring(comm: Communicator, value: Any, nbytes: int) -> Generator:
    p = comm.size
    blocks = {comm.rank: value}
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    send_block = comm.rank
    for _ in range(p - 1):
        req = comm.isend(
            right, nbytes, tag=_TAG_COLL - 6, payload=(send_block, blocks[send_block])
        )
        env = yield from comm.recv(source=left, tag=_TAG_COLL - 6)
        yield from req.wait()
        idx, val = env.payload
        blocks[idx] = val
        send_block = idx
    return [blocks[i] for i in range(p)]


def alltoall(comm: Communicator, values: List[Any], nbytes: int = 8) -> Generator:
    """Pairwise-exchange alltoall; ``values[i]`` goes to rank ``i``.

    Returns the list of received values in source-rank order (the
    communicator checked ``len(values)`` before calling).  Raises
    :class:`~repro.errors.OutOfMemoryError` when the library's internal
    per-pair buffers would exceed the device memory (checked by the
    caller/runtime via :func:`alltoall_memory_required`).
    """
    p = comm.size
    result: List[Any] = [None] * p
    result[comm.rank] = values[comm.rank] if values is not None else None
    for round_no in range(1, p):
        if p & (p - 1) == 0:
            partner = comm.rank ^ round_no
        else:
            partner = (comm.rank + round_no) % p
        send_to = partner
        recv_from = partner if p & (p - 1) == 0 else (comm.rank - round_no) % p
        req = comm.isend(
            send_to,
            nbytes,
            tag=_TAG_COLL - 7 - round_no,
            payload=values[send_to] if values is not None else None,
        )
        env = yield from comm.recv(source=recv_from, tag=_TAG_COLL - 7 - round_no)
        yield from req.wait()
        result[env.source] = env.payload
    return result


def gather(
    comm: Communicator, value: Any, root: int = 0, nbytes: int = 8
) -> Generator:
    """Binomial-tree gather; ``root`` returns the rank-ordered list."""
    p = comm.size
    vrank = (comm.rank - root) % p
    blocks = {comm.rank: value}
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = (vrank - mask + root) % p
            yield from comm.send(
                dest, nbytes * len(blocks), tag=_TAG_COLL - 8, payload=blocks
            )
            return None
        partner = vrank + mask
        if partner < p:
            env = yield from comm.recv(
                source=(partner + root) % p, tag=_TAG_COLL - 8
            )
            blocks.update(env.payload)
        mask <<= 1
    return [blocks[i] for i in range(p)]


def scatter(
    comm: Communicator, values: Optional[List[Any]], root: int = 0, nbytes: int = 8
) -> Generator:
    """Binomial-tree scatter; every rank returns its own block (the
    communicator checked the root's ``values`` before calling)."""
    p = comm.size
    vrank = (comm.rank - root) % p
    if comm.rank == root:
        blocks = {i: values[(i + root) % p] for i in range(p)}  # keyed by vrank
    else:
        blocks = {}
    mask = 1
    while mask < p:
        if vrank & mask:
            env = yield from comm.recv(
                source=((vrank - mask) + root) % p, tag=_TAG_COLL - 9
            )
            blocks = env.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            subtree = {k: v for k, v in blocks.items() if k >= vrank + mask}
            blocks = {k: v for k, v in blocks.items() if k < vrank + mask}
            yield from comm.send(
                (vrank + mask + root) % p,
                nbytes * max(1, len(subtree)),
                tag=_TAG_COLL - 9,
                payload=subtree,
            )
        mask >>= 1
    return blocks[vrank]


# ==========================================================================
# Exact per-rank schedules (the analytic fast path)
# ==========================================================================
#
# Each ``*_schedule`` function replays one collective's communication
# pattern as a max-plus recurrence over per-rank clock vectors instead of
# stepping every rank through the event engine.  The recurrences encode
# the engine's exact eager/rendezvous timing semantics:
#
# * eager send:    sender detaches after ``sender_time``; the receiver
#                  completes at ``max(recv_post, send_post + p2p_time)``.
# * rendezvous:    both sides synchronize, then transfer:
#                  ``max(recv_post, send_post) + p2p_time`` — and the
#                  sender's request completes at the same instant.
#
# Because they mirror the executable algorithms above *hop for hop*
# (same tree shapes, same per-round message sizes, same algorithm
# switches), the schedules agree with full DES runs to float precision —
# a property the test suite gates at 1e-9 relative error.  ``arrivals``
# lets callers model ranks entering the collective at different times;
# all-zero arrivals give the canonical "everyone ready" time.


def _wire(fabric, nbytes: int):
    """(p2p transfer, sender occupancy, is-eager) for one message size."""
    return (
        fabric.p2p_time(nbytes),
        fabric.sender_time(nbytes),
        nbytes <= fabric.eager_max,
    )


def _arrivals(p: int, arrivals: Optional[List[float]]) -> List[float]:
    if arrivals is None:
        return [0.0] * p
    if len(arrivals) != p:
        raise ConfigError(f"need {p} arrival times, got {len(arrivals)}")
    return list(arrivals)


def _binomial_bcast_times(
    fabric, p: int, nbytes: int, root: int, t: List[float]
) -> List[float]:
    """Small-message binomial broadcast: per-rank completion times."""
    tp, ts, eager = _wire(fabric, nbytes)
    finish = [0.0] * p
    mask0 = 1
    while mask0 < p:
        mask0 <<= 1

    # visit(vrank, ready, mask): ``ready`` is when this rank holds the
    # value; it then serves children at masks mask>>1 .. 1, its local
    # clock advancing per send exactly as the generator's does.
    stack = [(0, t[root], mask0)]
    while stack:
        vrank, ready, mask = stack.pop()
        s = ready
        mm = mask >> 1
        while mm > 0:
            cv = vrank + mm
            if cv < p:
                child = (cv + root) % p
                if eager:
                    recv_done = max(t[child], s + tp)
                    s += ts
                else:
                    recv_done = max(t[child], s) + tp
                    s = recv_done
                stack.append((cv, recv_done, mm))
            mm >>= 1
        finish[(vrank + root) % p] = s
    return finish


def _scatter_times(
    fabric, p: int, nbytes: int, root: int, t: List[float]
) -> List[float]:
    """Binomial scatter with per-hop sizes ``nbytes × |subtree blocks|``."""
    finish = [0.0] * p
    mask0 = 1
    while mask0 < p:
        mask0 <<= 1
    stack = [(0, t[root], mask0)]
    while stack:
        vrank, ready, mask = stack.pop()
        hi = min(vrank + mask, p)  # blocks held: [vrank, hi)
        s = ready
        mm = mask >> 1
        while mm > 0:
            cv = vrank + mm
            if cv < p:
                sz = nbytes * max(1, hi - cv)
                tp, ts, eager = _wire(fabric, sz)
                child = (cv + root) % p
                if eager:
                    recv_done = max(t[child], s + tp)
                    s += ts
                else:
                    recv_done = max(t[child], s) + tp
                    s = recv_done
                stack.append((cv, recv_done, mm))
                hi = cv
            mm >>= 1
        finish[(vrank + root) % p] = s
    return finish


def _ring_times(fabric, p: int, nbytes: int, t: List[float]) -> List[float]:
    """Ring allgather: p−1 rounds of send-right/recv-left at block size."""
    tp, ts, eager = _wire(fabric, nbytes)
    if p == 1:
        return list(t)
    lo, hi = min(t), max(t)
    if lo == hi:
        # Uniform arrivals: every round advances all ranks by the same
        # per-round cost, so the recurrence collapses to closed form.
        per_round = max(ts, tp) if eager else tp
        return [lo + (p - 1) * per_round] * p
    np = get_numpy()
    if np is not None and p >= 128:
        v = np.asarray(t, dtype=float)
        for _ in range(p - 1):
            left = np.roll(v, 1)
            if eager:
                v = np.maximum(v + ts, left + tp)
            else:
                v = np.maximum(np.maximum(v, left), np.roll(v, -1)) + tp
        return v.tolist()
    cur = list(t)
    for _ in range(p - 1):
        if eager:
            cur = [
                max(cur[i] + ts, cur[i - 1] + tp) for i in range(p)
            ]
        else:
            cur = [
                max(cur[i], cur[i - 1], cur[(i + 1) % p]) + tp for i in range(p)
            ]
    return cur


def bcast_schedule(
    fabric,
    p: int,
    nbytes: int,
    root: int = 0,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`bcast` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    if nbytes <= LARGE_MESSAGE_SWITCH:
        return _binomial_bcast_times(fabric, p, nbytes, root, t)
    chunk = max(1, nbytes // p)
    after_scatter = _scatter_times(fabric, p, chunk, root, t)
    return _ring_times(fabric, p, chunk, after_scatter)


def allreduce_schedule(
    fabric,
    p: int,
    nbytes: int,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`allreduce` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tp, ts, eager = _wire(fabric, nbytes)
    tred = fabric.reduce_time(nbytes)
    m = int(math.log2(p))
    pow2 = 1 << m
    r = p - pow2
    np = get_numpy()
    if np is not None and p >= 128:
        return _allreduce_times_numpy(np, p, t, tp, ts, eager, tred, pow2, r)

    # Fold-in: even ranks below 2r send to their odd neighbour and wait.
    even_ready = [0.0] * p  # when even rank 2k posts its hand-back recv
    surv = [0.0] * pow2  # clock per surviving new_rank
    for rank in range(p):
        if rank < 2 * r:
            if rank % 2:
                a, b = t[rank - 1], t[rank]
                if eager:
                    recv_done = max(b, a + tp)
                    even_ready[rank - 1] = a + ts
                else:
                    recv_done = max(a, b) + tp
                    even_ready[rank - 1] = recv_done
                surv[rank // 2] = recv_done + tred
        else:
            surv[rank - r] = t[rank]

    # Recursive doubling among the 2^m survivors.
    mask = 1
    while mask < pow2:
        surv = [
            (max(surv[i] + ts, surv[i ^ mask] + tp) if eager
             else max(surv[i], surv[i ^ mask]) + tp) + tred
            for i in range(pow2)
        ]
        mask <<= 1

    # Fan back out to the folded even ranks.
    finish = [0.0] * p
    for nr in range(pow2):
        rank = nr * 2 + 1 if nr < r else nr + r
        f = surv[nr]
        if rank < 2 * r:
            if eager:
                finish[rank] = f + ts
                finish[rank - 1] = max(even_ready[rank - 1], f + tp)
            else:
                done = max(even_ready[rank - 1], f) + tp
                finish[rank] = done
                finish[rank - 1] = done
        else:
            finish[rank] = f
    return finish


def _allreduce_times_numpy(
    np, p: int, t: List[float], tp: float, ts: float, eager: bool,
    tred: float, pow2: int, r: int
) -> List[float]:
    """List-API wrapper over :func:`_allreduce_kernel`."""
    t_arr = np.asarray(t, dtype=float)
    return _allreduce_kernel(
        np, p, t_arr, tp, ts, eager, tred, pow2, r
    ).tolist()


def _allreduce_kernel(
    np, p: int, t_arr, tp: float, ts: float, eager: bool,
    tred: float, pow2: int, r: int
):
    """Array form of the allreduce recurrence above (array in/out).

    Every elementwise operation mirrors the scalar comprehensions'
    float order exactly, so the two paths are bit-identical.  The
    ``i ^ mask`` partner lookup is a contiguous block swap — reshape to
    ``(…, 2, mask)`` and flip the pair axis — which beats fancy indexing
    on 100k-rank vectors.
    """
    surv = np.empty(pow2, dtype=float)
    even_ready = None
    if r:
        a = t_arr[0:2 * r:2]  # even ranks (fold into their odd neighbour)
        b = t_arr[1:2 * r:2]  # odd ranks (survivors 0..r-1)
        if eager:
            recv_done = np.maximum(b, a + tp)
            even_ready = a + ts
        else:
            recv_done = np.maximum(a, b) + tp
            even_ready = recv_done
        surv[:r] = recv_done + tred
    surv[r:] = t_arr[2 * r:]

    mask = 1
    while mask < pow2:
        partner = surv.reshape(-1, 2, mask)[:, ::-1, :].reshape(-1)
        if eager:
            surv = np.maximum(surv + ts, partner + tp) + tred
        else:
            surv = np.maximum(surv, partner) + tp + tred
        mask <<= 1

    if not r:
        return surv
    finish = np.empty(p, dtype=float)
    idx = np.arange(r)
    odd = idx * 2 + 1  # actual ranks of survivors 0..r-1
    f = surv[:r]
    if eager:
        finish[odd] = f + ts
        finish[odd - 1] = np.maximum(even_ready, f + tp)
    else:
        done = np.maximum(even_ready, f) + tp
        finish[odd] = done
        finish[odd - 1] = done
    finish[np.arange(r, pow2) + r] = surv[r:]
    return finish


def allgather_schedule(
    fabric,
    p: int,
    nbytes: int,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`allgather` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    if nbytes > ALLGATHER_RING_SWITCH:
        return _ring_times(fabric, p, nbytes, t)
    if p & (p - 1) == 0:
        # Recursive doubling; round k exchanges 2^k accumulated blocks.
        mask = 1
        k = 0
        while mask < p:
            tp, ts, eager = _wire(fabric, nbytes << k)
            t = [
                max(t[i] + ts, t[i ^ mask] + tp) if eager
                else max(t[i], t[i ^ mask]) + tp
                for i in range(p)
            ]
            mask <<= 1
            k += 1
        return t
    # Bruck: doubling shifted transfers of min(k, p−k) blocks.
    k = 1
    while k < p:
        sz = nbytes * min(k, p - k)
        tp, ts, eager = _wire(fabric, sz)
        if eager:
            t = [max(t[i] + ts, t[(i + k) % p] + tp) for i in range(p)]
        else:
            t = [
                max(t[i], t[(i + k) % p], t[(i - k) % p]) + tp
                for i in range(p)
            ]
        k <<= 1
    return t


def alltoall_schedule(
    fabric,
    p: int,
    nbytes: int,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`alltoall` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tp, ts, eager = _wire(fabric, nbytes)
    pow2 = p & (p - 1) == 0
    for rnd in range(1, p):
        if pow2:
            if eager:
                t = [max(t[i] + ts, t[i ^ rnd] + tp) for i in range(p)]
            else:
                t = [max(t[i], t[i ^ rnd]) + tp for i in range(p)]
        else:
            if eager:
                t = [max(t[i] + ts, t[(i - rnd) % p] + tp) for i in range(p)]
            else:
                t = [
                    max(t[i], t[(i - rnd) % p], t[(i + rnd) % p]) + tp
                    for i in range(p)
                ]
    return t


def reduce_schedule(
    fabric,
    p: int,
    nbytes: int,
    root: int = 0,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`reduce` on a uniform fabric.

    The binomial tree is walked children-first (descending vrank), so a
    parent's clock folds in each child's send post time exactly as the
    generator's sequential recv/compute loop does.
    """
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tp, ts, eager = _wire(fabric, nbytes)
    tred = fabric.reduce_time(nbytes)
    finish = [0.0] * p
    send_post = [0.0] * p  # by vrank: when a child posts its upward send
    for v in range(p - 1, -1, -1):  # children (higher vrank) before parents
        rank = (v + root) % p
        clock = t[rank]
        mask = 1
        while mask < p and not (v & mask):
            c = v + mask
            if c < p:
                sp = send_post[c]
                if eager:
                    recv_done = max(clock, sp + tp)
                else:
                    recv_done = max(clock, sp) + tp
                    finish[(c + root) % p] = recv_done  # rendezvous sender
                clock = recv_done + tred
            mask <<= 1
        if v:
            send_post[v] = clock
            if eager:
                finish[rank] = clock + ts
        else:
            finish[rank] = clock
    return finish


def gather_schedule(
    fabric,
    p: int,
    nbytes: int,
    root: int = 0,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`gather` on a uniform fabric.

    The binomial tree is walked children-first (descending vrank) like
    :func:`reduce_schedule`, but hop sizes grow with the accumulated
    block count: a child at vrank ``v`` uploads ``min(lowbit(v), p - v)``
    blocks, and there is no reduction arithmetic on the way up.
    """
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    finish = [0.0] * p
    send_post = [0.0] * p  # by vrank: when a child posts its upward send
    for v in range(p - 1, -1, -1):  # children (higher vrank) before parents
        rank = (v + root) % p
        clock = t[rank]
        mask = 1
        while mask < p and not (v & mask):
            c = v + mask
            if c < p:
                sz = nbytes * min(mask, p - c)
                tp, _ts, eager = _wire(fabric, sz)
                sp = send_post[c]
                if eager:
                    recv_done = max(clock, sp + tp)
                else:
                    recv_done = max(clock, sp) + tp
                    finish[(c + root) % p] = recv_done  # rendezvous sender
                clock = recv_done
            mask <<= 1
        if v:
            send_post[v] = clock
            sz = nbytes * min(v & -v, p - v)
            _tp, ts, eager = _wire(fabric, sz)
            if eager:
                finish[rank] = clock + ts
        else:
            finish[rank] = clock
    return finish


def scatter_schedule(
    fabric,
    p: int,
    nbytes: int,
    root: int = 0,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of :func:`scatter` on a uniform fabric.

    Delegates to the binomial-subtree walk :func:`bcast_schedule`'s
    large-message path already uses; hop sizes are ``nbytes`` times the
    blocks handed down, mirroring the executable algorithm exactly.
    """
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    return _scatter_times(fabric, p, nbytes, root, t)


def barrier_schedule(
    fabric,
    p: int,
    nbytes: int = 0,
    arrivals: Optional[List[float]] = None,
) -> List[float]:
    """Per-rank completion times of the dissemination barrier.

    ⌈log2 p⌉ rounds of zero-byte sendrecv (always eager):
    ``t'[i] = max(t[i] + ts, t[(i - k) % p] + tp)`` per round ``k``.
    ``nbytes`` is accepted for dispatch uniformity and ignored — barrier
    traffic is zero-byte by construction.
    """
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tp, ts, _ = _wire(fabric, 0)
    lo, hi = min(t), max(t)
    if lo == hi:
        # Uniform arrivals: every rank advances identically per round.
        # Iterate (not closed-form) to keep float rounding bit-identical.
        cur = lo
        k = 1
        while k < p:
            cur = max(cur + ts, cur + tp)
            k <<= 1
        return [cur] * p
    np = get_numpy()
    if np is not None and p >= 128:
        v = np.asarray(t, dtype=float)
        return _barrier_kernel(np, p, v, tp, ts).tolist()
    cur_t = list(t)
    k = 1
    while k < p:
        cur_t = [max(cur_t[i] + ts, cur_t[(i - k) % p] + tp) for i in range(p)]
        k <<= 1
    return cur_t


def _barrier_kernel(np, p: int, v, tp: float, ts: float):
    """Array form of the dissemination-barrier rounds (array in/out)."""
    k = 1
    while k < p:
        v = np.maximum(v + ts, np.roll(v, k) + tp)
        k <<= 1
    return v


def array_schedule(kind, fabric, p: int, nbytes: int, t_arr,
                   root: int = 0, np=None):
    """Whole-vector schedule for phase-compiled pricing, or ``None``.

    Takes and returns the clock vector as an ndarray, skipping the
    list-API round trip of :data:`SCHEDULES` — on a 100k-rank vector the
    ``tolist``/``asarray`` conversions alone dominate the pricing wall.
    Serves only the kinds with an array kernel (allreduce, barrier);
    callers fall back to the list-API schedule for the rest.  Output is
    bit-identical to the corresponding ``*_schedule``.
    """
    if np is None:
        np = get_numpy()
    if np is None or p == 1:
        return None
    if kind == "barrier":
        tp, ts, _ = _wire(fabric, 0)
        return _barrier_kernel(np, p, t_arr, tp, ts)
    if kind == "allreduce":
        tp, ts, eager = _wire(fabric, nbytes)
        tred = fabric.reduce_time(nbytes)
        pow2 = 1 << int(math.log2(p))
        return _allreduce_kernel(
            np, p, t_arr, tp, ts, eager, tred, pow2, p - pow2
        )
    return None


#: Schedule functions by collective kind (the fast path's dispatch table).
SCHEDULES = {
    "bcast": bcast_schedule,
    "reduce": reduce_schedule,
    "allreduce": allreduce_schedule,
    "allgather": allgather_schedule,
    "alltoall": alltoall_schedule,
    "barrier": barrier_schedule,
    "gather": gather_schedule,
    "scatter": scatter_schedule,
}

#: Collectives whose schedule takes a ``root`` keyword argument.
ROOTED_COLLECTIVES = frozenset({"bcast", "reduce", "gather", "scatter"})


# ==========================================================================
# Closed-form cost models (per-operation wall time)
# ==========================================================================


def sendrecv_ring_time(fabric, p: int, nbytes: int) -> float:
    """Fig 10's primitive: every rank sends right / receives left, all
    concurrent — one matched transfer on the clock."""
    if p < 2:
        return 0.0
    return fabric.p2p_time(nbytes)


def bcast_time(fabric, p: int, nbytes: int) -> float:
    """Binomial tree (small) or scatter+allgather à la van de Geijn (large)."""
    if p < 2:
        return 0.0
    rounds = _log2_rounds(p)
    if nbytes <= LARGE_MESSAGE_SWITCH:
        return rounds * fabric.p2p_time(nbytes)
    alpha_part = (rounds + (p - 1) / p) * fabric.p2p_time(0)
    bw = (
        fabric.bandwidth()
        if hasattr(fabric, "params")
        else fabric.data_bandwidth(nbytes)
    )
    return alpha_part + 2.0 * (p - 1) / p * nbytes / bw


def allreduce_time(fabric, p: int, nbytes: int) -> float:
    """Recursive doubling: ⌈log2 p⌉ rounds, each a full-size exchange plus
    the local reduction arithmetic (matches the simulated algorithm)."""
    if p < 2:
        return 0.0
    rounds = _log2_rounds(p)
    return rounds * (fabric.p2p_time(nbytes) + fabric.reduce_time(nbytes))


def allgather_time(fabric, p: int, nbytes: int) -> float:
    """Recursive doubling below the switch, ring above (Fig 13's jump).

    ``nbytes`` is the per-rank block size.
    """
    if p < 2:
        return 0.0
    bw = (
        fabric.bandwidth()
        if hasattr(fabric, "params")
        else fabric.data_bandwidth(nbytes)
    )
    if nbytes <= ALLGATHER_RING_SWITCH:
        # Recursive doubling (power-of-two) / Bruck (otherwise): same cost.
        rounds = _log2_rounds(p)
        return rounds * fabric.p2p_time(0) + (p - 1) * nbytes / bw
    return (p - 1) * fabric.p2p_time(nbytes)


def alltoall_time(fabric, p: int, nbytes: int) -> float:
    """Pairwise exchange: p−1 rounds under all-to-all congestion."""
    if p < 2:
        return 0.0
    alpha = (
        fabric.alpha("alltoall", p)
        if hasattr(fabric, "alpha")
        else fabric.p2p_time(0)
    )
    if hasattr(fabric, "params"):
        bw = fabric.bandwidth("alltoall")
        handshake = fabric.handshake(nbytes)
    else:
        bw = fabric.data_bandwidth(nbytes)
        handshake = fabric.handshake(nbytes)
    return (p - 1) * (alpha + handshake + nbytes / bw)


def alltoall_memory_required(p: int, nbytes: int) -> float:
    """Total bytes an alltoall of per-pair size ``nbytes`` needs on one card.

    Application send+receive buffers (``2·p·nbytes`` per rank) plus the
    MPI library's per-pair connection contexts and staging buffers.  At
    236 ranks this crosses a Phi card's 8 GB between 4 KiB and 8 KiB —
    the paper's observed failure point.
    """
    if p < 1 or nbytes < 0:
        raise ConfigError("invalid alltoall parameters")
    app = 2.0 * p * p * nbytes
    internal = p * p * (CONN_BASE + STAGING_MULT * min(nbytes, STAGING_CAP))
    return app + internal


def alltoall_fits(p: int, nbytes: int, device_memory: float = 8 * GiB) -> bool:
    """Does an alltoall of this shape fit in ``device_memory``?"""
    return alltoall_memory_required(p, nbytes) <= device_memory


def check_alltoall_memory(p: int, nbytes: int, device_memory: float) -> None:
    """Raise :class:`OutOfMemoryError` if the alltoall cannot allocate."""
    required = alltoall_memory_required(p, nbytes)
    if required > device_memory:
        raise OutOfMemoryError(required, device_memory, f"MPI_Alltoall p={p}")
