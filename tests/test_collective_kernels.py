"""The NumPy collective kernels are bit-identical to the pure-Python loops.

:mod:`repro.mpi.collectives` prices bcast, scatter and the ring allgather
through array kernels (the level-wise binomial tree, the rotating-frame
ring with its exact fast-forward) wherever NumPy is installed and P is
large.  The replay, the fast collectives and the vector path all price
through them, so "bit-identical" is checked with ``==``, never a
tolerance.  The oracle is the same schedule with
``collectives.get_numpy`` patched to return ``None``: the pure-Python
loops, which are also the NumPy-free path.

At P ≈ 33k the pure-Python ring takes minutes, so the fixed large cases
compare against :func:`_dense_ring` — the plain ``np.roll`` recurrence
with the loop's float operations, itself checked against the loop at
P ≤ 4096 here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mpi.collectives as coll
from repro.mpi.collectives import (
    LARGE_MESSAGE_SWITCH,
    _ring_times,
    _wire,
    array_schedule,
    bcast_schedule,
    scatter_schedule,
)
from repro.mpi.fabrics import Fabric, FabricParams, host_fabric, phi_fabric
from repro.units import KiB, MiB


class _SlowSenderFabric(Fabric):
    """A fabric whose sender occupancy exceeds the matched transfer time
    (``ts > tp``), so the eager ring may only take dense rounds."""

    def sender_time(self, nbytes: int) -> float:
        return 2.0 * self.p2p_time(nbytes)


SLOW_SENDER = _SlowSenderFabric(
    FabricParams(name="slow-sender", latency=1e-6, pair_bandwidth=5e9,
                 eager_max=64 * KiB)
)
FABRICS = {
    "host": host_fabric(),
    "phi1": phi_fabric(1),
    "phi4": phi_fabric(4),
    "slow-sender": SLOW_SENDER,
}

#: Message sizes on both sides of LARGE_MESSAGE_SWITCH and of the eager
#: limits (64 KiB on the Phi fabrics, 256 KiB on the host); the largest
#: give rendezvous-size bcast chunks at small P.
SIZES = (
    0, 8, 4 * KiB, LARGE_MESSAGE_SWITCH, LARGE_MESSAGE_SWITCH + 1,
    64 * KiB, 64 * KiB + 1, 256 * KiB, 256 * KiB + 1, 4 * MiB, 64 * MiB,
)


def _oracle(fn, *args, **kw):
    """``fn`` with NumPy hidden from the collectives: the Python loops."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coll, "get_numpy", lambda: None)
        return fn(*args, **kw)


def _dense_ring(p, t, tp, ts, eager):
    """The ring recurrence as whole-vector rounds, no fast-forward:
    ``max(v + ts, left + tp)`` eager, ``max(v, left, right) + tp``
    rendezvous, with ``left``/``right`` the neighbours' clocks."""
    v = np.array(t, dtype=float)
    left, right, new = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    for _ in range(p - 1):
        left[1:], left[0] = v[:-1], v[-1]
        if eager:
            np.add(v, ts, out=new)
            left += tp
            np.maximum(new, left, out=v)
        else:
            right[:-1], right[-1] = v[1:], v[0]
            np.maximum(v, left, out=new)
            np.maximum(new, right, out=new)
            np.add(new, tp, out=v)
    return v.tolist()


# P from 128 to 4096, log-uniform, so the O(P²) oracle stays affordable.
ranks = st.integers(7, 11).flatmap(
    lambda e: st.integers(1 << e, 1 << (e + 1))
)
fabrics = st.sampled_from(sorted(FABRICS))
sizes = st.sampled_from(SIZES)


@st.composite
def arrivals(draw, p):
    """Uniform, few-valued, random, or a scatter's own output."""
    kind = draw(st.sampled_from(("uniform", "few", "random", "scatter")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return [float(rng.random() * 1e-4)] * p
    if kind == "few":
        levels = rng.random(int(rng.integers(2, 6))) * 1e-4
        return rng.choice(levels, p).tolist()
    if kind == "random":
        return (rng.random(p) * 1e-4).tolist()
    fabric = FABRICS[draw(fabrics)]
    root = draw(st.integers(0, p - 1))
    return scatter_schedule(fabric, p, draw(st.sampled_from((8, 512))),
                            root=root)


def _root(draw, p):
    return draw(st.sampled_from((0, p - 1, draw(st.integers(0, p - 1)))))


@st.composite
def ring_cases(draw):
    p = draw(ranks)
    return p, FABRICS[draw(fabrics)], draw(sizes), draw(arrivals(p))


@st.composite
def rooted_cases(draw):
    p = draw(ranks)
    return (p, FABRICS[draw(fabrics)], draw(sizes), _root(draw, p),
            draw(arrivals(p)))


@settings(max_examples=8, deadline=None)
@given(ring_cases())
def test_ring_kernel_matches_loop(case):
    """Eager and rendezvous ring blocks, every arrival shape."""
    p, fabric, nbytes, t = case
    got = _ring_times(fabric, p, nbytes, t)
    assert got == _oracle(_ring_times, fabric, p, nbytes, t)


@settings(max_examples=60, deadline=None)
@given(rooted_cases())
def test_tree_kernels_match_walks(case):
    """Scatter and small-message bcast: the level-wise tree kernel."""
    p, fabric, nbytes, root, t = case
    small = min(nbytes, LARGE_MESSAGE_SWITCH)
    for kind, fn, size in (("scatter", scatter_schedule, nbytes),
                           ("bcast", bcast_schedule, small)):
        want = _oracle(fn, fabric, p, size, root=root, arrivals=t)
        assert fn(fabric, p, size, root=root, arrivals=t) == want, kind
        arr = array_schedule(kind, fabric, p, size, np.asarray(t),
                             root=root, np=np)
        assert arr.tolist() == want, kind


@settings(max_examples=10, deadline=None)
@given(rooted_cases())
def test_bcast_schedules_match_loops(case):
    """Every bcast size through the list API and array_schedule."""
    p, fabric, nbytes, root, t = case
    want = _oracle(bcast_schedule, fabric, p, nbytes, root=root, arrivals=t)
    assert bcast_schedule(fabric, p, nbytes, root=root, arrivals=t) == want
    arr = array_schedule("bcast", fabric, p, nbytes, np.asarray(t),
                         root=root, np=np)
    assert arr.tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(128, 600), st.sampled_from(("host", "phi1", "phi4")),
       st.integers(0, 2**32 - 1))
def test_fast_forward_stops_before_first_winning_round(p, name, seed):
    """The eager ring's skip applies exactly the rounds before the first
    one in which some neighbour pair — the wrap-around pair included —
    takes the right-hand term, however many ulps decide it."""
    tp, ts, _ = _wire(FABRICS[name], 8)
    rng = np.random.default_rng(seed)
    # A descending run from b to a, rotated anywhere (or not at all, so
    # the wrap-around pair is (a, b)): its one rising pair sits a few
    # ulps either side of winning.
    a = float(rng.random() * 1e-3)
    b = a + (tp - ts) + int(rng.integers(-4, 5)) * np.spacing(a + tp)
    levels = np.array([a, b, *(a + rng.random(2) * (b - a))])
    w = np.sort(np.concatenate((levels, rng.choice(levels, p - 4))))[::-1]
    w = np.roll(w, int(rng.integers(0, p)) * int(rng.integers(0, 2)))
    limit = 3000
    want, first = w.copy(), 0
    while first < limit and not (np.roll(want, -1) + ts > want + tp).any():
        want += tp
        first += 1
    buf = np.append(w, w[0])
    gained = coll._ring_fast_forward(np, p, buf, tp, ts, limit)
    assert gained == first
    assert buf[:p].tolist() == want.tolist() and buf[p] == buf[0]


@settings(max_examples=4, deadline=None)
@given(ranks, fabrics, st.sampled_from((8, 64, 512)))
def test_dense_ring_reference_matches_loop(p, name, nbytes):
    """The large-P reference below is the loop's own recurrence."""
    fabric = FABRICS[name]
    t = scatter_schedule(fabric, p, 8, root=p // 3)
    tp, ts, eager = _wire(fabric, nbytes)
    assert _dense_ring(p, t, tp, ts, eager) == _oracle(
        _ring_times, fabric, p, nbytes, t
    )


@pytest.mark.parametrize("p", (32768, 33009, 33792))
def test_large_bcast_matches_references(p):
    """The compiled workload's bcast sizes: scatter against the Python
    walk, the ring against the dense recurrence, end to end both ways."""
    fabric = host_fabric()
    nbytes = 256 * KiB
    root = p - 1
    chunk = nbytes // p
    scattered = scatter_schedule(fabric, p, chunk, root=root)
    assert scattered == _oracle(scatter_schedule, fabric, p, chunk,
                                root=root)
    want = _dense_ring(p, scattered, *_wire(fabric, chunk))
    assert bcast_schedule(fabric, p, nbytes, root=root) == want
    arr = array_schedule("bcast", fabric, p, nbytes, np.zeros(p), root=root,
                         np=np)
    assert arr.tolist() == want
