"""Seeded input generators, one per workload.

Every generator is an endless iterator of :class:`Op` records derived
only from ``(workload, stream, seed)``: the same seed gives the same
inputs in every interpreter.  Op kinds come in shuffled fixed-size
blocks, and blocks in *rounds*: rank counts, plan lengths and the other
per-op draws that set an op's cost are spread one per stratum (or drawn
from a deck) over a round, so every round holds the same mix of op kinds
and about the same work.  A timed run ends on a round boundary
(``Op.round``), so seeds differ in their parameters and order but hardly
in how much work a run holds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Tuple

KiB = 1024

#: Message sizes straddling the DAPL protocol thresholds (8 KiB, 256 KiB)
#: and the Phi fabric's 64 KiB eager limit.
SIZES = (
    1 * KiB, 8 * KiB, 8 * KiB + 1, 32 * KiB, 64 * KiB,
    256 * KiB, 256 * KiB + 1, 1024 * KiB,
)

STEPPED_BLOCK = (
    ("plain",) * 10 + ("slowcoll",) * 2 + ("traced",) * 2
    + ("faulted",) * 2 + ("verified",) * 2 + ("storm",) * 2
)
COMPILED_BLOCK = (
    ("fresh",) * 8 + ("branchy",) * 3 + ("wildcard",) * 2
    + ("returns",) * 2 + ("repeat",) * 5
)
#: Blocks per compiled round.  Each round also holds one large-message
#: bcast at a seeded position: the bcast cliff costs about as much as
#: the round's other ops together, so every round pays it once.
COMPILED_ROUND = 16
#: Each campaign block runs six campaigns fresh, each into its own
#: journal, then resumes two of them and splits and merges two others.
CAMPAIGN_BLOCK = ("fresh",) * 6 + ("resume",) * 2 + ("merge",) * 2
DATASETS = ("DLRF6-Medium", "DLRF6-Large", "OneraM6")
FIGURES = tuple(range(4, 28))
#: Two CLI blocks make a round: the 24 ``figure N`` ops of a round draw
#: each figure once, so a 100-op run holds the same commands for every
#: seed.
CLI_BLOCK = (
    ("validate",) * 5 + ("figures",) * 3 + ("figure",) * 12
    + ("table1",) * 2 + ("modes",) * 2 + ("status",)
)
CLI_ROUND = 2
#: The ``repro`` arguments of each CLI op kind (``figure`` adds N).
CLI_ARGS = {
    "validate": ("validate",),
    "figures": ("figures",),
    "figure": ("figure",),
    "table1": ("table1",),
    "modes": ("modes",),
    "status": ("campaign", "status"),
}

WORKLOADS = ("stepped", "compiled", "campaign", "cli")


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``index`` is the op's position in its stream; ``ref`` is the index
    of the op a repeat, resume or merge refers to (-1 otherwise);
    ``round`` is the round of blocks the op belongs to.
    """

    index: int
    kind: str
    ranks: int = 0
    fabric: str = ""
    plan: Tuple[Any, ...] = ()
    params: Dict[str, Any] = field(default_factory=dict)
    ref: int = -1
    round: int = 0


def _rng(workload: str, stream: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{stream}:{seed}")


def strata(rng: random.Random, n: int) -> List[float]:
    """``n`` uniforms in [0, 1), one from each of ``n`` equal strata, shuffled.

    Drawing a block's sizes this way gives every block the same spread of
    sizes, so runs on different seeds do near-equal work.
    """
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


#: Blocks per round: sizes are stratified over a whole round, so every
#: round spans each kind's size range evenly.
ROUND = 8


def block_draws(rng: random.Random, kinds: List[str]) -> Dict[str, List[Any]]:
    """Per op kind: one stratified (size, length) pair per op of ``kinds``."""
    return {
        kind: list(zip(strata(rng, kinds.count(kind)),
                       strata(rng, kinds.count(kind))))
        for kind in sorted(set(kinds))
    }


def rounds(rng: random.Random, block: Tuple[str, ...],
           size: int = ROUND) -> Iterator[Tuple[int, str, Any]]:
    """Endless ``(round, kind, draw)`` triples in shuffled blocks of
    ``block``, ``size`` blocks to a round."""
    for number in itertools.count():
        draws = block_draws(rng, list(block) * size)
        for _ in range(size):
            kinds = list(block)
            rng.shuffle(kinds)
            for kind in kinds:
                yield number, kind, draws[kind].pop()


class Deck:
    """Draws every item once, in a shuffled order, before any repeats."""

    def __init__(self, rng: random.Random, items: Tuple[Any, ...]):
        self.rng = rng
        self.items = items
        self.cards: List[Any] = []

    def draw(self) -> Any:
        if not self.cards:
            self.cards = list(self.items)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def log_uniform(u: float, lo: int, hi: int) -> int:
    """The integer at quantile ``u`` of a log-uniform law on ``[lo, hi]``."""
    value = int(round(math.exp(math.log(lo) + u * math.log(hi / lo))))
    return min(max(value, lo), hi)


def make_plan(rng: random.Random, ranks: int, length: int,
              colls: Tuple[str, ...], sizes: Tuple[int, ...] = SIZES,
              bcast_sizes: Tuple[int, ...] = SIZES) -> Tuple[Any, ...]:
    """A plan of ``length`` communication ops plus one compute op.

    The compute op's drawn duration keeps two generated plans from ever
    sharing a fingerprint by accident.
    """
    plan: List[Any] = []
    tag = 0
    for _ in range(length):
        kind = rng.choice(("shift", "shift") + colls)
        if kind == "shift":
            tag += 1
            plan.append(("shift", rng.randint(1, 3), rng.choice(sizes), tag))
        elif kind == "allreduce":
            plan.append(("allreduce", rng.choice((8, 64, 4 * KiB, 64 * KiB))))
        elif kind == "bcast":
            plan.append(("bcast", rng.choice(bcast_sizes), rng.randrange(ranks)))
        else:
            plan.append(("barrier",))
    plan.insert(rng.randint(0, len(plan)), ("compute", rng.uniform(1e-6, 1e-4)))
    return tuple(plan)


def _length(u: float) -> int:
    return 2 + int(u * 4)  # 2-5 communication ops


# ---------------------------------------------------------------- stepped


#: Rank range of each stepped op kind.  Traced and verified jobs record
#: every message, so their memory grows fastest with P.
STEPPED_RANKS = {
    "plain": (4, 256), "slowcoll": (4, 64), "faulted": (4, 64),
    "traced": (4, 32), "verified": (4, 32),
}


def _stepped_op(rng: random.Random, index: int, kind: str, u: Any,
                number: int) -> Op:
    if kind == "storm":
        return Op(index, kind, params={
            "procs": 50 + int(u[0] * 351),
            "steps": 5 + int(u[1] * 26),
            "delay": rng.uniform(1e-7, 1e-5),
        }, round=number)
    ranks = log_uniform(u[0], *STEPPED_RANKS[kind])
    fabric = rng.choice(("host", "phi"))
    plan = make_plan(rng, ranks, _length(u[1]), ("allreduce", "bcast", "barrier"))
    params: Dict[str, Any] = {}
    if kind == "faulted":
        if rng.random() < 0.5:
            params["fault"] = ("link", rng.uniform(1.5, 4.0),
                               rng.uniform(0.25, 0.9))
        else:
            params["fault"] = ("straggler", rng.randrange(ranks),
                               rng.uniform(1.5, 4.0))
    return Op(index, kind, ranks, fabric, plan, params, round=number)


def stepped_ops(seed: int, stream: str = "main") -> Iterator[Op]:
    """Rank programs on the event engine at P 4-256, plus engine storms."""
    rng = _rng("stepped", stream, seed)
    for index, (number, kind, u) in enumerate(rounds(rng, STEPPED_BLOCK)):
        yield _stepped_op(rng, index, kind, u, number)


# --------------------------------------------------------------- compiled


def _check_flags(rng: random.Random, ranks: int) -> Dict[str, bool]:
    """Which reference each compiled op is checked against.

    Every op at P <= 1024 and a seeded eighth of those up to 16384 are
    replayed; a seeded quarter of those at P <= 256 also step.
    """
    replay = ranks <= 1024 or (ranks <= 16384 and rng.random() < 0.125)
    stepped = ranks <= 256 and rng.random() < 0.25
    return {"check_replay": replay, "check_stepped": stepped}


#: Rank range of each compiled op kind.
COMPILED_RANKS = {
    "fresh": (64, 100_000),
    "branchy": (64, 4096),
    "wildcard": (64, 256),
    "returns": (128, 4096),
}


def _compiled_op(rng: random.Random, index: int, kind: str, u: Any,
                 number: int) -> Op:
    fabric = rng.choice(("host", "phi"))
    if kind == "bcast":
        ranks = 32 * 1024 + int(u[0] * 1024)
        plan = (("bcast", rng.choice((64 * KiB, 256 * KiB, 1024 * KiB)), 0),)
        return Op(index, kind, ranks, "host", plan, _check_flags(rng, ranks),
                  round=number)
    ranks = log_uniform(u[0], *COMPILED_RANKS[kind])
    # The vector path prices a bcast through the list API: 10-20 ms even
    # for a small message at 32k-64k ranks, and growing as P squared for
    # large ones.  That cliff is its own op kind, one per round, so plan
    # bcasts stay small and below 4096 ranks.
    colls = ("allreduce", "barrier") + (("bcast",) if ranks < 4096 else ())
    plan = make_plan(rng, ranks, _length(u[1]), colls, bcast_sizes=SIZES[:3])
    return Op(index, kind, ranks, fabric, plan, _check_flags(rng, ranks),
              round=number)


def compiled_ops(seed: int, stream: str = "main") -> Iterator[Op]:
    """Rank programs for ``compiled_mpiexec`` at P 64-100k.

    Repeats copy an earlier fresh, branchy or returns op of the same
    stream, so they hit the whole-job memo.
    """
    rng = _rng("compiled", stream, seed)
    index = 0
    pool: List[Op] = []
    current, at, bcast_at = -1, 0, 0
    for number, kind, u in rounds(rng, COMPILED_BLOCK, COMPILED_ROUND):
        if number != current:
            current, at = number, 0
            bcast_at = rng.randrange(len(COMPILED_BLOCK) * COMPILED_ROUND)
        if at == bcast_at:
            yield _compiled_op(rng, index, "bcast", (rng.random(), 0.0), number)
            index += 1
        at += 1
        if kind == "repeat" and pool:
            src = rng.choice(pool)
            yield Op(index, "repeat", src.ranks, src.fabric, src.plan,
                     dict(src.params, program=src.kind), ref=src.index,
                     round=number)
        else:
            op = _compiled_op(rng, index, "fresh" if kind == "repeat" else kind,
                              u, number)
            if op.kind != "wildcard":
                pool.append(op)
            yield op
        index += 1


# --------------------------------------------------------------- campaign


HALO = tuple((fabric, tpc) for fabric in ("host", "phi") for tpc in (1, 2, 3, 4))
SHARD_SIZES = tuple(range(1, 9))


def campaign_ops(seed: int, stream: str = "main") -> Iterator[Op]:
    """Built-in campaigns run fresh; a share is then resumed or split+merged."""
    rng = _rng("campaign", stream, seed)
    datasets, halos = Deck(rng, DATASETS), Deck(rng, HALO)
    shards = Deck(rng, SHARD_SIZES)
    n_fresh = CAMPAIGN_BLOCK.count("fresh")
    index = 0
    for number in itertools.count():
        draws = block_draws(rng, ["fresh"] * n_fresh * ROUND)["fresh"]
        for _ in range(ROUND):
            fresh = []
            for _ in range(n_fresh):
                u = draws.pop()
                if u[0] < 0.5:
                    config: Dict[str, Any] = {
                        "experiment": "fig22", "grid_name": datasets.draw()}
                else:
                    fabric, tpc = halos.draw()
                    config = {"experiment": "halo", "fabric": fabric, "tpc": tpc}
                config["faults"] = u[1] < 0.5
                config["shard_size"] = shards.draw()
                fresh.append(Op(index, "fresh", params=config, round=number))
                index += 1
            yield from fresh
            follow = [kind for kind in CAMPAIGN_BLOCK if kind != "fresh"]
            rng.shuffle(follow)
            for kind, src in zip(follow, rng.sample(fresh, len(follow))):
                yield Op(index, kind, params=src.params, ref=src.index,
                         round=number)
                index += 1


# -------------------------------------------------------------------- cli


def cli_ops(seed: int, stream: str = "main") -> Iterator[Op]:
    """A seeded sequence of ``python -m repro`` commands."""
    rng = _rng("cli", stream, seed)
    index = 0
    figures = Deck(rng, FIGURES)
    for block in itertools.count():
        kinds = list(CLI_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            args = CLI_ARGS[kind]
            if kind == "figure":
                args = args + (str(figures.draw()),)
            yield Op(index, kind, params={"args": args}, round=block // CLI_ROUND)
            index += 1


GENERATORS = {
    "stepped": stepped_ops,
    "compiled": compiled_ops,
    "campaign": campaign_ops,
    "cli": cli_ops,
}


def ops(workload: str, seed: int, stream: str = "main") -> Iterator[Op]:
    """The op stream of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed, stream)


def warmup_ops(workload: str) -> List[Op]:
    """One op of each kind, on inputs no timed stream uses.

    Repeats, resumes and merges refer to a warm-up op that runs before
    them.  The compiled bcast warm-up uses a 4 KiB message, below the
    large-message cliff, so set-up pays for the code path but not for
    the cliff itself.
    """
    needed = {
        "stepped": set(STEPPED_BLOCK),
        "compiled": {"fresh", "branchy", "wildcard", "returns"},
        "campaign": {"fresh"},
        "cli": set(CLI_BLOCK),
    }[workload]
    first: Dict[str, Op] = {}
    for op in ops(workload, 0, stream="warmup"):
        if op.kind in needed:
            first.setdefault(op.kind, op)
        if len(first) == len(needed):
            break
    # Negative indices keep warm-up state (journals, first results) apart
    # from the timed ops'.
    warm = [replace(op, index=-1 - i) for i, op in enumerate(
        sorted(first.values(), key=lambda op: op.index))]
    by_kind = {op.kind: op for op in warm}
    if workload == "compiled":
        src = by_kind["returns"]
        warm.append(Op(-len(warm) - 1, "repeat", src.ranks, src.fabric, src.plan,
                       dict(src.params, program=src.kind), ref=src.index))
        warm.append(Op(-len(warm) - 1, "bcast", 32 * 1024, "host",
                       (("bcast", 4 * KiB, 0),),
                       {"check_replay": False, "check_stepped": False}))
    elif workload == "campaign":
        src = by_kind["fresh"]
        for kind in ("resume", "merge"):
            warm.append(Op(-len(warm) - 1, kind, params=src.params, ref=src.index))
    return warm
