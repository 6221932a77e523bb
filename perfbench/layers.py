"""Layer attribution for the traced run.

:func:`install` replaces the public entry points of each layer with
timing wrappers, in the module or class where their callers look them
up, and :meth:`Recorder.unpatch` puts the originals back.  Spans (name, start,
end, parent, op) and counts stay in memory in a :class:`Recorder` and
are written out when the run ends.  A layer's self time is its span
minus the time its child spans cover.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Large-message bcasts at or above this size take the list-API schedule
#: (``repro.mpi.collectives.LARGE_MESSAGE_SWITCH``), the bcast cliff.
LARGE_BCAST = 32 * 1024

Hook = Callable[[Dict[str, Any], tuple, dict], None]


class Recorder:
    """Spans and counts of one traced run, in memory."""

    def __init__(self) -> None:
        #: [name, start, end, parent span index or -1, op index, meta]
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Any] = []

    def wrap(self, name: str, fn: Callable, pre: Optional[Hook] = None,
             post: Optional[Callable[..., None]] = None,
             when: Optional[Callable[..., bool]] = None) -> Callable:
        """``fn`` recording one span per call while the recorder is on.

        ``pre(meta, args, kw)`` runs before the call and may fill in
        ``kw``; ``post(meta, result, args, kw)`` runs after it;
        ``when(args, kw)`` limits recording to matching calls.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kw: Any) -> Any:
            if not rec.enabled or (when is not None and not when(args, kw)):
                return fn(*args, **kw)
            meta: Dict[str, Any] = {}
            if pre is not None:
                pre(meta, args, kw)
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, 0.0, 0.0, parent, rec.op, meta]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if post is not None:
                post(meta, result, args, kw)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``owner.attr`` (a function, method, classmethod or property)."""
        if isinstance(owner, type):  # the raw descriptor, not its binding
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            new: Any = classmethod(self.wrap(name, original.__func__, **hooks))
        elif isinstance(original, property):
            new = property(self.wrap(name, original.fget, **hooks))
        else:
            new = self.wrap(name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point whose module is loaded."""
    loaded = sys.modules
    if "repro.simcore.engine" in loaded:
        from repro.simcore import engine

        def steps0(meta, args, kw):
            meta["steps0"] = args[0].timeline()

        def steps(meta, result, args, kw):
            meta["steps"] = args[0].timeline() - meta.pop("steps0")
            rec.counts["simcore.engine.steps"] += meta["steps"]

        rec.patch(engine.Engine, "run", "simcore.engine.run", pre=steps0, post=steps)
    if "repro.mpi.runtime" in loaded:
        from repro.mpi import runtime

        def variant(meta, args, kw):
            job = args[0]
            plain = (job.tracer is None and job.verifier is None
                     and job.fault_plan is None)
            meta["variant"] = (
                ("plain" if job.fast is not None else "slowcoll")
                if plain else "instrumented"
            )

        rec.patch(runtime.MpiJob, "launch", "mpi.runtime.launch")
        rec.patch(runtime.MpiJob, "run", "mpi.runtime.run", pre=variant)
        rec.patch(runtime.JobResult, "returns", "mpi.compile.lazy_returns",
                  when=lambda args, kw: args[0]._returns is None)
    if "repro.mpi.compile" in loaded:
        from repro.mpi import compile as mc

        def stats(meta, args, kw):
            if kw.get("stats") is None:
                kw["stats"] = mc.CompileStats()

        def path(meta, result, args, kw):
            meta["path"] = kw["stats"].path
            rec.counts[f"mpi.compile.path.{meta['path']}"] += 1

        def large_bcast(meta, args, kw):
            meta["bcast"] = any(
                ph.coll == "bcast" and ph.nbytes >= LARGE_BCAST
                for ph in args[0].phases
            )

        def replay_ops(meta, result, args, kw):
            meta["ops"] = args[0].replay_ops

        rec.patch(mc, "compiled_mpiexec", "mpi.compile.compiled_mpiexec",
                  pre=stats, post=path)
        rec.patch(mc, "rank_program_profile", "analyze.staticcheck.profile")
        rec.patch(mc, "lower", "mpi.phasec.lower")
        rec.patch(mc, "price", "mpi.phasec.price", pre=large_bcast)
        rec.patch(mc._ReplayJob, "run", "mpi.compile.replay", post=replay_ops)
    if "repro.perf.cache" in loaded:
        from repro.perf import cache

        def hit0(meta, args, kw):
            meta["hits0"] = args[0].stats.hits

        def hit(meta, result, args, kw):
            hit = args[0].stats.hits > meta.pop("hits0")
            rec.counts["perf.cache.hits" if hit else "perf.cache.misses"] += 1

        rec.patch(cache.EvalCache, "key", "perf.cache.key")
        rec.patch(cache.EvalCache, "get", "perf.cache.get", pre=hit0, post=hit)
        rec.patch(cache.EvalCache, "put", "perf.cache.put")
    if "repro.campaign.runner" in loaded:
        from repro.campaign import journal, queue, runner, spec

        def attempts(meta, result, args, kw):
            rec.counts["campaign.retry.attempts"] += result.attempts

        def append(meta, result, args, kw):
            rec.counts["campaign.journal.appends"] += 1

        rec.patch(spec.CampaignSpec, "fingerprint", "campaign.spec.fingerprint")
        rec.patch(spec.CampaignSpec, "keys", "campaign.spec.keys")
        rec.patch(journal.Journal, "append_point", "campaign.journal.append",
                  post=append)
        rec.patch(journal.Journal, "read", "campaign.journal.read")
        rec.patch(journal.Journal, "merge", "campaign.journal.merge")
        rec.patch(runner, "run_campaign", "campaign.runner.run")
        rec.patch(queue, "execute_point", "campaign.point", post=attempts)
    if "repro.validation" in loaded:
        from repro import validation

        rec.patch(validation, "validate_all", "validation.validate_all")


def self_times(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summary(spans: List[List[Any]]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self milliseconds per span name."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for s, self_s in zip(spans, own):
        row = out[s[0]]
        row["calls"] += 1
        row["total_ms"] += 1e3 * (s[2] - s[1])
        row["self_ms"] += 1e3 * self_s
    return dict(out)


def metrics(rec: Recorder, kinds: Dict[int, str]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``kinds`` maps op index to op kind.  A layer that did no work in the
    pass reports 0.
    """
    spans = rec.spans
    own = self_times(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def mean(name: str, scale: float, pred: Callable[[int], bool] = None,
             times: Callable[[int], float] = dur) -> float:
        idx = [i for i in by_name.get(name, ()) if pred is None or pred(i)]
        return scale * sum(times(i) for i in idx) / len(idx) if idx else 0.0

    def per_step(pred: Callable[[int], bool]) -> float:
        idx = [i for i in by_name.get("simcore.engine.run", ()) if pred(i)]
        n = sum(spans[i][5]["steps"] for i in idx)
        return 1e6 * sum(dur(i) for i in idx) / n if n else 0.0

    def under_job(variant: str) -> Callable[[int], bool]:
        def pred(i: int) -> bool:
            parent = spans[i][3]
            return (parent >= 0 and spans[parent][0] == "mpi.runtime.run"
                    and spans[parent][5]["variant"] == variant)
        return pred

    replays = by_name.get("mpi.compile.replay", ())
    replay_ops = sum(spans[i][5]["ops"] for i in replays)
    hits, misses = rec.counts["perf.cache.hits"], rec.counts["perf.cache.misses"]
    out = {
        "simcore.engine.steps": rec.counts["simcore.engine.steps"],
        "simcore.engine.us_per_step": per_step(
            lambda i: kinds.get(spans[i][4]) == "storm"),
        "mpi.p2p.us_per_step": per_step(under_job("plain")),
        "mpi.collectives.us_per_step": per_step(under_job("slowcoll")),
        "mpi.runtime.launch_ms": mean("mpi.runtime.launch", 1e3),
        "perf.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "perf.cache.key_us": mean("perf.cache.key", 1e6),
        "analyze.staticcheck.profile_us": mean("analyze.staticcheck.profile", 1e6),
        "mpi.phasec.lower_ms": mean("mpi.phasec.lower", 1e3),
        "mpi.phasec.price_ms": mean(
            "mpi.phasec.price", 1e3, lambda i: not spans[i][5]["bcast"]),
        "mpi.phasec.price_ms.bcast": mean(
            "mpi.phasec.price", 1e3, lambda i: spans[i][5]["bcast"]),
        "mpi.compile.replay_us_per_op": (
            1e6 * sum(dur(i) for i in replays) / replay_ops if replay_ops else 0.0),
        "mpi.compile.lazy_returns_ms": mean("mpi.compile.lazy_returns", 1e3),
        "mpi.compile.fallback_ms": mean(
            "mpi.compile.compiled_mpiexec", 1e3,
            lambda i: spans[i][5]["path"] == "stepped"),
        "campaign.spec.keys_ms": mean("campaign.spec.keys", 1e3),
        "campaign.point_ms": mean("campaign.point", 1e3),
        "campaign.retry.attempts": rec.counts["campaign.retry.attempts"],
        "campaign.runner.self_ms": mean(
            "campaign.runner.run", 1e3, times=lambda i: own[i]),
        "campaign.journal.append_us": mean("campaign.journal.append", 1e6),
        "campaign.journal.appends": rec.counts["campaign.journal.appends"],
        "campaign.journal.read_ms": mean("campaign.journal.read", 1e3),
        "campaign.journal.merge_ms": mean("campaign.journal.merge", 1e3),
        "validation.validate_all_ms": mean("validation.validate_all", 1e3),
    }
    for path in ("memo", "vector", "replay", "stepped"):
        out[f"mpi.compile.path.{path}"] = rec.counts[f"mpi.compile.path.{path}"]
    return out


#: Subpackages whose ``-X importtime`` self time is reported.
IMPORT_PACKAGES = (
    "numpy", "repro.mpi", "repro.machine", "repro.analyze", "repro.core",
    "repro.cli", "repro.simcore", "repro.execmodel", "repro.perf", "repro.obs",
)


def import_times(stderr: str) -> Dict[str, float]:
    """Self milliseconds per subpackage from ``-X importtime`` output."""
    out = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, module = line[len("import time:"):].split("|")
        module = module.strip()
        if not self_us.strip().isdigit():
            continue  # the column header
        for pkg in IMPORT_PACKAGES:
            if module == pkg or module.startswith(pkg + "."):
                out[pkg] += int(self_us) / 1e3
    return {f"import.{pkg}_ms": ms for pkg, ms in out.items()}
