"""The four workloads: how each op runs, and how its output is checked.

A workload object has three calls the worker's closed loop makes for
every op, one op at a time:

* ``prepare(op)`` - untimed set-up the op needs (a journal split);
* ``execute(op)`` - the timed call into the program;
* ``op_rss_mb()`` - untimed; the peak RSS the timed call reached;
* ``check(op, result, op_s)`` - untimed; returns a token of the
  simulated output for the run's output digest, or raises
  :class:`Mismatch`.

Every module of the program is looked up through its module or class
at call time, so the traced run's wrappers (:mod:`perfbench.layers`)
see each call.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import selectors
import statistics
import subprocess
import sys
import time
from functools import partial
from typing import Any, Dict, List, Tuple

from perfbench import layers, programs
from perfbench.gen import Op


def hwm_mb() -> float:
    """This process's peak RSS since the last reset (Linux ``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


class Mismatch(Exception):
    """An op's output differs from its reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Workload:
    """What the four workloads share: no-op defaults and the elapsed check.

    Stepped and replayed elapsed times agree to 1e-9 relative, which is
    the program's stated contract; they are not always bit-equal (a
    stepped job with fast collectives can differ from its replay in the
    last digit).  ``inexact`` counts the pairs that agree within 1e-9
    but not bit for bit, and the run reports it.
    """

    name = ""

    def __init__(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.inexact = 0

    @staticmethod
    def imports() -> None:
        """Import the layers this workload calls."""

    def prepare(self, op: Op) -> None:
        """Untimed set-up ``op`` needs."""

    def op_rss_mb(self) -> float:
        """Peak RSS of the last timed call: this process's high-water mark,
        which the loop resets before each call."""
        return hwm_mb()

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself."""
        return {}

    def program_counts(self) -> Dict[str, int]:
        """Path counters the program keeps itself, summed over the run."""
        return {}

    def elapsed(self, got: float, ref: float, what: str) -> None:
        if got == ref:
            return
        _expect(abs(got - ref) <= 1e-9 * max(abs(got), abs(ref)),
                f"elapsed {got!r} != {what} {ref!r}")
        self.inexact += 1


class Stepped(Workload):
    """Seeded rank programs and raw spawn/run storms on the event engine."""

    name = "stepped"

    def __init__(self, workdir: str):
        from repro.mpi import fabrics

        super().__init__(workdir)
        self.fabrics = {"host": fabrics.host_fabric(), "phi": fabrics.phi_fabric()}
        #: kind -> [seconds in the op, seconds in its plain twin]
        self.twin_s: Dict[str, List[float]] = {}

    @staticmethod
    def imports() -> None:
        import repro.analyze.verifier  # noqa: F401
        import repro.faults.plan  # noqa: F401
        import repro.mpi.compile  # noqa: F401
        import repro.mpi.fabrics  # noqa: F401
        import repro.mpi.runtime  # noqa: F401
        import repro.obs.tracer  # noqa: F401
        import repro.simcore  # noqa: F401

    def _job(self, op: Op, **kw: Any):
        from repro.mpi import runtime

        job = runtime.MpiJob(op.ranks, self.fabrics[op.fabric], **kw)
        job.launch(partial(programs.run_plan, op.plan))
        return job.run()

    def _fault_plan(self, op: Op):
        from repro.faults import plan as faults

        kind, a, b = op.params["fault"]
        if kind == "link":
            fault = faults.LinkDegradation(latency_factor=a, bandwidth_factor=b)
        else:
            fault = faults.Straggler(rank=a, slowdown=b)
        return faults.FaultPlan([fault])

    def execute(self, op: Op) -> Any:
        if op.kind == "storm":
            from repro.simcore import engine, process

            def proc(steps: int, delay: float):
                for _ in range(steps):
                    yield process.Timeout(delay)

            eng = engine.Engine()
            p = op.params
            for i in range(p["procs"]):
                eng.spawn(proc(p["steps"], p["delay"] * (1 + i % 7)))
            eng.run()
            return eng
        if op.kind == "plain":
            return self._job(op), None
        if op.kind == "slowcoll":
            return self._job(op, fast_collectives=False), None
        if op.kind == "traced":
            from repro.obs import tracer

            tr = tracer.Tracer()
            return self._job(op, tracer=tr), tr
        if op.kind == "faulted":
            return self._job(op, fault_plan=self._fault_plan(op)), None
        from repro.analyze import verifier

        v = verifier.Verifier()
        return self._job(op, verifier=v), v

    def _twin(self, op: Op, op_s: float, **kw: Any):
        t0 = time.perf_counter()
        twin = self._job(op, **kw)
        sums = self.twin_s.setdefault(op.kind, [0.0, 0.0])
        sums[0] += op_s
        sums[1] += time.perf_counter() - t0
        return twin

    def check(self, op: Op, result: Any, op_s: float) -> str:
        if op.kind == "storm":
            p = op.params
            end, delay = 0.0, p["delay"] * 7  # the slowest process ends last
            for _ in range(p["steps"]):
                end += delay
            _expect(result.now == end, "storm end time")
            _expect(result.timeline() == p["procs"] * (p["steps"] + 1),
                    "storm step count")
            return repr(result.now)
        from repro.mpi import compile as mc

        res, aux = result
        _expect(res.completed, "job incomplete")
        if op.kind in ("plain", "slowcoll"):
            ref = mc.replay(op.ranks, self.fabrics[op.fabric],
                            partial(programs.run_plan, op.plan))
            _expect(res.returns == ref.returns, "returns != replay")
            # The replay prices collectives by the fast path's schedules,
            # which finish early subtrees no sooner than the last arrival
            # (the skewed-arrival caveat in repro.mpi.fastpath), so only
            # jobs with fast collectives share its elapsed time.
            if op.kind == "plain":
                self.elapsed(res.elapsed, ref.elapsed, "replay")
        elif op.kind == "traced":
            # A traced job steps its collectives, as its twin does.
            twin = self._twin(op, op_s, fast_collectives=False)
            _expect(res.elapsed == twin.elapsed, "traced elapsed != twin")
            _expect(res.returns == twin.returns, "traced returns != twin")
            _expect(len(aux.events) > 0, "tracer recorded nothing")
        elif op.kind == "verified":
            twin = self._twin(op, op_s, fast_collectives=False)
            _expect(res.elapsed == twin.elapsed, "verified elapsed != twin")
            report = aux.finalize(result=res)
            _expect(report.ok, "verifier report not clean")
        else:  # faulted: slower than the healthy twin, same payloads
            twin = self._twin(op, op_s, fast_collectives=False)
            _expect(res.elapsed >= twin.elapsed, "faulted job ran faster")
            _expect(res.returns == twin.returns, "faulted returns != twin")
        return f"{res.elapsed!r}:{res.returns!r}"

    def layer_extras(self) -> Dict[str, float]:
        out = {}
        for kind, metric in (("traced", "obs.tracer.overhead_frac"),
                             ("faulted", "faults.overhead_frac"),
                             ("verified", "analyze.verifier.overhead_frac")):
            op_s, twin_s = self.twin_s.get(kind, (0.0, 0.0))
            out[metric] = op_s / twin_s - 1.0 if twin_s else 0.0
        return out


#: The path each compiled op kind must take (``fresh`` below the vector
#: threshold replays instead).
EXPECTED_PATH = {
    "fresh": "vector", "branchy": "replay", "wildcard": "stepped",
    "returns": "vector", "repeat": "memo", "bcast": "vector",
}

PROGRAMS = {
    "fresh": programs.run_plan,
    "returns": programs.run_plan,
    "bcast": programs.run_plan,
    "branchy": programs.run_plan_branchy,
    "wildcard": programs.run_plan_wildcard,
}


def expected_path(op: Op) -> str:
    """The compiled path ``op`` must resolve to."""
    from repro.mpi import compile as mc

    if op.kind == "fresh" and op.ranks < mc.VECTOR_MIN_RANKS:
        return "replay"
    return EXPECTED_PATH[op.kind]


class Compiled(Workload):
    """Seeded rank programs through ``compiled_mpiexec`` with one cache."""

    name = "compiled"

    def __init__(self, workdir: str):
        from repro.mpi import fabrics
        from repro.perf import cache

        super().__init__(workdir)
        self.fabrics = {"host": fabrics.host_fabric(), "phi": fabrics.phi_fabric()}
        self.cache = cache.EvalCache()
        self.first: Dict[int, float] = {}

    @staticmethod
    def imports() -> None:
        import repro.mpi.compile  # noqa: F401
        import repro.mpi.fabrics  # noqa: F401
        import repro.perf.cache  # noqa: F401

    @staticmethod
    def main(op: Op) -> Any:
        kind = op.params["program"] if op.kind == "repeat" else op.kind
        return partial(PROGRAMS[kind], op.plan)

    def execute(self, op: Op) -> Any:
        from repro.mpi import compile as mc

        st = mc.CompileStats()
        res = mc.compiled_mpiexec(op.ranks, self.fabrics[op.fabric],
                                  self.main(op), cache=self.cache, stats=st)
        if op.kind == "returns":
            res.returns  # materialize the lazy returns inside the timed call
        return res, st

    def check(self, op: Op, result: Any, op_s: float) -> str:
        from repro.mpi import compile as mc
        from repro.mpi import runtime

        res, st = result
        want = expected_path(op)
        _expect(st.path == want, f"path {st.path} ({st.reason}), want {want}")
        if op.kind == "repeat":
            _expect(res.elapsed == self.first[op.ref], "memo != first result")
            return repr(res.elapsed)
        self.first[op.index] = res.elapsed
        fabric = self.fabrics[op.fabric]
        # Wildcard receives match by tag, one message per tag per rank,
        # so the plain interpreter is the reference.
        ref_main = (partial(programs.run_plan, op.plan)
                    if op.kind == "wildcard" else self.main(op))
        have_returns = op.kind != "fresh" or st.path == "replay"
        refs = []
        if op.params["check_replay"]:
            if op.ranks > ISOLATE_RANKS:
                ref = isolated(_replay_ref, op.ranks, fabric, ref_main)
            else:
                ref = mc.replay(op.ranks, fabric, ref_main)
            refs.append(("replay", ref))
        if op.params["check_stepped"]:
            job = runtime.MpiJob(op.ranks, fabric)
            job.launch(ref_main)
            refs.append(("stepped", job.run()))
        for what, ref in refs:
            if st.path in ("vector", "replay") and what == "replay":
                # Same recurrences in the same float order: bit-equal.
                _expect(res.elapsed == ref.elapsed, "elapsed != replay")
            else:
                self.elapsed(res.elapsed, ref.elapsed, what)
            if have_returns:
                _expect(res.returns == ref.returns, f"returns != {what}")
        _expect(0.0 < res.elapsed < float("inf"), "elapsed not finite")
        return repr(res.elapsed)


#: References above this many ranks run in a forked child (see isolated).
ISOLATE_RANKS = 1024


def isolated(fn: Any, *args: Any) -> Any:
    """``fn(*args)`` computed in a forked child and pickled back.

    A large reference allocates tens of megabytes that the allocator
    does not always hand back at once; computed here, it would raise the
    RSS the next timed op starts from.  The loop waits for the child, so
    it is the only one running.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: compute, report, exit without cleanup
        os.close(rfd)
        try:
            data = pickle.dumps((True, fn(*args)))
        except Exception as exc:
            data = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        with os.fdopen(wfd, "wb") as fh:
            fh.write(data)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    ok, value = pickle.loads(data)  # bytes from our own child
    _expect(ok, f"reference failed: {value}")
    return value


def _replay_ref(ranks: int, fabric: Any, main: Any) -> Any:
    from repro.mpi import compile as mc
    from repro.mpi import runtime

    ref = mc.replay(ranks, fabric, main)
    return runtime.JobResult(elapsed=ref.elapsed, returns=ref.returns)


def _split_journal(path: str, a: str, b: str) -> None:
    """Deal a journal's point lines to two journals that share its header."""
    with open(path, encoding="utf-8") as fh:
        header, *points = fh.read().splitlines(keepends=True)
    with open(a, "w", encoding="utf-8") as fa, open(b, "w", encoding="utf-8") as fb:
        fa.write(header)
        fb.write(header)
        fa.writelines(points[0::2])
        fb.writelines(points[1::2])


class Campaign(Workload):
    """Built-in campaigns: fresh runs, resumes and split+merge."""

    name = "campaign"

    def __init__(self, workdir: str):
        from repro.campaign import experiments

        super().__init__(workdir)
        self.journals: Dict[int, str] = {}
        self.payloads: Dict[int, bytes] = {}
        #: The fig22 exchange-probe path counters when this object began.
        self.job_stats = dict(experiments.JOB_STATS)

    @staticmethod
    def imports() -> None:
        import repro.campaign.experiments  # noqa: F401
        import repro.campaign.journal  # noqa: F401
        import repro.campaign.runner  # noqa: F401

    def _spec(self, op: Op):
        from repro.campaign import experiments

        p = op.params
        kw: Dict[str, Any] = {}
        if p["experiment"] == "fig22":
            kw["grid_name"] = p["grid_name"]
        else:
            kw.update(fabric=p["fabric"], tpc=p["tpc"])
        plan = experiments.demo_plan(p["experiment"]) if p["faults"] else None
        return experiments.build_spec(p["experiment"], fault_plan=plan, **kw)

    def _path(self, op: Op, tag: str) -> str:
        return os.path.join(self.workdir, f"j{op.index}{tag}.jsonl")

    def prepare(self, op: Op) -> None:
        # Fresh journals stay until the worker removes its work directory
        # after the run: unlinking a file whose blocks fsync allocated can
        # take tens of milliseconds of disk time, which would slow the
        # timed appends of the ops that follow.
        if op.kind == "merge":
            src = self.journals[op.ref]
            _split_journal(src, self._path(op, "a"), self._path(op, "b"))

    def execute(self, op: Op) -> Any:
        from repro.campaign import journal, runner

        spec = self._spec(op)
        shard = op.params["shard_size"]
        if op.kind == "fresh":
            path = self._path(op, "")
            self.journals[op.index] = path
            return runner.run_campaign(spec, path, shard_size=shard,
                                       resume=False)
        if op.kind == "resume":
            return runner.run_campaign(spec, self.journals[op.ref],
                                       shard_size=shard, resume=True)
        merged = self._path(op, "m")
        journal.Journal.merge(self._path(op, "a"), self._path(op, "b"),
                              out=merged)
        return runner.run_campaign(spec, merged, shard_size=shard, resume=True)

    def check(self, op: Op, result: Any, op_s: float) -> str:
        st = result.stats
        _expect(st.replayed + st.cache_hits + st.deduped + st.executed
                == st.total, "RunStats does not account for every point")
        payload = json.dumps(result.results_payload(), sort_keys=True).encode()
        if op.kind == "fresh":
            _expect(st.replayed == 0, "fresh run replayed points")
            infeasible = 0
            for record in result.records:
                if record.status == "ok":
                    continue
                # DLRF6-Large needs 13.4 GiB: it cannot fit one 8 GiB Phi
                # card, so those points fail by design, retries or not.
                point = record.value.point
                _expect(op.params.get("grid_name") == "DLRF6-Large"
                        and point[0] == "phi0"
                        and record.value.error == "OutOfMemoryError",
                        f"point {point} failed: {record.value.error}")
                infeasible += 1
            _expect(st.failures == infeasible, "failure count")
            self.payloads[op.index] = payload
        else:
            _expect(st.executed == 0, f"{op.kind} executed points")
            _expect(payload == self.payloads[op.ref],
                    f"{op.kind} payload != fresh payload")
        if op.kind == "merge":
            # Nothing fsyncs the split and merged journals, so they go
            # now, before writeback gives them blocks that would cost a
            # discard each when the work directory goes.
            for tag in ("a", "b", "m"):
                os.unlink(self._path(op, tag))
        return hashlib.sha256(payload).hexdigest()

    def program_counts(self) -> Dict[str, int]:
        """The fig22 exchange probes' paths (``experiments.JOB_STATS``)
        since this object was made."""
        from repro.campaign import experiments

        return {f"fig22.exchange.{path}": n - self.job_stats.get(path, 0)
                for path, n in sorted(experiments.JOB_STATS.items())}


#: A ``repro`` child still running after this long is killed.
CHILD_TIMEOUT_S = 60.0


class Cli(Workload):
    """Fresh ``python -m repro`` processes, one at a time.

    Each op's peak RSS is that of its own child, not of the worker.
    """

    name = "cli"

    def __init__(self, workdir: str):
        super().__init__(workdir)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        #: Children run in the work directory, and ``campaign status``
        #: prints this path: relative, it reads the same in every worker.
        self.journal = "status.jsonl"
        self.digests: Dict[Tuple[str, ...], str] = {}
        #: command kind -> seconds per op, for the per-command layer times
        self.times: Dict[str, List[float]] = {}
        #: Run children under ``-X importtime`` (the traced pass) and keep
        #: each child's import time per subpackage.
        self.importtime = False
        self.imports_ms: List[Dict[str, float]] = []
        self.child_rss_mb = 0.0
        # Prepared once per work directory: the worker's measuring object
        # reuses the journal its warm-up object prepared.
        if os.path.exists(os.path.join(workdir, self.journal)):
            return
        proc = self._run(("campaign", "run", "halo", "--journal", self.journal))
        if proc.returncode != 0:
            raise RuntimeError(
                "preparing the status journal failed: "
                + proc.stderr.decode(errors="replace")[-400:]
            )

    def _run(self, args: Tuple[str, ...]) -> subprocess.CompletedProcess:
        """Run ``python -m repro *args``, read its output, and reap it with
        ``os.wait4``, so the child's own peak RSS is known (``child_rss_mb``)."""
        cmd = [sys.executable]
        if self.importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "repro", *args]
        proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out: Dict[Any, List[bytes]] = {proc.stdout: [], proc.stderr: []}
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            for pipe in out:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(max(0.0, deadline - time.monotonic()))
                if not ready:  # the child hangs: kill it, keep what it wrote
                    proc.kill()
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        out[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.child_rss_mb = usage.ru_maxrss / 1024.0
        return subprocess.CompletedProcess(cmd, proc.returncode,
                                           b"".join(out[proc.stdout]),
                                           b"".join(out[proc.stderr]))

    def op_rss_mb(self) -> float:
        return self.child_rss_mb

    def _args(self, op: Op) -> Tuple[str, ...]:
        args = tuple(op.params["args"])
        if op.kind == "status":
            args += ("--journal", self.journal)
        return args

    def execute(self, op: Op) -> Any:
        return self._run(self._args(op))

    def check(self, op: Op, result: Any, op_s: float) -> str:
        self.times.setdefault(op.kind, []).append(op_s)
        if self.importtime:
            self.imports_ms.append(layers.import_times(result.stderr.decode()))
        _expect(result.returncode == 0,
                f"{' '.join(op.params['args'])} exited {result.returncode}")
        if op.kind == "validate":
            _expect(b"39/39 claims reproduced" in result.stdout,
                    "validate did not reproduce 39/39 claims")
        digest = hashlib.sha256(result.stdout).hexdigest()
        args = tuple(op.params["args"])
        _expect(self.digests.setdefault(args, digest) == digest,
                f"{' '.join(args)} printed different output on a repeat")
        return digest

    def layer_extras(self) -> Dict[str, float]:
        out = {
            f"cli.{kind}_ms": 1e3 * sum(ts) / len(ts)
            for kind, ts in sorted(self.times.items())
        }
        if self.imports_ms:
            out.update({
                name: statistics.median(probe[name] for probe in self.imports_ms)
                for name in self.imports_ms[0]
            })
        return out


WORKLOADS = {w.name: w for w in (Stepped, Compiled, Campaign, Cli)}
