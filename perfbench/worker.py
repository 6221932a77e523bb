"""One benchmark run in a fresh interpreter.

``python -m perfbench.worker --workload W --seed N --seconds S [--mode M]``
imports the workload's layers, generates its inputs, runs one untimed
warm-up op of each kind and prints ``READY``: the parent times set-up
up to that line.  Then a closed loop with one client runs ops one at a
time, timing each call and checking each output outside the timed
window, and the last line printed is a JSON result.

``--mode timed`` (the default) runs ops for ``--seconds`` of busy time,
then on to the end of the round of blocks it is in, so that every run
times whole rounds, which hold the same mix of ops for every seed.
``--mode traced`` runs a fixed number of ops with the layer wrappers
installed, and the result carries the per-layer metrics; ``--mode
plain`` runs the same ops without them, in its own interpreter, as the
traced pass's baseline.  ``--mode setup`` stops after ``READY``;
``--mode imports`` only imports the workload's layers (the ``-X
importtime`` probe).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List

from perfbench import gen, layers
from perfbench.workloads import WORKLOADS

#: A run times at least this many ops, so >= 10 samples lie beyond p90.
#: The output digest covers these first ops, which every run of a seed
#: reaches.
MIN_OPS = 100
#: Ops generated up front per second of ``--seconds``: above the fastest
#: workload's rate, so a run never exhausts its inputs.
INPUT_RATE = {"stepped": 1500, "compiled": 800, "campaign": 1500, "cli": 30}
#: Ops of a traced (and of a plain) pass, rounded up to a whole round.
TRACE_OPS = {"stepped": 600, "compiled": 300, "campaign": 500, "cli": 50}
#: Stop timing after this much wall time, whatever ``--seconds`` says.
WALL_CAP_S = 120.0
IMPORT_PROBES = 3


def _reset_hwm() -> None:
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


class Loop:
    """The closed loop: one op at a time, timed call, untimed check.

    ``peak_rss_mb`` is the largest RSS reached inside a timed call: the
    high-water mark is reset before each call, so the peaks of the
    checks' own references (a 16k-rank replay, say) do not count.  The
    collector runs as the program leaves it, so an op pays for whatever
    cyclic garbage earlier ops left.
    """

    def __init__(self, workload: Any, recorder: layers.Recorder):
        self.wl = workload
        self.rec = recorder
        self.peak_rss_mb = 0.0
        self.durations: List[float] = []
        #: the round of each timed op, in step with ``durations``
        self.rounds: List[int] = []
        self.failed = 0
        self.errors: List[str] = []
        self.kinds: Dict[int, str] = {}
        self.digest = hashlib.sha256()

    def step(self, op: gen.Op, traced: bool = False) -> None:
        self.wl.prepare(op)
        self.rec.op = op.index
        self.rec.enabled = traced
        _reset_hwm()
        t0 = time.perf_counter()
        try:
            result = self.wl.execute(op)
        except Exception:  # a failed op is counted, and the loop goes on
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        op_s = time.perf_counter() - t0
        self.rec.enabled = False
        self.peak_rss_mb = max(self.peak_rss_mb, self.wl.op_rss_mb())
        self.durations.append(op_s)
        self.rounds.append(op.round)
        self.kinds[op.index] = op.kind
        if error is None:
            try:
                token = self.wl.check(op, result, op_s)
            except Exception:  # a mismatch or a failing reference
                error = traceback.format_exc(limit=3)
            else:
                if len(self.durations) <= MIN_OPS:
                    self.digest.update(f"{op.index}:{token};".encode())
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {op.index} ({op.kind}): {error}")

    def timed(self, inputs: List[gen.Op], seconds: float) -> None:
        """Run ops until ``seconds`` of busy time and ``MIN_OPS`` ops have
        passed, then to the end of the current round."""
        start = time.perf_counter()
        busy = 0.0
        current = inputs[0].round if inputs else 0
        for op in inputs:
            done = busy >= seconds and len(self.durations) >= MIN_OPS
            if done and op.round != current:
                break
            current = op.round
            if time.perf_counter() - start > WALL_CAP_S:
                break
            self.step(op)
            busy += self.durations[-1]

    def stats(self) -> Dict[str, Any]:
        """Latency percentiles over every op; throughput as the median over
        rounds of each round's ops per busy second, so a stall (a slow
        disk under the campaign's fsyncs, say) moves one round, not the
        figure."""
        d = self.durations
        q = statistics.quantiles(d, n=100, method="inclusive") if len(d) > 1 else d * 99
        per_round: Dict[int, List[float]] = {}
        for number, op_s in zip(self.rounds, d):
            per_round.setdefault(number, []).append(op_s)
        rates = [len(ts) / sum(ts) for ts in per_round.values()]
        return {
            "ops": len(d),
            "rounds": len(rates),
            "ops_per_s": statistics.median(rates) if rates else 0.0,
            "busy_s": sum(d),
            "p50_s": q[49],
            "p90_s": q[89],
            "beyond_p90": sum(1 for x in d if x > q[89]),
            "attempted": len(d),
            "failed": self.failed,
            "errors": self.errors,
            "inexact": self.wl.inexact,
            "output_digest": self.digest.hexdigest(),
            "program_counts": self.wl.program_counts(),
        }


def _import_metrics(workload: str, root: str) -> Dict[str, float]:
    """Median ``-X importtime`` self time per subpackage over a few probes
    of the workload's own imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    cmd = [sys.executable, "-X", "importtime", "-m", "perfbench.worker",
           "--workload", workload, "--mode", "imports"]
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-400:]}")
        probes.append(layers.import_times(proc.stderr))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def _traced(wl: Any, workload: str, seed: int, inputs: List[gen.Op],
            root: str) -> Dict[str, Any]:
    """Run ``inputs`` with the layer wrappers installed."""
    rec = layers.Recorder()
    if workload == "cli":
        from repro import validation  # imported here for a cold call below

        wl.importtime = True
    layers.install(rec)
    loop = Loop(wl, rec)
    try:
        if workload == "cli":
            rec.enabled = True
            if not validation.validate_all().all_passed:
                loop.failed += 1
                loop.errors.append("in-process validate_all failed")
            rec.enabled = False
        for op in inputs:
            loop.step(op, traced=True)
    finally:
        rec.unpatch()
    metrics = layers.metrics(rec, loop.kinds)
    if workload != "cli":  # cli reports its children's own imports
        metrics.update(_import_metrics(workload, root))
    metrics.update(wl.layer_extras())
    trace_path = os.path.join(root, "perfbench", "out",
                              f"trace-{workload}-{seed}.json")
    rec.dump(trace_path)
    return dict(
        loop.stats(),
        layers=metrics,
        self_ms=layers.summary(rec.spans),
        trace_file=os.path.relpath(trace_path, root),
    )


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", default="timed",
                    choices=("timed", "plain", "traced", "setup", "imports"))
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    cls.imports()
    if args.mode == "imports":
        return 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.mode in ("plain", "traced"):
            count = TRACE_OPS[args.workload]
        else:
            count = int(args.seconds * INPUT_RATE[args.workload]) + MIN_OPS
        # Whole rounds: the inputs end where a round does.
        stream = gen.ops(args.workload, args.seed)
        inputs = list(itertools.islice(stream, count))
        last = inputs[-1].round
        inputs += itertools.takewhile(lambda op: op.round == last, stream)
        warm = Loop(cls(workdir), layers.Recorder())
        for op in gen.warmup_ops(args.workload):
            warm.step(op)
        if warm.failed:
            print("\n".join(warm.errors), file=sys.stderr)
        # Every mode measures on a fresh workload object that shares the
        # warm-up's work directory (cli: its prepared status journal).
        wl = cls(workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0 if not warm.failed else 1
        if args.mode == "traced":
            result = _traced(wl, args.workload, args.seed, inputs, root)
        else:
            loop = Loop(wl, layers.Recorder())
            if args.mode == "plain":
                for op in inputs:
                    loop.step(op)
            else:
                loop.timed(inputs, args.seconds)
            result = dict(loop.stats(), peak_rss_mb=loop.peak_rss_mb)
        result["warmup_failed"] = warm.failed
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
