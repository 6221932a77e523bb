"""The benchmark's one command.

    python3 perfbench/run.py --workload stepped --seed 1 --seconds 12 --trace 0

Run from the repository root.  Each run starts fresh interpreters
(``python -m perfbench.worker``) one at a time: with ``--trace 0`` a few
that only set up, to time set-up, then the one that measures; with
``--trace 1`` one that runs a fixed number of ops plain, then one that
runs the same ops with the layer wrappers installed.  It prints every metric by
name with its unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload both ways.  The
exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-up is timed this many times per run (the measuring worker's own
#: set-up is one of them) and reported as the median.
SETUP_SAMPLES = 3
#: A worker that has not finished after this long is killed.
WORKER_TIMEOUT_S = 170.0


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class WorkerError(Exception):
    """A worker process failed before it produced a result."""


def _worker(workload: str, seed: int, seconds: float, mode: str,
            deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Run one worker; return its set-up seconds and its result."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        wait = max(0.0, deadline - time.perf_counter())
        if not select.select([proc.stdout], [], [], wait)[0]:
            raise WorkerError(f"{workload} worker timed out during set-up")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise WorkerError(f"{workload} worker failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def _traced(workload: str, seed: int, seconds: float,
            deadline: float) -> Dict[str, Any]:
    """The plain pass, then the traced pass over the same ops.

    Each pass starts in its own fresh interpreter, so both begin with the
    same module-level caches.  They must agree on every output and on
    the paths the program counts itself.
    """
    _, plain = _worker(workload, seed, seconds, "plain", deadline)
    _, res = _worker(workload, seed, seconds, "traced", deadline)
    disagree = []
    if res["output_digest"] != plain["output_digest"]:
        disagree.append("traced pass: output digest differs from the plain pass")
    if res["program_counts"] != plain["program_counts"]:
        disagree.append(f"traced pass took other paths: {res['program_counts']}"
                        f" vs plain {plain['program_counts']}")
    res["layers"]["bench.trace_overhead_frac"] = res["busy_s"] / plain["busy_s"] - 1.0
    return dict(
        res,
        attempted=plain["attempted"] + res["attempted"],
        failed=(plain["failed"] + plain["warmup_failed"] + res["failed"]
                + len(disagree)),
        errors=plain["errors"] + res["errors"] + disagree,
        inexact=plain["inexact"] + res["inexact"],
    )


def run(workload: str, seed: int, seconds: float, trace: bool,
        deadline: float) -> Dict[str, Any]:
    """One benchmark run of ``workload``: its metrics and correctness."""
    setups = []
    if trace:
        res = _traced(workload, seed, seconds, deadline)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(workload, seed, seconds, "setup", deadline)[0])
        setup_s, res = _worker(workload, seed, seconds, "timed", deadline)
        setups.append(setup_s)
    failed = res["failed"] + res["warmup_failed"]
    out = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "errors": res["errors"],
        "digest": res["output_digest"],
        "ops": res["ops"],
        "rounds": res["rounds"],
        "beyond_p90": res["beyond_p90"],
        "inexact": res["inexact"],
    }
    if trace:
        out["values"] = dict(res["layers"], error_rate=failed / res["attempted"])
        out["self_ms"] = res["self_ms"]
        out["trace_file"] = res["trace_file"]
    else:
        out["values"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": 1e3 * res["p50_s"],
            "op_p90_ms": 1e3 * res["p90_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return out


def _report(workload: str, trace: bool, out: Dict[str, Any],
            units: Dict[str, str]) -> None:
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {workload}: {kind} metrics")
    for name, value in out["values"].items():
        print(f"  {name:38s} {value:14.6g} {units.get(name, '')}")
    print(f"  ops timed {out['ops']} in {out['rounds']} rounds, "
          f"beyond p90 {out['beyond_p90']}, "
          f"attempted {out['attempted']}, failed {out['failed']}, "
          f"elapsed within 1e-9 but not bit-equal {out['inexact']}")
    print(f"  output_digest (first 100 ops) {out['digest']}")
    if trace:
        print(f"  spans written to {out['trace_file']}; self time per span:")
        for name, row in sorted(out["self_ms"].items()):
            print(f"    {name:36s} calls {row['calls']:7d}  total "
                  f"{row['total_ms']:10.2f} ms  self {row['self_ms']:10.2f} ms")
    for err in out["errors"]:
        print(f"  FAILED {err}")


def main(argv: List[str] = None) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro here; run from a repository checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload == "all":
        plan = [(w, t) for w in workloads for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in plan:
        deadline = time.perf_counter() + WORKER_TIMEOUT_S
        try:
            out = run(workload, args.seed, seconds, trace, deadline)
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        if trace:  # a layer that does no work in this workload reports 0
            out["values"] = {m["name"]: out["values"].get(m["name"], 0.0)
                             for m in spec["per_layer"]}
        _report(workload, trace, out, units)
        summary["correct"] = summary["correct"] and out["correct"]
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in out["values"].items():
            summary["metrics"][prefix + name] = {
                "value": value, "unit": units.get(name, "")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
