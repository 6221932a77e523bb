"""Tests of the benchmark's generators, checks and layer report.

Run from the repository root:
``PYTHONPATH=src:. python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import gen, layers, worker
from perfbench.workloads import WORKLOADS, Compiled, expected_path

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _take(workload, seed, n, stream="main"):
    return list(itertools.islice(gen.ops(workload, seed, stream), n))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _take(workload, 7, 300) == _take(workload, 7, 300)
    assert _take(workload, 7, 300) != _take(workload, 8, 300)
    assert _take(workload, 7, 300) != _take(workload, 7, 300, "warmup")


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import hashlib, itertools\n"
            "from perfbench import gen\n"
            "ops = [list(itertools.islice(gen.ops(w, 5), 500))\n"
            "       for w in gen.WORKLOADS]\n"
            "print(hashlib.sha256(repr(ops).encode()).hexdigest())")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_block_shares_are_fixed(workload):
    """Every seed gets the same count of each op kind per block."""
    block = {"stepped": gen.STEPPED_BLOCK, "campaign": gen.CAMPAIGN_BLOCK,
             "cli": gen.CLI_BLOCK}.get(workload)
    if block is None:
        return
    for seed in (1, 2):
        kinds = [op.kind for op in _take(workload, seed, len(block))]
        assert sorted(kinds) == sorted(block)


def _rounds(workload, seed, n):
    """The first ``n`` rounds of a stream, each as a list of ops."""
    out = [[]]
    for op in gen.ops(workload, seed):
        if op.round != len(out) - 1:
            assert op.round == len(out)
            if len(out) == n:
                return out
            out.append([])
        out[-1].append(op)


def _mix(ops):
    """A round's cli commands, or its fresh campaigns' configurations,
    faults and shard sizes, each counted on its own."""
    if ops[0].params.get("args"):
        return sorted(op.params["args"] for op in ops)
    fresh = [op.params for op in ops if op.kind == "fresh"]
    return [sorted(repr([p.get(k) for k in keys]) for p in fresh)
            for keys in (("experiment", "grid_name", "fabric", "tpc"),
                         ("faults",), ("shard_size",))]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_round_holds_the_same_mix(workload):
    """Each round has the same op kinds for every seed; a cli round the
    same commands, a campaign round the same fresh campaigns."""
    first = _rounds(workload, 1, 3)
    second = _rounds(workload, 2, 3)
    later = [sorted(op.kind for op in r) for r in first[1:] + second[1:]]
    assert all(kinds == later[0] for kinds in later)
    if workload in ("cli", "campaign"):
        for a, b in zip(first, second):
            assert _mix(a) == _mix(b)
    if workload == "cli":
        assert len(first[0]) * 2 == worker.MIN_OPS


def test_timed_loop_ends_on_a_round_boundary():
    class Quick:
        inexact = 0

        def prepare(self, op):
            pass

        def execute(self, op):
            return op.index

        def op_rss_mb(self):
            return 1.0

        def check(self, op, result, op_s):
            return str(result)

        def program_counts(self):
            return {}

    ops = _take("stepped", 1, 3 * 160)
    loop = worker.Loop(Quick(), layers.Recorder())
    loop.timed(ops, 0.0)
    assert len(loop.durations) == 160 == len(_rounds("stepped", 1, 1)[0])


def test_compiled_stream_shape():
    ops = [op for r in _rounds("compiled", 3, 3) for op in r]
    assert [op.index for op in ops] == list(range(len(ops)))
    assert [op.round for op in ops if op.kind == "bcast"] == [0, 1, 2]
    by_index = {op.index: op for op in ops}
    for op in ops:
        if op.kind == "repeat":
            src = by_index[op.ref]
            assert src.index < op.index and src.kind != "wildcard"
            assert (op.ranks, op.fabric, op.plan) == (src.ranks, src.fabric, src.plan)
        elif op.kind == "bcast":
            assert op.ranks >= 32 * 1024
        else:
            assert 64 <= op.ranks <= 100_000


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_warmup_covers_every_kind_on_other_inputs(workload):
    warm = gen.warmup_ops(workload)
    kinds = {op.kind for op in warm}
    expected = {op.kind for op in _take(workload, 1, 200)}
    assert kinds == expected
    assert all(op.index < 0 for op in warm)
    ran = set()
    for op in warm:  # a repeat, resume or merge follows the op it refers to
        assert op.ref == -1 or op.ref in ran
        ran.add(op.index)


def test_each_compiled_kind_takes_its_path(tmp_path):
    wl = Compiled(str(tmp_path))
    seen = set()
    # The warm-up bcast is the cheap one: 4 KiB, below the cliff.
    ops = [op for op in gen.warmup_ops("compiled") if op.kind == "bcast"]
    for op in ops + _take("compiled", 5, 120):
        if op.index >= 0 and (op.kind == "bcast" or op.ranks > 4096):
            continue  # keep the test quick
        if op.kind == "repeat" and op.ref not in wl.first:
            continue
        res, st = wl.execute(op)
        wl.check(op, (res, st), 0.0)
        assert st.path == expected_path(op)
        seen.add((op.kind, st.path))
    assert {path for _, path in seen} == {"memo", "vector", "replay", "stepped"}
    assert ("bcast", "vector") in seen and ("returns", "vector") in seen


@pytest.mark.parametrize("workload,count", [("stepped", 40), ("campaign", 40),
                                            ("cli", 4)])
def test_ops_check_out(workload, count, tmp_path):
    wl = WORKLOADS[workload](str(tmp_path))
    loop = worker.Loop(wl, layers.Recorder())
    for op in gen.warmup_ops(workload) + _take(workload, 2, count):
        loop.step(op)
    assert loop.failed == 0, loop.errors
    assert loop.peak_rss_mb > 0


def test_injected_wrong_result_counts_as_error(tmp_path, monkeypatch):
    wl = Compiled(str(tmp_path))
    real = Compiled.execute

    def wrong(self, op):
        res, st = real(self, op)
        if op.index % 3 == 0:
            res.elapsed *= 1.0 + 1e-6
        return res, st

    monkeypatch.setattr(Compiled, "execute", wrong)
    loop = worker.Loop(wl, layers.Recorder())
    ops = [op for op in _take("compiled", 9, 60)
           if op.kind in ("fresh", "branchy") and op.ranks <= 1024][:9]
    for op in ops:
        loop.step(op)
    stats = loop.stats()
    assert stats["failed"] == sum(1 for op in ops if op.index % 3 == 0) > 0
    assert stats["attempted"] == len(ops)
    assert all("Mismatch" in err for err in stats["errors"])


def _traced_counts(tmp_path):
    rec = layers.Recorder()
    wl = Compiled(str(tmp_path))
    layers.install(rec)
    try:
        loop = worker.Loop(wl, rec)
        for op in _take("compiled", 4, 30):
            if op.kind != "bcast" and op.ranks <= 4096:
                loop.step(op, traced=True)
    finally:
        rec.unpatch()
    assert loop.failed == 0, loop.errors
    return layers.metrics(rec, loop.kinds)


def test_layer_counts_repeat_and_wrappers_come_off(tmp_path):
    from repro.mpi import compile as mc
    from repro.simcore import engine

    run, compiled = engine.Engine.run, mc.compiled_mpiexec
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert engine.Engine.run is run and mc.compiled_mpiexec is compiled
    counts = [k for k in first if k.startswith("mpi.compile.path.")]
    counts.append("simcore.engine.steps")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["mpi.compile.path.vector"] > 0
    assert first["mpi.compile.path.memo"] > 0
    assert first["mpi.phasec.lower_ms"] > 0 and first["perf.cache.key_us"] > 0


def _worker(workload, mode):
    """One worker pass in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", workload,
         "--seed", "3", "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_plain_and_traced_campaign_passes_take_the_same_paths():
    """Each pass starts in a fresh interpreter, so the fig22 job memo is
    as cold in the traced pass as in the plain one."""
    plain = _worker("campaign", "plain")
    traced = _worker("campaign", "traced")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["output_digest"] == traced["output_digest"]
    counts = plain["program_counts"]
    assert counts == traced["program_counts"]
    assert counts.get("fig22.exchange.memo", 0) > 0
    assert sum(n for path, n in counts.items() if not path.endswith(".memo")) > 0
    paths = {path.rsplit(".", 1)[1]: n for path, n in counts.items()}
    layer = {k.rsplit(".", 1)[1]: v for k, v in traced["layers"].items()
             if k.startswith("mpi.compile.path.") and v}
    assert layer == {p: n for p, n in paths.items() if n}


def test_cli_peak_rss_is_the_largest_timed_child(tmp_path):
    wl = WORKLOADS["cli"](str(tmp_path))
    loop = worker.Loop(wl, layers.Recorder())
    loop.step(gen.Op(0, "modes", params={"args": ("modes",)}))
    assert loop.failed == 0, loop.errors
    assert 5.0 < loop.peak_rss_mb == wl.child_rss_mb


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, {}], ["b", 1.0, 4.0, 0, 0, {}],
             ["c", 2.0, 3.0, 1, 0, {}], ["d", 5.0, 6.0, 0, 0, {}]]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_import_times_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   numpy.core",
        "import time:      2000 |       2120 | numpy",
        "import time:       500 |        500 |     repro.mpi.api",
        "import time:        50 |         50 | repro.mpix",
    ])
    got = layers.import_times(text)
    assert got["import.numpy_ms"] == pytest.approx(2.12)
    assert got["import.repro.mpi_ms"] == pytest.approx(0.5)
    assert set(got) == {f"import.{p}_ms" for p in layers.IMPORT_PACKAGES}


def test_benchmark_json_names_every_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    for key in layers.metrics(layers.Recorder(), {}):
        assert key in names
    for key in layers.import_times(""):
        assert key in names
    for key in WORKLOADS["stepped"](str(tmp_path)).layer_extras():
        assert key in names
    for kind in gen.CLI_BLOCK:
        assert f"cli.{kind}_ms" in names


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stepped",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
