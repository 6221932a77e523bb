"""The repository's benchmark: seeded workloads, checks and layer traces.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
repository root; see ``perfbench/README.md``.
"""
