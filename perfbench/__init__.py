"""The repository benchmark: seeded workloads, end-to-end metrics, and a
traced run that splits the same work across the program's layers.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
