"""The repository benchmark: four workloads on the deployed configuration.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/NOTES.md`` for
why each workload exists.
"""
