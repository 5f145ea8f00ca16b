"""End-to-end and per-layer benchmark of the IzhiRISC-V reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/NOTES.md`` describes
the workloads, the metrics and the known defects the numbers expose.
"""
