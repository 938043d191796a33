"""The repository's benchmark: the paper's four counting protocols driven
through the public sweep, serve and analysis entry points.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and what each layer
metric is expected to move.
"""
