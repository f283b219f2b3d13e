"""The repository benchmark: end-to-end and per-layer metrics of ``repro``.

Run ``python3 perfbench/run.py --help``; ``README.md`` here documents
the workloads and metrics.
"""
