"""The layer-ledger benchmark: five workloads, end-to-end + per-layer metrics.

See README.md in this directory; ``run.py`` is the entry point.
"""
