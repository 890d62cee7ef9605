"""The repository benchmark: seeded fault-campaign workloads, their
verification against oracles and reference records, and per-layer
attribution from a patched-in span tracer.

``perfbench/run.py`` is the command; see ``perfbench/README.md``.
"""
