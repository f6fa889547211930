"""End-to-end and per-layer benchmark of the CORD reproduction.

Entry point: ``python3 cordbench/run.py`` (see ``cordbench/README.md``).
"""
