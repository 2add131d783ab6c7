"""End-to-end and per-layer benchmark of the RpStacks pipeline.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
