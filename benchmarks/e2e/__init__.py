"""End-to-end host-time benchmark of the simulator, with per-layer tracing.

Run ``PYTHONPATH=src python -m benchmarks.e2e --help`` (or
``python3 benchmarks/e2e/run.py``); see ``README.md`` in this directory.
This package module stays import-free: worker processes time their
set-up from the moment they start, before ``repro`` is imported.
"""
