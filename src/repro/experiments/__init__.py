"""Experiment runners: one module per figure of the paper's evaluation,
plus the fleet tier's headline experiments.

Each figure module exposes a ``run`` function returning a result
dataclass plus a ``format_result`` helper that prints the same series
the paper plots. The benchmarks under ``benchmarks/`` and
``examples/reproduce_figures.py`` are thin wrappers over these.

The fleet experiments (``frontdoor_p99``, ``fleet_migration``,
``frontdoor_overload``) return the fingerprinted payload dict of the
:data:`repro.scenarios.SCENARIOS` entry that pins them, from ``run``
(full scale) and ``run_quick``; their ``format_result`` reads it.
"""

from repro.experiments import (  # noqa: F401
    fig4_instantiation,
    fig5_density,
    fig6_memory_cloning,
    fig7_nginx,
    fig8_redis,
    fig9_fuzzing,
    fig10_faas_memory,
    fig11_faas_reaction,
    frontdoor_p99,
    kvm_compare,
    motivation_idle_pool,
)
