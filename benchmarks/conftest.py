"""Shared helpers for the benchmark/experiment harness.

Run with::

    pytest benchmarks/ --benchmark-only

``bench_paper_experiments.py`` gates E1–E18 from the experiment
registry (:mod:`repro.reporting.experiments`), and each
``bench_eN_*.py`` module gates one more experiment of the
``docs/experiments.md`` index: it benchmarks the relevant operation
*and* asserts its claim, so a regression in either speed or
correctness shows up here.

The workload builders live in :mod:`repro.engine.workloads` and are
re-exported here (and in ``tests/conftest.py``) under identical names:
when pytest collects ``benchmarks/`` and ``tests/`` in one run, both
directories' ``conftest`` modules compete for the ``conftest`` entry in
``sys.modules``, and keeping their public helper surface identical makes
the race harmless.
"""

from __future__ import annotations

from repro.testing import (  # noqa: F401  (re-exported for bench/test modules)
    SMALL_SWEEP_GRID,
    assert_execution_equal,
    assert_trace_equal,
    configurations,
    diverse_configurations,
    feasible_batch,
    make_random_config,
    random_config_batch,
    random_relabel,
    seeded_config,
    sweep_configurations,
)
