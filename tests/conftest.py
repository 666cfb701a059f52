"""Shared fixtures, helpers and hypothesis strategies for the test suite.

The seeded workload builders live in :mod:`repro.engine.workloads`; they
are re-exported here (and in ``benchmarks/conftest.py``) under identical
names so that a combined ``tests`` + ``benchmarks`` collection — where
both ``conftest`` modules race for the same ``sys.modules`` slot — keeps
every ``from conftest import ...`` working no matter which file wins.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.configuration import Configuration, line_configuration
from repro.testing import (  # noqa: F401  (re-exported for test modules)
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


# ----------------------------------------------------------------------
# deterministic sample configurations
# ----------------------------------------------------------------------
@pytest.fixture
def singleton():
    """One isolated node (trivially feasible)."""
    return Configuration([], {0: 0})


@pytest.fixture
def sym_pair():
    """Two nodes, same tag — the canonical infeasible configuration."""
    return Configuration([(0, 1)], {0: 0, 1: 0})


@pytest.fixture
def asym_pair():
    """Two nodes, tags 0/1 — the smallest nontrivial feasible one."""
    return Configuration([(0, 1)], {0: 0, 1: 1})


@pytest.fixture
def small_path():
    """Path 0-1-2 with tags 0,1,0 — feasible; the middle node leads."""
    return line_configuration([0, 1, 0])


@pytest.fixture
def sym_path():
    """Path 0-1-2 with all-zero tags: every node wakes in the same round,
    so nobody's history ever differs — kept as the canonical infeasible
    path (the classifier rejects it immediately)."""
    return line_configuration([0, 0, 0])


# ----------------------------------------------------------------------
# holding the service's classification in flight
# ----------------------------------------------------------------------
class ClassificationGate:
    """Holds every miss classification until :meth:`release`.

    ``entered`` is set once a classification has started (and is
    waiting); after :meth:`release` every held and later one runs.
    """

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.released = threading.Event()

    def release(self) -> None:
        """Let the held classification, and every later one, run."""
        self.released.set()

    def release_when(self, predicate, timeout: float = 10.0) -> None:
        """Release from a background thread once ``predicate()`` holds
        (or after ``timeout`` seconds)."""

        def wait() -> None:
            deadline = time.monotonic() + timeout
            while not predicate() and time.monotonic() < deadline:
                time.sleep(0.005)
            self.release()

        threading.Thread(target=wait, daemon=True).start()


@pytest.fixture
def held_classification(monkeypatch):
    """Block the engine's miss classification on a gate.

    The service runs ``repro.engine.pipeline._classify_records`` on its
    worker thread, so a held batch keeps its requests in flight while
    the event loop serves on; requests queued meanwhile form the next
    batch. The gate is released at teardown.
    """
    import repro.engine.pipeline as pipeline

    gate = ClassificationGate()
    classify = pipeline._classify_records

    def held(configs, measure_rounds, algorithm):
        gate.entered.set()
        gate.released.wait(30)
        return classify(configs, measure_rounds, algorithm)

    monkeypatch.setattr(pipeline, "_classify_records", held)
    yield gate
    gate.release()
