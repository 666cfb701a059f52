"""E8 — Ablation: faithful representative-scan Refine vs hash-based Refine.

Same outputs (asserted), different asymptotics: the paper's O(n³Δ) loop vs
the dict-based O(nΔ log Δ)-per-iteration variant. The benchmark pair
quantifies the win; the correctness assertion keeps the ablation honest.
The faithful loop is ``classify(cfg, algorithm="reference")``:
``classify``'s default is the compiled core, not the paper's loop.
"""

import pytest

from repro.core.classifier import classify
from repro.core.configuration import Configuration
from repro.core.fast_classifier import fast_classify, traces_equal
from repro.graphs.generators import path_edges
from repro.graphs.tags import one_early_riser

from conftest import seeded_config


def worst_case_path(n):
    return Configuration(path_edges(n), one_early_riser(range(n)))


@pytest.mark.benchmark(group="e8-ablation-n64")
def test_faithful_n64(benchmark):
    cfg = worst_case_path(64)
    trace = benchmark(classify, cfg, algorithm="reference")
    assert trace.decision


@pytest.mark.benchmark(group="e8-ablation-n64")
def test_fast_n64(benchmark):
    cfg = worst_case_path(64)
    trace = benchmark(fast_classify, cfg)
    assert trace.decision


@pytest.mark.benchmark(group="e8-ablation-n128")
def test_faithful_n128(benchmark):
    cfg = worst_case_path(128)
    trace = benchmark(classify, cfg, algorithm="reference")
    assert trace.decision


@pytest.mark.benchmark(group="e8-ablation-n128")
def test_fast_n128(benchmark):
    cfg = worst_case_path(128)
    trace = benchmark(fast_classify, cfg)
    assert trace.decision


@pytest.mark.benchmark(group="e8-ablation-equality")
def test_outputs_identical_across_workloads(benchmark):
    configs = [worst_case_path(48)] + [
        seeded_config(8600 + i, n=14, span=3) for i in range(8)
    ]

    def run():
        return all(
            traces_equal(classify(c, algorithm="reference"), fast_classify(c))
            for c in configs
        )

    assert benchmark(run)
