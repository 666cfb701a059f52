"""E1 — Theorem 3.17 correctness census.

Classifier vs the simulation ground truth (unique canonical history) and
the automorphism necessary condition, over every 4-node configuration with
span <= 1 plus a random batch; benchmarks the full-census throughput,
both serial and through the canonical-form census engine
(:mod:`repro.engine`), whose cached path is the default for production
sweeps.
"""

import pytest

from repro.analysis.automorphisms import has_fixed_node
from repro.analysis.census import census
from repro.baselines.bruteforce import simulation_feasible
from repro.core.classifier import classify, is_feasible
from repro.engine import EnumerationWorkload, ResultCache, sharded_census
from repro.graphs.enumeration import enumerate_configurations

from conftest import seeded_config


def census_agreement(n, max_tag):
    total = agree = 0
    for cfg in enumerate_configurations(n, max_tag):
        total += 1
        agree += is_feasible(cfg) == simulation_feasible(cfg)
    return total, agree


@pytest.mark.benchmark(group="e1-census")
def test_exhaustive_census_n4(benchmark):
    total, agree = benchmark(census_agreement, 4, 1)
    assert total == 6 * 15  # 6 shapes x (2^4 - 1) normalized tag vectors
    assert agree == total  # 100% agreement: the headline of Theorem 3.17


@pytest.mark.benchmark(group="e1-census")
def test_exhaustive_census_n3_span2(benchmark):
    total, agree = benchmark(census_agreement, 3, 2)
    assert agree == total


@pytest.mark.benchmark(group="e1-census")
def test_random_census_agreement(benchmark):
    configs = [seeded_config(900 + i, n=9, span=2) for i in range(15)]

    def run():
        return sum(
            is_feasible(c) == simulation_feasible(c) for c in configs
        )

    agree = benchmark(run)
    assert agree == len(configs)


@pytest.mark.benchmark(group="e1-census-engine")
def test_engine_census_matches_serial(benchmark):
    workload = EnumerationWorkload(4, 1)
    serial = census(iter(workload))

    def run():
        return sharded_census(workload, num_shards=4).result

    result = benchmark(run)
    assert result.rows == serial.rows  # the engine's equality contract
    assert result.total == 90


@pytest.mark.benchmark(group="e1-census-engine")
def test_engine_census_cached_rerun(benchmark):
    # only a rounds census keys and caches (a classify-only one computes
    # no key: the key costs more than the classification it would save)
    workload = EnumerationWorkload(4, 1)
    cache = ResultCache()
    warm = sharded_census(workload, cache=cache, measure_rounds=True)

    def rerun():
        return sharded_census(
            workload, num_shards=4, cache=cache, measure_rounds=True
        )

    run = benchmark(rerun)
    assert run.stats.classified == 0  # every item a cache hit
    assert run.result.rows == warm.result.rows


@pytest.mark.benchmark(group="e1-census")
def test_yes_implies_fixed_node(benchmark):
    configs = [seeded_config(7000 + i, n=7, span=2) for i in range(20)]

    def run():
        ok = 0
        for c in configs:
            trace = classify(c)
            if not trace.feasible or has_fixed_node(trace.config):
                ok += 1
        return ok

    assert benchmark(run) == len(configs)
