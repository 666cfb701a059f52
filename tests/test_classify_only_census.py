"""A census that only classifies computes no key and touches no cache.

Its records carry no election rounds, and a canonical key costs several
times the batch classification a cache hit would save, so
``sharded_census`` and the queue's census workers classify every
configuration of a classify-only census directly, whichever classifier
algorithm runs. A rounds census still keys and caches: its rerun
classifies nothing.
"""

import pytest

import repro.engine.pipeline as pipeline
from repro.engine import (
    RandomGnpWorkload,
    ResultCache,
    collect_queue,
    create_census_queue,
    queue_worker,
    sharded_census,
)


def exploding_keyer(cfg):
    raise AssertionError("a classify-only census must not compute keys")


@pytest.fixture(scope="module")
def workload():
    return RandomGnpWorkload([5, 6], span=2, p=0.3, samples=6, seed=3)


@pytest.fixture(scope="module")
def rounds_rows(workload):
    return sharded_census(workload, measure_rounds=True).result.rows


def shared_columns(rows):
    return {g: (r.total, r.feasible, r.iterations_sum) for g, r in rows.items()}


@pytest.mark.parametrize("algorithm", ["auto", "compiled"])
def test_sharded_census_never_keys_or_looks_up(
    workload, rounds_rows, tmp_path, algorithm
):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(str(path))
    run = sharded_census(
        workload,
        num_shards=3,
        cache=cache,
        keyer=exploding_keyer,
        algorithm=algorithm,
    )
    assert run.cache is cache
    assert cache.stats.lookups == 0 and len(cache) == 0
    assert not path.exists()
    assert run.stats.classified == run.stats.total_configs == len(workload)
    assert run.stats.cache_hits == run.stats.deduped == 0
    assert shared_columns(run.result.rows) == shared_columns(rounds_rows)


def test_queue_worker_never_keys_or_opens_the_cache(
    workload, rounds_rows, tmp_path, monkeypatch
):
    monkeypatch.setattr(pipeline, "default_keyer", exploding_keyer)
    cache_path = tmp_path / "cache.jsonl"
    queue_path = str(tmp_path / "census.sqlite")
    create_census_queue(
        queue_path, workload, num_shards=3, cache_path=str(cache_path)
    ).close()
    stats = queue_worker(queue_path, wait=False)
    assert stats["classified"] == stats["items"] == len(workload)
    assert stats["cache_hits"] == stats["deduped"] == 0
    assert not cache_path.exists()
    run = collect_queue(queue_path, wait=False)
    assert shared_columns(run.result.rows) == shared_columns(rounds_rows)


def test_rounds_census_still_keys_and_caches(workload, rounds_rows, tmp_path):
    cache_path = str(tmp_path / "sharded.jsonl")
    runs = [
        sharded_census(
            workload, cache=ResultCache(cache_path), measure_rounds=True
        )
        for _ in range(2)
    ]
    assert runs[0].stats.classified > 0
    assert runs[1].stats.classified == 0
    assert runs[1].result.rows == runs[0].result.rows == rounds_rows

    cache_path = str(tmp_path / "queue.jsonl")
    classified = []
    for phase in ("cold", "rerun"):
        queue_path = str(tmp_path / f"{phase}.sqlite")
        create_census_queue(
            queue_path,
            workload,
            num_shards=3,
            measure_rounds=True,
            cache_path=cache_path,
        ).close()
        classified.append(queue_worker(queue_path, wait=False)["classified"])
        assert collect_queue(queue_path).result.rows == rounds_rows
    assert classified[0] > 0 and classified[1] == 0
