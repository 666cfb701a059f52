"""Census engine: canonical-form memoization + sharded pipeline + work queue.

The engine turns the library's feasibility censuses (E1, E11, E14, E15)
from throwaway sweeps into accumulating, resumable artifacts:

* :mod:`repro.engine.keys` — canonical keys that collapse tag-preserving
  isomorphic configurations to one cache entry, at any size, via the
  refinement canonizer (:mod:`repro.canon`);
* :mod:`repro.engine.cache` — an in-memory LRU with an optional
  append-only JSONL store, so repeated and resumed censuses are
  near-free;
* :mod:`repro.engine.workloads` — deterministic, slice-regenerable
  workload descriptions (random G(n, p) sweeps, exhaustive
  enumerations) that shards can regenerate without materializing the
  population;
* :mod:`repro.engine.pipeline` — the in-process sharded census runner,
  bit-for-bit equal to the serial :func:`repro.analysis.census.census`
  path;
* :mod:`repro.engine.queue` + :mod:`repro.engine.scheduler` — the
  distributed path and the only resumable one: a durable SQLite work
  queue that N independent worker processes drain under
  lease/heartbeat semantics, with pending shards ranked by expected
  classification yield (see ``docs/distributed.md``).

Quickstart::

    >>> from repro.engine import RandomGnpWorkload, ResultCache, sharded_census
    >>> workload = RandomGnpWorkload([6, 8], span=2, p=0.3, samples=10, seed=1)
    >>> cache = ResultCache()                      # add path=... to persist
    >>> run = sharded_census(workload, num_shards=4, cache=cache)
    >>> run.result.total
    20
    >>> rerun = sharded_census(workload, num_shards=4, cache=cache)
    >>> rerun.stats.classified                     # second run: all cache hits
    0
"""

from .cache import CacheStats, ResultCache
from .keys import (
    Keyer,
    canonical_key,
    certificate_key,
    default_keyer,
    labeled_key,
)
from .pipeline import (
    GROUPINGS,
    CensusRun,
    EngineStats,
    ShardSpec,
    batch_records,
    cached_evaluate,
    census_record,
    census_queue_worker,
    collect_census_queue,
    create_census_queue,
    distributed_census,
    group_by_n_span,
    plan_shards,
    record_sufficient,
    register_grouping,
    sharded_census,
)
from .queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    Lease,
    QueueError,
    WorkQueue,
    default_owner,
    heartbeat_guard,
)
from .scheduler import (
    ShardCandidate,
    expected_yield,
    observed_miss_rate,
    rank,
)
from .workloads import (
    EnumerationWorkload,
    RandomGnpWorkload,
    SequenceWorkload,
    Workload,
    as_workload,
    feasible_batch,
    make_random_config,
    random_config_batch,
    register_workload_kind,
    seeded_config,
    workload_from_spec,
)

__all__ = [
    "CacheStats",
    "CensusRun",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "EngineStats",
    "EnumerationWorkload",
    "GROUPINGS",
    "Keyer",
    "Lease",
    "QueueError",
    "RandomGnpWorkload",
    "ResultCache",
    "SequenceWorkload",
    "ShardCandidate",
    "ShardSpec",
    "WorkQueue",
    "Workload",
    "as_workload",
    "batch_records",
    "cached_evaluate",
    "canonical_key",
    "census_queue_worker",
    "census_record",
    "certificate_key",
    "collect_census_queue",
    "create_census_queue",
    "default_keyer",
    "default_owner",
    "distributed_census",
    "expected_yield",
    "feasible_batch",
    "group_by_n_span",
    "heartbeat_guard",
    "labeled_key",
    "make_random_config",
    "observed_miss_rate",
    "plan_shards",
    "random_config_batch",
    "rank",
    "record_sufficient",
    "register_grouping",
    "register_workload_kind",
    "seeded_config",
    "sharded_census",
    "workload_from_spec",
]
