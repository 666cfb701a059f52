"""Census engine: canonical-form memoization + sharded pipeline + work queue.

The engine turns the library's feasibility censuses (E1, E11, E14, E15)
from throwaway sweeps into accumulating, resumable artifacts:

* :mod:`repro.engine.keys` — canonical keys that collapse tag-preserving
  isomorphic configurations to one cache entry, at any size, via the
  refinement canonizer (:mod:`repro.canon`);
* :mod:`repro.engine.cache` — an in-memory dict with an optional
  SQLite store (one row per key), so repeated rounds censuses and service
  requests are near-free (a census that only classifies computes no
  key and uses no cache: the key would cost more than it saves);
* :mod:`repro.engine.workloads` — deterministic, slice-regenerable
  workload descriptions (random G(n, p) sweeps, exhaustive
  enumerations) that shards can regenerate without materializing the
  population;
* :mod:`repro.engine.pipeline` — the in-process sharded census runner,
  bit-for-bit equal to :func:`repro.analysis.census.census`, the serial
  reference, which imports neither the engine nor the batch kernel;
* :mod:`repro.engine.queue` — the distributed path and the only
  resumable one: a durable SQLite work queue that N independent worker
  processes drain under lease/heartbeat semantics, costliest pending
  shard first (see ``docs/distributed.md``). One worker
  (:func:`queue_worker`) and one collect step (:func:`collect_queue`)
  serve both job kinds, censuses and robustness campaigns.

Quickstart::

    >>> from repro.engine import RandomGnpWorkload, ResultCache, sharded_census
    >>> workload = RandomGnpWorkload([6, 8], span=2, p=0.3, samples=10, seed=1)
    >>> cache = ResultCache()                      # add path=... to persist
    >>> run = sharded_census(workload, num_shards=4, cache=cache,
    ...                      measure_rounds=True)
    >>> run.result.total
    20
    >>> rerun = sharded_census(workload, num_shards=4, cache=cache,
    ...                        measure_rounds=True)
    >>> rerun.stats.classified                     # second run: all cache hits
    0
    >>> sharded_census(workload).stats.classified  # classify-only: no keys
    20
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
    create_census_queue,
    distributed_census,
    group_by_n_span,
    plan_shards,
    record_sufficient,
    sharded_census,
)
from .queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    Lease,
    QueueError,
    WorkQueue,
    collect_queue,
    default_owner,
    heartbeat_guard,
    queue_worker,
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
    "ShardSpec",
    "WorkQueue",
    "Workload",
    "as_workload",
    "batch_records",
    "cached_evaluate",
    "canonical_key",
    "census_record",
    "certificate_key",
    "collect_queue",
    "create_census_queue",
    "default_keyer",
    "default_owner",
    "distributed_census",
    "feasible_batch",
    "group_by_n_span",
    "heartbeat_guard",
    "labeled_key",
    "make_random_config",
    "plan_shards",
    "queue_worker",
    "random_config_batch",
    "record_sufficient",
    "seeded_config",
    "sharded_census",
    "workload_from_spec",
]
