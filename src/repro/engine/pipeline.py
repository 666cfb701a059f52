"""Sharded, cached census pipeline.

The pipeline splits a :class:`~repro.engine.workloads.Workload` into
deterministic contiguous shards, classifies each shard, and streams
only the *aggregated* per-shard rows to the merger — memory is bounded
by one shard plus the row table, never by the population size.

How a shard is classified depends on what its records carry. A census
that measures election rounds goes through the canonical-form cache
(:func:`batch_records`): a hit saves the classification *and* the
election, which costs more than the key. A census that only classifies
computes no key and does no cache lookup — it batch-classifies every
configuration, because a canonical key costs several times the batch
classification a hit would save (``docs/performance.md``).

For any shard count, worker count, and cache state, the merged
:class:`~repro.analysis.census.CensusResult` equals what the serial
:func:`repro.analysis.census.census` produces on the same workload, row
for row. This holds because every cached quantity (feasibility,
refinement iterations, election rounds) is invariant under the
tag-preserving isomorphisms the canonical key collapses.

:func:`sharded_census` runs in-process and keeps no resume state. The
durable work queue (:func:`distributed_census`) is the one way to
resume an interrupted census and the one way to run it in several
processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.census import (
    CensusResult,
    CensusRow,
    group_by_n,
    group_by_n_span,
)
from ..core.classifier import classify
from ..core.configuration import Configuration
from ..core.election import elect_leader
from ..obs.runtime import STATE as _OBS
from ..obs.runtime import event as _obs_event
from ..obs.runtime import registry as _registry
from ..obs.runtime import span as _obs_span
from .cache import ResultCache
from .keys import Keyer, default_keyer
from .queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    JobKind,
    QueueError,
    WorkQueue,
    collect_queue,
    drain_with_local_workers,
    queue_worker,
)
from .workloads import Workload, as_workload, workload_from_spec

#: A census grouping: configuration -> row key.
GroupBy = Callable[[Configuration], object]

#: The closed set of named groupings a distributed census can ship
#: through its queue.
GROUPINGS: Dict[str, GroupBy] = {
    "n_span": group_by_n_span,
    "n": group_by_n,
}


def _grouping_name(group_by: Optional[GroupBy]) -> str:
    """The name of a grouping callable in :data:`GROUPINGS` (None -> default).

    Other callables cannot cross a process boundary, so they are
    rejected with the names a distributed census accepts.
    """
    if group_by is None:
        return "n_span"
    for name, fn in GROUPINGS.items():
        if fn is group_by:
            return name
    raise ValueError(
        f"distributed censuses group by a named grouping, one of "
        f"{sorted(GROUPINGS)}; got another callable"
    )


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard: the half-open item range ``[start, stop)`` of a workload."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of workload items in the shard."""
        return self.stop - self.start


def plan_shards(total: int, num_shards: int) -> List[ShardSpec]:
    """Split ``total`` items into ``num_shards`` balanced contiguous shards.

    Deterministic: shard sizes differ by at most one, larger shards
    first. Empty shards are dropped, so asking for more shards than
    items is harmless.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base, extra = divmod(total, num_shards)
    shards: List[ShardSpec] = []
    start = 0
    for i in range(num_shards):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        shards.append(ShardSpec(index=i, start=start, stop=start + size))
        start += size
    return shards


# ----------------------------------------------------------------------
# classification records
# ----------------------------------------------------------------------
def census_record(
    cfg: Configuration,
    measure_rounds: bool = False,
    algorithm: str = "auto",
) -> Dict:
    """Isomorphism-invariant classification record for one configuration.

    The record carries exactly what census aggregation needs: the
    feasibility verdict, the classifier iteration count, and (when
    ``measure_rounds``) the dedicated election round count for feasible
    configurations. Node identities (e.g. the leader) are deliberately
    excluded — they are not isomorphism-invariant. ``algorithm`` picks
    the classifier implementation (record values are identical for
    every choice, so records cached under different knobs interoperate).
    """
    trace = classify(cfg, algorithm=algorithm)
    rounds: Optional[int] = None
    if measure_rounds and trace.feasible:
        rounds = elect_leader(trace.config, trace=trace).rounds
    return {
        "feasible": trace.feasible,
        "iterations": trace.num_iterations,
        "rounds": rounds,
    }


def record_sufficient(record: Optional[Dict], measure_rounds: bool) -> bool:
    """Whether a cached record answers a census/service question.

    A record missing the census fields — e.g. one written by a foreign
    evaluator into a shared cache file, against the one-cache-per-
    evaluator convention — counts as insufficient, so callers reclassify
    and overwrite instead of crashing on it. A record cached without
    election rounds is likewise insufficient for a ``measure_rounds``
    consumer (the "rounds upgrade" path).
    """
    if record is None or "feasible" not in record or "iterations" not in record:
        return False
    if not measure_rounds or not record["feasible"]:
        return True
    return record.get("rounds") is not None


def cached_evaluate(
    cfg: Configuration,
    cache: ResultCache,
    evaluator: Callable[[Configuration], Dict],
    *,
    keyer: Keyer = default_keyer,
) -> Dict:
    """Evaluate ``cfg`` through the cache, keyed up to isomorphism.

    Generic entry point for non-census evaluators (cross-model verdicts,
    wired contrast, ...): ``evaluator`` must return a JSON-serializable
    dict of isomorphism-invariant facts, and one cache instance must be
    dedicated to one evaluator.
    """
    key = keyer(cfg)
    record = cache.get(key)
    if record is None:
        record = evaluator(cfg)
        cache.put(key, record)
    return record


# ----------------------------------------------------------------------
# group-key serialization (census groups are ints / tuples of ints)
# ----------------------------------------------------------------------
def _encode_group(group: object) -> object:
    if isinstance(group, tuple):
        return {"t": [_encode_group(g) for g in group]}
    return {"v": group}


def _decode_group(obj: object) -> object:
    if isinstance(obj, dict) and "t" in obj:
        return tuple(_decode_group(g) for g in obj["t"])
    return obj["v"]


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """What a census run actually did (the cache/shard accounting)."""

    total_configs: int = 0
    classified: int = 0  #: evaluator calls actually executed
    cache_hits: int = 0  #: items answered from pre-existing records
    deduped: int = 0  #: same-shard isomorphic duplicates of a fresh miss
    shards_total: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of items answered without a fresh classification
        (cache hits plus same-shard isomorphism dedup)."""
        return (
            (self.cache_hits + self.deduped) / self.total_configs
            if self.total_configs
            else 0.0
        )

    def as_dict(self) -> Dict:
        """JSON-ready counter dict: hits, collapses (``coalesced``), and
        fresh classifications — the engine half of census ``--stats``
        output and service response ``meta``."""
        return {
            "total_configs": self.total_configs,
            "classified": self.classified,
            "cache_hits": self.cache_hits,
            "coalesced": self.deduped,
            "hit_rate": round(self.hit_rate, 4),
            "shards_total": self.shards_total,
        }


@dataclass
class CensusRun:
    """A completed engine census: the result plus run accounting."""

    result: CensusResult
    stats: EngineStats = field(default_factory=EngineStats)
    cache: Optional[ResultCache] = None

    def describe(self) -> str:
        """One-line run summary for CLI footers and logs."""
        s = self.stats
        return (
            f"engine: {s.total_configs} configs, {s.classified} classified, "
            f"{s.cache_hits} cache hits, {s.deduped} deduped "
            f"({s.hit_rate:.1%} unclassified), "
            f"{s.shards_total} shard(s)"
        )


def _shard_rows(result_rows: Dict[object, CensusRow]) -> List[Dict]:
    return [
        {
            "group": _encode_group(row.group),
            "total": row.total,
            "feasible": row.feasible,
            "iterations_sum": row.iterations_sum,
            "rounds_sum": row.rounds_sum,
        }
        for row in result_rows.values()
    ]


def _merge_rows(result: CensusResult, rows: List[Dict]) -> None:
    for r in rows:
        group = _decode_group(r["group"])
        row = result.rows.setdefault(group, CensusRow(group=group))
        row.total += r["total"]
        row.feasible += r["feasible"]
        row.iterations_sum += r["iterations_sum"]
        row.rounds_sum += r["rounds_sum"]


def batch_records(
    configs,
    cache: ResultCache,
    *,
    measure_rounds: bool = False,
    keyer: Keyer = default_keyer,
    stats: Optional[EngineStats] = None,
    algorithm: str = "auto",
) -> List[Dict]:
    """Classification records for a batch, in input order, through the cache.

    This is the engine's batch-lookup hook — the coalescing core of the
    sharded census pipeline, whose steps (:class:`BatchLookup`) the batch
    classification service (:mod:`repro.service`) shares. Each
    configuration is normalized and keyed
    (:mod:`repro.engine.keys`); duplicate keys inside the batch are
    coalesced to one classification; keys with a sufficient cached record
    are answered without work; the remaining *unique* misses are
    classified in one call and written back to the cache.

    ``configs`` may be any iterable (a list, a workload slice, a
    generator); it is consumed once, one configuration at a time.
    Returns one :func:`census_record`-shaped dict per input configuration
    (cached records are returned by reference; treat them as read-only).
    Record values are deterministic and independent of batch composition
    and cache state. When ``stats`` is given, its ``cache_hits`` /
    ``deduped`` / ``classified`` counters are updated with this batch's
    accounting.

    The unique misses go through the vectorized batch kernel in one
    lockstep call exactly when
    :func:`repro.core.batch.resolve_batch_algorithm` resolves
    ``algorithm`` to ``"batch"`` (``"auto"`` with numpy importable);
    any other choice classifies them one :func:`census_record` at a
    time. All choices produce bit-for-bit identical records.

    When tracing is enabled (:mod:`repro.obs`), each call opens an
    ``engine.batch`` span whose closing counters carry this batch's
    accounting deltas; disabled, the extra cost is one attribute check.
    """
    if stats is None:
        stats = EngineStats()

    def body() -> List[Dict]:
        lookup = BatchLookup(
            configs,
            cache,
            measure_rounds=measure_rounds,
            stats=stats,
            keyer=keyer,
        )
        return lookup.complete(lookup.classify(algorithm))

    return _engine_batch(stats, body)


def _engine_batch(
    stats: EngineStats, body: Callable[[], List[Dict]]
) -> List[Dict]:
    """Run ``body`` as one traced engine batch and return its records.

    Traced, the batch is an ``engine.batch`` span whose counters carry
    the deltas ``body`` made to ``stats``, mirrored into the registry's
    ``engine.*`` counters; untraced, the cost is one attribute check.
    """
    if not _OBS.enabled:
        return body()
    hits0, dedup0, class0 = stats.cache_hits, stats.deduped, stats.classified
    with _obs_span("engine.batch") as sp:
        records = body()
        sp.add("items", len(records))
        sp.add("cache_hits", stats.cache_hits - hits0)
        sp.add("deduped", stats.deduped - dedup0)
        sp.add("classified", stats.classified - class0)
    _registry.inc("engine.batches")
    _registry.inc("engine.items", len(records))
    _registry.inc("engine.cache_hits", stats.cache_hits - hits0)
    _registry.inc("engine.classified", stats.classified - class0)
    return records


def _classify_records(
    configs: List[Configuration], measure_rounds: bool, algorithm: str
) -> List[Dict]:
    """One :func:`census_record` per normalized configuration, in order.

    The batch kernel classifies them in one lockstep call exactly when
    :func:`repro.core.batch.resolve_batch_algorithm` resolves
    ``algorithm`` to ``"batch"``; any other choice classifies them one
    :func:`census_record` at a time. Both give bit-for-bit equal records.
    """
    from ..core.batch import batch_census_records, resolve_batch_algorithm

    if resolve_batch_algorithm(algorithm) == "batch":
        return batch_census_records(configs, measure_rounds=measure_rounds)
    return [
        census_record(cfg, measure_rounds=measure_rounds, algorithm=algorithm)
        for cfg in configs
    ]


class BatchLookup:
    """The cache steps of :func:`batch_records`, around classification.

    Construction keys each configuration (unless ``precomputed_keys``
    are given), coalesces duplicate keys and answers every key the cache
    holds a sufficient record for, updating ``stats.cache_hits`` and
    ``stats.deduped``. :attr:`misses` holds the unique configurations
    left to classify; :meth:`classify` classifies them without touching
    the cache or ``stats``, and :meth:`complete` stores their records,
    counts them in ``stats.classified`` and returns one record per
    input, in input order.

    :func:`batch_records` runs the three steps back to back. The service
    (:mod:`repro.service.batcher`) runs :meth:`classify` on a worker
    thread and the other two on its event loop, so the cache and the
    counters stay on one thread.
    """

    def __init__(
        self,
        configs,
        cache: ResultCache,
        *,
        measure_rounds: bool,
        stats: EngineStats,
        keyer: Keyer = default_keyer,
        precomputed_keys: Optional[Sequence[str]] = None,
    ) -> None:
        self.cache = cache
        self.measure_rounds = measure_rounds
        self.stats = stats
        self.keys: List[str] = []  # key per item, in input order
        pending: "Dict[str, Configuration]" = {}  # first config per missing key
        # Records are pinned locally for the duration of the batch, so a
        # key repeated in the batch is answered without a second lookup
        # and result assembly never re-consults the cache.
        self._records: Dict[str, Dict] = {}

        def keyed_items():
            if precomputed_keys is None:
                for cfg in configs:
                    normalized = cfg.normalize()
                    yield normalized, keyer(normalized)
            else:
                yield from zip(configs, precomputed_keys)

        for normalized, key in keyed_items():
            if key in self._records:  # duplicate of an already-hit key
                stats.cache_hits += 1
            elif key in pending:  # rides on a classification queued this batch
                stats.deduped += 1
            else:
                record = cache.get(key)
                if record_sufficient(record, measure_rounds):
                    self._records[key] = record
                    stats.cache_hits += 1
                else:
                    pending[key] = normalized
            self.keys.append(key)
        self._missing: List[str] = list(pending)
        #: the unique configurations to classify, normalized
        self.misses: List[Configuration] = list(pending.values())

    def classify(self, algorithm: str) -> List[Dict]:
        """Records for :attr:`misses`, in order (no cache or stats access)."""
        if not self.misses:
            return []
        return _classify_records(self.misses, self.measure_rounds, algorithm)

    def complete(self, records: Sequence[Dict]) -> List[Dict]:
        """Store the records of :attr:`misses` (one store transaction);
        every input's record."""
        pairs = list(zip(self._missing, records))
        self._records.update(pairs)
        self.cache.put_many(pairs)
        self.stats.classified += len(self._missing)
        return [self._records[key] for key in self.keys]


def _classify_shard(
    workload: Workload,
    start: int,
    stop: int,
    cache: Optional[ResultCache],
    group_by: GroupBy,
    measure_rounds: bool,
    keyer: Keyer,
    stats: EngineStats,
    algorithm: str,
) -> Dict[object, CensusRow]:
    """Classify items ``[start, stop)``; return their aggregated rows.

    A rounds census goes through ``cache`` (:func:`batch_records`), which
    consumes the stream one configuration at a time, so per-shard memory
    stays at the (group, key-string) level plus the unique misses. A
    classify-only census computes no key, never touches ``cache`` (it
    may be None), and classifies the whole normalized shard in one call.
    """
    groups: List[object] = []

    def shard_stream():
        for cfg in workload.generate(start, stop):
            normalized = cfg.normalize()
            groups.append(group_by(normalized))
            yield normalized

    if measure_rounds:
        records = batch_records(
            shard_stream(),
            cache,
            measure_rounds=True,
            keyer=keyer,
            stats=stats,
            algorithm=algorithm,
        )
    else:
        configs = list(shard_stream())

        def classify_all() -> List[Dict]:
            records = _classify_records(configs, False, algorithm)
            stats.classified += len(records)
            return records

        records = _engine_batch(stats, classify_all)

    rows: Dict[object, CensusRow] = {}
    for group, record in zip(groups, records):
        row = rows.setdefault(group, CensusRow(group=group))
        row.total += 1
        row.iterations_sum += record["iterations"]
        if record["feasible"]:
            row.feasible += 1
            if measure_rounds:
                row.rounds_sum += record["rounds"]
    return rows


def sharded_census(
    workload,
    *,
    group_by: GroupBy = group_by_n_span,
    measure_rounds: bool = False,
    num_shards: int = 1,
    cache: Optional[ResultCache] = None,
    keyer: Keyer = default_keyer,
    algorithm: str = "auto",
) -> CensusRun:
    """Run a census in-process through the sharded pipeline.

    Parameters
    ----------
    workload:
        a :class:`~repro.engine.workloads.Workload`, or any iterable of
        configurations (materialized into a
        :class:`~repro.engine.workloads.SequenceWorkload`).
    group_by:
        aggregation key, applied to the *normalized* configuration;
        defaults to ``(n, span)``
        (:func:`~repro.analysis.census.group_by_n_span`), like the
        serial census.
    measure_rounds:
        also run the dedicated election of every feasible
        configuration. Only such a census keys its configurations and
        goes through ``cache``; a classify-only census classifies every
        configuration and leaves ``cache`` untouched (``stats`` then
        counts every item as classified).
    num_shards:
        how many contiguous shards to split the workload into. Shard
        boundaries never change results — only peak memory and the
        granularity of the per-shard trace events.
    cache:
        shared :class:`~repro.engine.cache.ResultCache` for a rounds
        census; a private in-memory one is created when omitted, so even
        a one-shot rounds census gets intra-run isomorphism dedup.
        Returned as :attr:`CensusRun.cache`.
    keyer:
        cache key of a rounds census (:mod:`repro.engine.keys`).
    algorithm:
        classifier implementation (see :func:`batch_records`); every
        choice yields bit-for-bit the same records, so caches written
        under one knob replay under any other.

    To resume an interrupted census, or to spread one over processes,
    run it through the work queue instead (:func:`distributed_census`).
    """
    workload = as_workload(workload)
    if cache is None and measure_rounds:
        cache = ResultCache()
    total = len(workload)
    shards = plan_shards(total, num_shards)
    stats = EngineStats(total_configs=total, shards_total=len(shards))
    result = CensusResult()
    done_wall = 0.0  # traced-mode ETA bookkeeping
    with _obs_span(
        "census.run",
        total=total,
        shards=len(shards),
        measure_rounds=measure_rounds,
        algorithm=algorithm,
    ):
        for position, shard in enumerate(shards):
            if _OBS.enabled:
                _obs_event("shard.started", shard=shard.index, size=shard.size)
            hits0 = stats.cache_hits + stats.deduped
            with _obs_span(
                "census.shard", shard=shard.index, size=shard.size
            ) as sp:
                shard_rows = _classify_shard(
                    workload,
                    shard.start,
                    shard.stop,
                    cache,
                    group_by,
                    measure_rounds,
                    keyer,
                    stats,
                    algorithm,
                )
            if _OBS.enabled:
                wall = sp.duration or 0.0
                done_wall += wall
                remaining = len(shards) - position - 1
                hit_rate = (
                    (stats.cache_hits + stats.deduped - hits0) / shard.size
                    if shard.size
                    else 0.0
                )
                _obs_event(
                    "shard.finished",
                    shard=shard.index,
                    wall=round(wall, 6),
                    hit_rate=round(hit_rate, 4),
                    rows=len(shard_rows),
                    eta=round(done_wall / (position + 1) * remaining, 6),
                )
            _merge_rows(result, _shard_rows(shard_rows))
    if _OBS.enabled:
        _registry.inc("census.runs")
    return CensusRun(result=result, stats=stats, cache=cache)


# ----------------------------------------------------------------------
# distributed census (durable work queue + lease-based workers)
# ----------------------------------------------------------------------
def create_census_queue(
    queue_path: str,
    workload,
    *,
    num_shards: int,
    measure_rounds: bool = False,
    algorithm: str = "auto",
    group_by: Optional[GroupBy] = None,
    cache_path: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> WorkQueue:
    """Enumerate a census into a durable shard queue (coordinator side).

    The queue's metadata carries everything a standalone worker process
    needs to reconstruct the run: the workload spec
    (:meth:`~repro.engine.workloads.Workload.to_spec`), the census
    options, the grouping *name* (a key of :data:`GROUPINGS`), and the
    path of the result store the workers share. Only a
    ``measure_rounds`` census uses the store (``None`` means every
    worker keeps a private in-memory cache), and opens it here once, so
    that a file that is not a store raises ``ValueError`` before the
    queue exists. Each shard is enqueued with the workload's static
    cost estimate, and workers lease the costliest pending shard first.

    Creation is idempotent: re-running the coordinator against a queue
    holding the *same* run resumes it; a different run at the same path
    raises :class:`~repro.engine.queue.QueueError`.
    """
    workload = as_workload(workload)
    if measure_rounds and cache_path:
        ResultCache(cache_path)  # refuse a file that is not a store
    total = len(workload)
    shards = plan_shards(total, num_shards)
    meta = {
        "queue": "census",
        "workload": workload.to_spec(),
        "total": total,
        "measure_rounds": measure_rounds,
        "algorithm": algorithm,
        "group_by": _grouping_name(group_by),
        "cache": cache_path,
        "num_shards": len(shards),
    }
    return WorkQueue.create(
        queue_path,
        [
            (s.index, s.start, s.stop, float(workload.estimate_cost(s.start, s.stop)))
            for s in shards
        ],
        meta,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )


@contextmanager
def _open_census(meta: Dict):
    """Set up one census worker from its queue's meta; yield its runner.

    The runner classifies one shard (:func:`_classify_shard`) and
    returns its rows and ``{"classified", "cache_hits", "deduped"}``
    stats, which the merge sums into the run's engine stats. A
    ``measure_rounds`` queue's worker opens the queue's store once,
    after the fork, and classifies through it; a classify-only one
    opens no cache and computes no key (see :func:`sharded_census`).
    """
    workload = workload_from_spec(meta["workload"])
    grouping = meta.get("group_by", "n_span")
    try:
        group_by = GROUPINGS[grouping]
    except KeyError:
        raise QueueError(
            f"census queue uses grouping {grouping!r}; this build knows "
            f"{sorted(GROUPINGS)}"
        ) from None
    measure_rounds = bool(meta.get("measure_rounds", False))
    algorithm = str(meta.get("algorithm", "auto"))
    cache: Optional[ResultCache] = None
    if measure_rounds:
        cache_path = meta.get("cache")
        cache = ResultCache(cache_path) if cache_path else ResultCache()

    def run(start: int, stop: int) -> Tuple[List[Dict], Dict[str, int]]:
        stats = EngineStats()
        rows = _classify_shard(
            workload,
            start,
            stop,
            cache,
            group_by,
            measure_rounds,
            default_keyer,
            stats,
            algorithm,
        )
        return _shard_rows(rows), {
            "classified": stats.classified,
            "cache_hits": stats.cache_hits,
            "deduped": stats.deduped,
        }

    try:
        yield run
    finally:
        if cache is not None:
            cache.close()


def _merge_census(queue: WorkQueue) -> CensusRun:
    """Merge a census queue's done shards into a :class:`CensusRun`.

    Row addition is commutative integer sums, so the merged result is
    bit-for-bit equal to the serial census regardless of which worker
    computed which shard in which order.
    """
    result = CensusResult()
    stats = EngineStats()
    merged = 0
    for idx, rows, shard_stats in queue.results():
        _merge_rows(result, rows)
        stats.total_configs += sum(r["total"] for r in rows)
        stats.classified += int(shard_stats.get("classified", 0))
        stats.cache_hits += int(shard_stats.get("cache_hits", 0))
        stats.deduped += int(shard_stats.get("deduped", 0))
        merged += 1
        if _OBS.enabled:
            _obs_event("shard.merged", shard=idx, rows=len(rows))
    stats.shards_total = queue.counts()["total"]
    _registry.inc("queue.merged", merged)
    return CensusRun(result=result, stats=stats, cache=None)


#: The census job kind of the work queue (:data:`repro.engine.queue.JOB_KINDS`).
CENSUS_JOB = JobKind(queue="census", open=_open_census, merge=_merge_census)


def distributed_census(
    workload,
    queue_path: str,
    *,
    num_workers: int = 1,
    num_shards: Optional[int] = None,
    measure_rounds: bool = False,
    algorithm: str = "auto",
    group_by: Optional[GroupBy] = None,
    cache_path: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll: float = 0.2,
) -> CensusRun:
    """One-call distributed census: coordinator plus N local workers.

    Enumerates the workload into a durable queue at ``queue_path``
    (resuming it if a matching half-finished queue is already there),
    spawns ``num_workers`` worker *processes* that exit once nothing
    is leasable, and merges the committed shards. A dead worker's shard
    is drained in-process once its lease expires, retried every
    ``poll`` seconds (:func:`~repro.engine.queue.drain_with_local_workers`),
    so the call either returns the complete census or raises on
    permanently failed shards.

    ``num_shards`` defaults to ``4 * num_workers`` so that leasing the
    costliest shard first has slack to balance uneven shard costs
    across workers. ``cache_path`` serves a ``measure_rounds`` census
    only (see :func:`create_census_queue`).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if num_shards is None:
        num_shards = max(4 * num_workers, 1)
    queue = create_census_queue(
        queue_path,
        workload,
        num_shards=num_shards,
        measure_rounds=measure_rounds,
        algorithm=algorithm,
        group_by=group_by,
        cache_path=cache_path,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )
    # close before forking: SQLite connections must not cross a fork
    queue.close()
    drain_with_local_workers(
        queue_path, queue_worker, num_workers=num_workers, poll=poll
    )
    return collect_queue(queue_path, wait=False)
