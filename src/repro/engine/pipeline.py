"""Sharded, cached census pipeline.

The pipeline splits a :class:`~repro.engine.workloads.Workload` into
deterministic contiguous shards, classifies each shard through the
canonical-form cache, and streams only the *aggregated* per-shard rows
to the merger — memory is bounded by one shard plus the row table,
never by the population size.

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

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.census import CensusResult, CensusRow, group_by_n
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
    QueueError,
    WorkQueue,
    default_owner,
    drain_with_local_workers,
    heartbeat_guard,
    settled,
)
from .workloads import Workload, as_workload, workload_from_spec

#: Default grouping, matching :func:`repro.analysis.census.census`.
GroupBy = Callable[[Configuration], object]


def group_by_n_span(config: Configuration) -> Tuple[int, int]:
    """The default census grouping, ``(n, span)``, as a named function.

    Distributed runs identify groupings by *name* (a worker process
    cannot deserialize a lambda), so the default grouping needs a
    stable, registered definition site. See :data:`GROUPINGS`.
    """
    return (config.n, config.span)


#: Named groupings a distributed census can ship through its queue.
GROUPINGS: Dict[str, GroupBy] = {
    "n_span": group_by_n_span,
    "n": group_by_n,
}


def register_grouping(name: str, group_by: GroupBy) -> None:
    """Register a grouping for distributed runs under a stable name.

    Worker processes must register the same name before attaching to a
    queue that uses it.
    """
    GROUPINGS[name] = group_by


def _grouping_name(group_by: Optional[GroupBy]) -> str:
    """The registered name for a grouping callable (None -> default).

    Unregistered callables cannot cross a process boundary, so they are
    rejected with a pointer at :func:`register_grouping`.
    """
    if group_by is None:
        return "n_span"
    for name, fn in GROUPINGS.items():
        if fn is group_by:
            return name
    raise ValueError(
        "distributed censuses need a registered grouping "
        "(register_grouping(name, fn)); got an unregistered callable"
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
    precomputed_keys: Optional[Sequence[str]] = None,
    stats: Optional[EngineStats] = None,
    algorithm: str = "auto",
) -> List[Dict]:
    """Classification records for a batch, in input order, through the cache.

    This is the engine's batch-lookup hook — the coalescing core shared by
    the sharded census pipeline and the batch classification service
    (:mod:`repro.service`). Each configuration is normalized and keyed
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

    ``precomputed_keys`` skips normalization and keying for callers that
    already paid for both (keying is the expensive step for canonical
    keys): a sequence parallel to ``configs``, whose configurations must
    then already be normalized. The batch classification service uses
    this — requests are keyed once at submit time, never again.

    Miss classification picks its implementation the way
    :func:`repro.analysis.census.census` does: the unique misses go
    through the vectorized batch kernel in one lockstep call exactly
    when :func:`repro.core.batch.resolve_batch_algorithm` resolves
    ``algorithm`` to ``"batch"`` (``"auto"`` with numpy importable);
    any other choice classifies them one :func:`census_record` at a
    time. All choices produce bit-for-bit identical records.

    When tracing is enabled (:mod:`repro.obs`), each call opens an
    ``engine.batch`` span whose closing counters carry this batch's
    accounting deltas; disabled, the extra cost is one attribute check.
    """
    if stats is None:
        stats = EngineStats()
    if not _OBS.enabled:
        return _batch_records_impl(
            configs,
            cache,
            measure_rounds=measure_rounds,
            keyer=keyer,
            precomputed_keys=precomputed_keys,
            stats=stats,
            algorithm=algorithm,
        )
    hits0, dedup0, class0 = stats.cache_hits, stats.deduped, stats.classified
    with _obs_span("engine.batch") as sp:
        records = _batch_records_impl(
            configs,
            cache,
            measure_rounds=measure_rounds,
            keyer=keyer,
            precomputed_keys=precomputed_keys,
            stats=stats,
            algorithm=algorithm,
        )
        sp.add("items", len(records))
        sp.add("cache_hits", stats.cache_hits - hits0)
        sp.add("deduped", stats.deduped - dedup0)
        sp.add("classified", stats.classified - class0)
    _registry.inc("engine.batches")
    _registry.inc("engine.items", len(records))
    _registry.inc("engine.cache_hits", stats.cache_hits - hits0)
    _registry.inc("engine.classified", stats.classified - class0)
    return records


def _batch_records_impl(
    configs,
    cache: ResultCache,
    *,
    measure_rounds: bool,
    keyer: Keyer,
    precomputed_keys: Optional[Sequence[str]],
    stats: EngineStats,
    algorithm: str,
) -> List[Dict]:
    """The untraced body of :func:`batch_records` (stats required)."""
    keys: List[str] = []  # key per item, in input order
    pending: "Dict[str, Configuration]" = {}  # first config per missing key
    # Records are pinned locally for the duration of the batch: a bounded
    # LRU may evict an entry between lookup and result assembly, so the
    # cache is never re-consulted for a record already seen this batch.
    records_by_key: Dict[str, Dict] = {}

    def keyed_items():
        if precomputed_keys is None:
            for cfg in configs:
                normalized = cfg.normalize()
                yield normalized, keyer(normalized)
        else:
            yield from zip(configs, precomputed_keys)

    for normalized, key in keyed_items():
        if key in records_by_key:  # duplicate of an already-hit key
            stats.cache_hits += 1
        elif key in pending:  # rides on a classification queued this batch
            stats.deduped += 1
        else:
            record = cache.get(key)
            if record_sufficient(record, measure_rounds):
                records_by_key[key] = record
                stats.cache_hits += 1
            else:
                pending[key] = normalized
        keys.append(key)

    if pending:
        missing = list(pending)
        miss_configs = [pending[k] for k in missing]
        from ..core.batch import batch_census_records, resolve_batch_algorithm

        if resolve_batch_algorithm(algorithm) == "batch":
            records = batch_census_records(
                miss_configs, measure_rounds=measure_rounds
            )
        else:
            records = [
                census_record(
                    cfg, measure_rounds=measure_rounds, algorithm=algorithm
                )
                for cfg in miss_configs
            ]
        for key, record in zip(missing, records):
            records_by_key[key] = record
            cache.put(key, record)
        stats.classified += len(missing)

    return [records_by_key[key] for key in keys]


def _classify_shard(
    shard: ShardSpec,
    workload: Workload,
    cache: ResultCache,
    group_by: GroupBy,
    measure_rounds: bool,
    keyer: Keyer,
    stats: EngineStats,
    algorithm: str,
) -> Dict[object, CensusRow]:
    """Classify one shard through the cache; return its aggregated rows."""
    # Stream the shard through batch_records: it consumes configurations
    # one at a time, so per-shard memory stays at the (group, key-string)
    # level plus the unique cache misses — never the materialized shard.
    groups: List[object] = []

    def shard_stream():
        for cfg in workload.generate(shard.start, shard.stop):
            normalized = cfg.normalize()
            groups.append(group_by(normalized))
            yield normalized

    records = batch_records(
        shard_stream(),
        cache,
        measure_rounds=measure_rounds,
        keyer=keyer,
        stats=stats,
        algorithm=algorithm,
    )

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
    """Run a census in-process through the sharded, cached pipeline.

    Parameters
    ----------
    workload:
        a :class:`~repro.engine.workloads.Workload`, or any iterable of
        configurations (materialized into a
        :class:`~repro.engine.workloads.SequenceWorkload`).
    group_by:
        aggregation key, applied to the *normalized* configuration;
        defaults to ``(n, span)`` like the serial census.
    num_shards:
        how many contiguous shards to split the workload into. Shard
        boundaries never change results — only peak memory and the
        granularity of the per-shard trace events.
    cache:
        shared :class:`~repro.engine.cache.ResultCache`; a private
        in-memory cache is created when omitted, so even a one-shot run
        gets intra-run isomorphism dedup.
    algorithm:
        classifier implementation for cache misses (see
        :func:`batch_records`); every choice yields bit-for-bit the
        same records, so caches written under one knob replay under
        any other.

    To resume an interrupted census, or to spread one over processes,
    run it through the work queue instead (:func:`distributed_census`).
    """
    workload = as_workload(workload)
    if cache is None:
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
                    shard,
                    workload,
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
    options, the grouping *name* (see :func:`register_grouping`), and
    the shared JSONL cache path (``None`` means every worker keeps a
    private in-memory cache). Each shard is enqueued with the workload's
    static cost estimate so the scheduler can rank by expected yield.

    Creation is idempotent: re-running the coordinator against a queue
    holding the *same* run resumes it; a different run at the same path
    raises :class:`~repro.engine.queue.QueueError`.
    """
    workload = as_workload(workload)
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


def census_queue_worker(
    queue_path: str,
    *,
    owner: Optional[str] = None,
    max_shards: Optional[int] = None,
    wait: bool = True,
    poll: float = 0.5,
    lease_ttl: Optional[float] = None,
) -> EngineStats:
    """Drain census shards from a queue until it is finished.

    The worker half of a distributed census: opens the queue at
    ``queue_path``, rebuilds the workload and census options from the
    queue metadata, and loops lease → classify → commit. A background
    thread heartbeats the active lease, so a slow shard is never
    reclaimed from a live worker; a classification error fails the
    shard back to the queue (retried elsewhere up to the attempt cap)
    and the worker moves on.

    With ``wait=True`` (the default) the worker polls while peers hold
    live leases — if a peer dies, its shard expires and this worker
    picks it up — and returns once every shard is ``done`` or
    ``failed``. ``wait=False`` returns as soon as nothing is leasable.
    ``max_shards`` bounds how many shards this call will process.

    Returns this worker's :class:`EngineStats` (its own shards only).
    Safe to run many of these concurrently — in processes, threads, or
    across machines sharing the queue file's filesystem.
    """
    queue = WorkQueue(queue_path, lease_ttl=lease_ttl)
    cache: Optional[ResultCache] = None
    stats = EngineStats()
    try:
        meta = queue.meta()
        if meta.get("queue") != "census":
            raise QueueError(
                f"queue {queue_path!r} is not a census queue "
                f"(queue={meta.get('queue')!r})"
            )
        workload = workload_from_spec(meta["workload"])
        grouping = meta.get("group_by", "n_span")
        try:
            group_by = GROUPINGS[grouping]
        except KeyError:
            raise QueueError(
                f"queue {queue_path!r} uses grouping {grouping!r}, which "
                f"this process has not registered (register_grouping)"
            ) from None
        measure_rounds = bool(meta.get("measure_rounds", False))
        algorithm = str(meta.get("algorithm", "auto"))
        cache_path = meta.get("cache")
        cache = ResultCache(cache_path) if cache_path else ResultCache()
        owner = owner or default_owner()
        done = 0
        while True:
            lease = queue.lease(owner)
            if lease is None:
                if not wait or queue.finished():
                    break
                time.sleep(poll)
                continue
            shard = ShardSpec(
                index=lease.index, start=lease.start, stop=lease.stop
            )
            c0, h0, d0 = stats.classified, stats.cache_hits, stats.deduped
            try:
                with heartbeat_guard(queue, lease), _obs_span(
                    "census.shard", shard=shard.index, size=shard.size
                ):
                    shard_rows = _classify_shard(
                        shard,
                        workload,
                        cache,
                        group_by,
                        measure_rounds,
                        default_keyer,
                        stats,
                        algorithm,
                    )
            except Exception as exc:
                queue.fail(lease, f"{type(exc).__name__}: {exc}")
                continue
            queue.commit(
                lease,
                _shard_rows(shard_rows),
                {
                    "classified": stats.classified - c0,
                    "cache_hits": stats.cache_hits - h0,
                    "deduped": stats.deduped - d0,
                },
            )
            stats.total_configs += shard.size
            stats.shards_total += 1
            done += 1
            if max_shards is not None and done >= max_shards:
                break
    finally:
        if cache is not None:
            cache.close()
        queue.close()
    return stats


def collect_census_queue(
    queue_or_path,
    *,
    wait: bool = True,
    poll: float = 0.5,
    timeout: Optional[float] = None,
    strict: bool = True,
) -> CensusRun:
    """Merge a census queue's committed shards into a :class:`CensusRun`.

    With ``wait=True`` (the default), polls until the queue is finished
    (every shard ``done`` or ``failed``) or ``timeout`` seconds elapse
    (:class:`~repro.engine.queue.QueueError` on expiry). ``strict=True``
    raises if any shard failed permanently; ``strict=False`` merges the
    done shards and leaves the failures to the caller (inspect
    :meth:`~repro.engine.queue.WorkQueue.failures`).

    The merge reads each done shard exactly once and row addition is
    commutative integer sums, so the merged result is bit-for-bit equal
    to the serial census regardless of which worker computed which
    shard in which order.
    """
    with settled(
        queue_or_path, wait=wait, poll=poll, timeout=timeout, strict=strict
    ) as queue:
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

    ``num_shards`` defaults to ``4 * num_workers`` so the scheduler has
    slack to balance uneven shard costs across workers.
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
        queue_path, census_queue_worker, num_workers=num_workers, poll=poll
    )
    return collect_census_queue(queue_path, wait=False)
