"""The census workloads: ``census_large`` and ``census_small_queue``.

Both run a cold census (fresh JSONL cache, canonization memo cleared)
and then a restart: the same census again against the filled cache file,
as a new process would see it (new :class:`ResultCache`, memo cleared).
``cold_ms`` is the cold census, ``warm_ms`` the restart.

Correctness: every census's rows must equal the rows of a serial
``sharded_census`` over the same workload keyed with ``labeled_key``,
which classifies every configuration without canonical keying.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from functools import partial

import repro.core.batch
from repro.analysis.census import CensusRow
from repro.canon import clear_memo
from repro.core.configuration import Configuration
from repro.engine import (
    EngineStats,
    RandomGnpWorkload,
    ResultCache,
    SequenceWorkload,
    WorkQueue,
    batch_records,
    create_census_queue,
    default_keyer,
    distributed_census,
    group_by_n_span,
    heartbeat_guard,
    labeled_key,
    sharded_census,
)

from common import Ledger, TimedCache, TimedWorkload

#: E27's population: 48 rigid G(n, 0.25) graphs at n = 30..32. The run
#: seed only shuffles their order; keying cost depends so strongly on the
#: individual graph that a seed-drawn population would not be comparable.
E27_POPULATION = dict(n_values=[30, 31, 32], span=2, p=0.25, samples=16, seed=20260808)

#: Shards of the in-process census.
LARGE_SHARDS = 4

#: Forked queue workers, and the poll interval ``distributed_census`` uses.
QUEUE_WORKERS = 2
QUEUE_POLL_S = 0.2

PHASES = ("cold", "restart")


def oracle_rows(workload) -> dict:
    """Serial census rows with labeled keys (no canonical keying at all)."""
    return sharded_census(workload, keyer=labeled_key).result.rows


def large_setup(seed: int):
    """E27's population in a seeded order, plus its oracle rows."""
    configs = list(RandomGnpWorkload(**E27_POPULATION))
    random.Random(seed).shuffle(configs)
    workload = SequenceWorkload(configs, label=f"e27-shuffled-{seed}")
    return workload, oracle_rows(workload)


def queue_setup(seed: int):
    """1,800 small seeded G(n, 0.35) configurations, plus oracle rows."""
    workload = RandomGnpWorkload(range(4, 13), span=3, p=0.35, samples=200, seed=seed)
    return workload, oracle_rows(workload)


# ----------------------------------------------------------------------
# census_large: in-process sharded_census
# ----------------------------------------------------------------------
def large_pass(workload, tmp: str, ledger: Ledger = None):
    """Cold census then restart; returns ``(walls, runs)``.

    With a ledger, the layers are timed through the pipeline's hooks:
    a timed keyer, cache, workload and grouping.
    """
    hooks = {}
    make_cache = ResultCache
    if ledger is not None:
        hooks = dict(
            keyer=ledger.timed("keys.canonical", default_keyer),
            group_by=ledger.timed("aggregate.group", group_by_n_span),
        )
        make_cache = partial(TimedCache, ledger)
        workload = TimedWorkload(workload, ledger)
    cache_path = os.path.join(tmp, "cache.jsonl")
    walls, runs = [], []
    for _phase in PHASES:
        clear_memo()
        t0 = time.perf_counter()
        run = sharded_census(
            workload, num_shards=LARGE_SHARDS, cache=make_cache(cache_path), **hooks
        )
        walls.append(time.perf_counter() - t0)
        run.cache.close()
        runs.append(run)
    return walls, runs


def large_traced(workload, tmp: str, ledger: Ledger):
    """:func:`large_pass` with normalize and the batch kernel timed too."""
    with ledger.patched(Configuration, "normalize", "normalize.normalize"), \
            ledger.patched(repro.core.batch, "batch_census_records", "classify.batch"):
        walls, runs = large_pass(workload, tmp, ledger)
    hits = sum(r.cache.stats.hits for r in runs)
    lookups = sum(r.cache.stats.lookups for r in runs)
    classified = sum(r.stats.classified for r in runs)
    extra = {
        "cache.hit_ratio": hits / lookups,
        # the restart's cache holds one entry per distinct class classified
        "classify.unique_ratio": len(runs[-1].cache) / max(1, classified),
    }
    return sum(walls), [r.result.rows for r in runs], extra


# ----------------------------------------------------------------------
# census_small_queue: SQLite queue drained by forked workers
# ----------------------------------------------------------------------
def queue_pass(workload, tmp: str):
    """Cold queue census then restart on a new queue with the same cache."""
    cache_path = os.path.join(tmp, "cache.jsonl")
    walls, runs = [], []
    for phase in PHASES:
        clear_memo()  # forked workers must not inherit a warm memo
        t0 = time.perf_counter()
        runs.append(
            distributed_census(
                workload,
                os.path.join(tmp, f"{phase}.sqlite"),
                num_workers=QUEUE_WORKERS,
                cache_path=cache_path,
                poll=QUEUE_POLL_S,
            )
        )
        walls.append(time.perf_counter() - t0)
    return walls, runs


def _shard_rows(workload, start, stop, cache, keyer, group_by, stats, ledger):
    """One shard's census rows, through ``batch_records`` like a worker."""
    groups = []

    def stream():
        for cfg in workload.generate(start, stop):
            normalized = cfg.normalize()
            groups.append(group_by(normalized))
            yield normalized

    records = batch_records(stream(), cache, keyer=keyer, stats=stats)
    with ledger.span("aggregate.group"):
        rows = {}
        for group, record in zip(groups, records):
            row = rows.setdefault(group, [list(group), 0, 0, 0, 0])
            row[1] += 1
            row[2] += int(record["feasible"])
            row[3] += record["iterations"]
        return list(rows.values())


def _traced_worker(queue_path, workload, cache_path, out_path, ledger):
    """A queue worker driven through public calls, each layer timed.

    Mirrors ``census_queue_worker``: lease, classify the shard through
    ``batch_records``, commit; poll while peers hold leases. Writes its
    ledger and wall time to ``out_path``.
    """
    ledger.reset()  # the fork copied the parent's numbers
    t0 = time.perf_counter()
    stats = EngineStats()
    keyer = ledger.timed("keys.canonical", default_keyer)
    group_by = ledger.timed("aggregate.group", group_by_n_span)
    workload = TimedWorkload(workload, ledger)
    queue = WorkQueue(queue_path)
    cache = TimedCache(ledger, cache_path)
    try:
        owner = f"perfbench-{os.getpid()}"
        while True:
            with ledger.span("queue.lease"):
                lease = queue.lease(owner)
            if lease is None:
                with ledger.span("queue.idle"):
                    if queue.finished():
                        break
                    time.sleep(QUEUE_POLL_S)
                continue
            with heartbeat_guard(queue, lease):
                rows = _shard_rows(
                    workload, lease.start, lease.stop, cache, keyer, group_by, stats, ledger
                )
            with ledger.span("queue.commit"):
                queue.commit(lease, rows, {})
    finally:
        cache.close()
        queue.close()
    out = {
        "ledger": ledger.to_dict(),
        "wall_s": time.perf_counter() - t0,
        "hits": cache.stats.hits,
        "lookups": cache.stats.lookups,
        "classified": stats.classified,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def queue_traced(workload, tmp: str, ledger: Ledger):
    """Traced cold + restart queue census over forked traced workers.

    Returns ``(busy seconds, rows per phase, extra metrics)``. Busy
    seconds are every worker's wall plus the coordinator's wall outside
    its wait for the workers, so process start-up, the heartbeat thread
    and SQLite work outside the timed calls show as unattributed.
    """
    ctx = multiprocessing.get_context("fork")
    cache_path = os.path.join(tmp, "traced-cache.jsonl")
    busy = 0.0
    totals = dict(hits=0, lookups=0, classified=0)
    rows_by_phase = []
    with ledger.patched(Configuration, "normalize", "normalize.normalize"), \
            ledger.patched(repro.core.batch, "batch_census_records", "classify.batch"):
        for phase in PHASES:
            clear_memo()
            t0 = time.perf_counter()
            queue_path = os.path.join(tmp, f"traced-{phase}.sqlite")
            with ledger.span("queue.create"):
                create_census_queue(
                    queue_path,
                    workload,
                    num_shards=4 * QUEUE_WORKERS,
                    cache_path=cache_path,
                ).close()
            outs = [os.path.join(tmp, f"{phase}-{i}.json") for i in range(QUEUE_WORKERS)]
            procs = [
                ctx.Process(
                    target=_traced_worker,
                    args=(queue_path, workload, cache_path, out, ledger),
                )
                for out in outs
            ]
            t_fork = time.perf_counter()
            for p in procs:
                p.start()
            for p in procs:
                p.join()
            t_join = time.perf_counter()
            if any(p.exitcode != 0 for p in procs):
                raise RuntimeError(f"traced queue worker failed in {phase} phase")
            rows = {}
            with ledger.span("queue.collect"), WorkQueue(queue_path) as queue:
                for _index, shard_rows, _stats in queue.results():
                    for group, total, feasible, iterations, rounds in shard_rows:
                        group = tuple(group)
                        row = rows.setdefault(group, CensusRow(group=group))
                        row.total += total
                        row.feasible += feasible
                        row.iterations_sum += iterations
                        row.rounds_sum += rounds
            rows_by_phase.append(rows)
            busy += time.perf_counter() - t0 - (t_join - t_fork)
            for out in outs:
                with open(out, encoding="utf-8") as fh:
                    data = json.load(fh)
                ledger.merge(data["ledger"])
                busy += data["wall_s"]
                for key in totals:
                    totals[key] += data[key]
    # workers do not see each other's cache writes, so both may classify
    # one class; the shared file holds each distinct class once
    distinct = len(ResultCache(cache_path))
    extra = {
        "cache.hit_ratio": totals["hits"] / max(1, totals["lookups"]),
        "classify.unique_ratio": distinct / max(1, totals["classified"]),
    }
    return busy, rows_by_phase, extra
