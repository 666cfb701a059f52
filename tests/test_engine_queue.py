"""Work-queue and scheduler correctness: lease lifecycle, retry caps,
yield-priority ranking, and distributed-census equality.

The load-bearing properties: (1) a shard can be owned by at most one
live lease, so no shard is double-classified; (2) a dead worker's lease
expires and the shard is retried, so a SIGKILL loses at most one
in-flight shard; (3) the merged distributed result is bit-for-bit equal
to the serial census regardless of worker count, scheduling order, or
mid-run failures.
"""

import os
import threading
import time

import pytest

from repro.analysis.census import group_by_n
from repro.engine import (
    EnumerationWorkload,
    QueueError,
    RandomGnpWorkload,
    SequenceWorkload,
    ShardCandidate,
    WorkQueue,
    census_queue_worker,
    collect_census_queue,
    create_census_queue,
    distributed_census,
    expected_yield,
    observed_miss_rate,
    rank,
    sharded_census,
    workload_from_spec,
)
from repro.engine.queue import drain_with_local_workers
from repro.engine.scheduler import MIN_MISS_RATE

from conftest import random_config_batch


SHARDS = [(0, 0, 4, 10.0), (1, 4, 8, 20.0), (2, 8, 10, 5.0)]
META = {"queue": "test", "fingerprint": "abc"}


def make_queue(tmp_path, *, lease_ttl=30.0, max_attempts=3, shards=None):
    path = str(tmp_path / "queue.sqlite")
    return WorkQueue.create(
        path,
        shards if shards is not None else SHARDS,
        dict(META),
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        now=1000.0,
    )


# ----------------------------------------------------------------------
# lease lifecycle
# ----------------------------------------------------------------------
def test_lease_marks_shard_leased_and_cost_orders(tmp_path):
    q = make_queue(tmp_path)
    lease = q.lease("w1", now=1000.0)
    # cold queue: the highest-cost shard (index 1, cost 20) leases first
    assert lease.index == 1
    assert lease.attempt == 1
    counts = q.counts()
    assert counts["leased"] == 1 and counts["pending"] == 2


def test_heartbeat_extends_and_expiry_reclaims(tmp_path):
    q = make_queue(tmp_path, lease_ttl=10.0)
    lease = q.lease("w1", now=1000.0)
    assert lease.expires == pytest.approx(1010.0)
    # a heartbeat pushes the deadline; the lease survives past the
    # original expiry
    assert q.heartbeat(lease, now=1009.0)
    other = q.lease("w2", now=1012.0)
    assert other is None or other.index != lease.index
    # without further heartbeats the lease expires and the next lease
    # call reclaims and re-leases the shard to the new owner
    retry = q.lease("w2", now=1030.0)
    assert retry.index == lease.index
    assert retry.owner == "w2"
    assert retry.attempt == 2
    assert q.counts()["reclaimed"] >= 1
    # the original owner lost the lease: heartbeat and commit both fail
    assert not q.heartbeat(lease, now=1031.0)
    assert not q.commit(lease, [], now=1031.0)


def test_stale_commit_rejected_retry_commit_wins(tmp_path):
    q = make_queue(tmp_path, lease_ttl=5.0)
    stale = q.lease("w1", now=1000.0)
    retry = q.lease("w2", now=1010.0)  # reclaim + re-lease
    assert retry.index == stale.index
    assert not q.commit(stale, [{"marker": "stale"}], now=1011.0)
    assert q.commit(retry, [{"marker": "retry"}], now=1012.0)
    results = {idx: rows for idx, rows, _ in q.results()}
    assert results[retry.index] == [{"marker": "retry"}]
    # committing an already-done shard is a no-op (idempotent merge)
    assert not q.commit(retry, [{"marker": "again"}], now=1013.0)
    results = {idx: rows for idx, rows, _ in q.results()}
    assert results[retry.index] == [{"marker": "retry"}]


def test_double_lease_exclusion_under_racing_workers(tmp_path):
    """Two workers hammering the same queue never co-own a shard."""
    q = make_queue(tmp_path, shards=[(i, i, i + 1, 1.0) for i in range(20)])
    path = q.path
    q.close()
    grabbed = {"w1": [], "w2": []}
    barrier = threading.Barrier(2)

    def drain(owner):
        mine = WorkQueue(path)
        barrier.wait()
        while True:
            lease = mine.lease(owner)
            if lease is None:
                break
            grabbed[owner].append(lease.index)
            mine.commit(lease, [])
        mine.close()

    threads = [
        threading.Thread(target=drain, args=(o,)) for o in ("w1", "w2")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_indices = grabbed["w1"] + grabbed["w2"]
    assert len(all_indices) == len(set(all_indices)) == 20
    with WorkQueue(path) as check:
        assert check.finished()
        assert check.counts()["done"] == 20


def test_retry_cap_marks_poison_shard_failed_without_stalling(tmp_path):
    q = make_queue(tmp_path, max_attempts=2)
    first = q.lease("w", now=1000.0)
    assert q.fail(first, "boom", now=1001.0)
    assert q.counts()["failed"] == 0  # attempt 1 < cap: back to pending
    second = q.lease("w", now=1002.0)
    while second.index != first.index:  # drain until the retry comes up
        q.commit(second, [])
        second = q.lease("w", now=1002.0)
    assert second.attempt == 2
    assert q.fail(second, "boom", now=1003.0)
    counts = q.counts()
    assert counts["failed"] == 1  # attempt 2 == cap: poison, permanent
    # the poison shard does not stall the rest of the run
    while (lease := q.lease("w", now=1004.0)) is not None:
        q.commit(lease, [])
    assert q.finished()
    assert [idx for idx, _ in q.failures()] == [first.index]
    errors = dict(q.failures())
    assert "boom" in errors[first.index]


def test_requeue_resets_leased_and_optionally_failed(tmp_path):
    q = make_queue(tmp_path, max_attempts=1)
    lease = q.lease("w", now=1000.0)
    failed = q.lease("w", now=1000.0)
    q.fail(failed, "poison", now=1001.0)
    assert q.requeue() == 1  # only the live lease
    assert q.counts()["failed"] == 1
    assert q.requeue(include_failed=True) == 1
    counts = q.counts()
    assert counts["failed"] == 0 and counts["pending"] == 3
    # requeued shards carry a fresh attempt budget
    again = q.lease("w", now=1002.0)
    assert again.attempt == 1


# ----------------------------------------------------------------------
# durability / restart
# ----------------------------------------------------------------------
def test_coordinator_restart_resumes_half_finished_queue(tmp_path):
    path = str(tmp_path / "resume.sqlite")
    q = WorkQueue.create(path, SHARDS, dict(META), now=1000.0)
    done = q.lease("w", now=1000.0)
    q.commit(done, [{"x": 1}], now=1001.0)
    q.close()
    # same meta: create() resumes the existing queue without re-enqueue
    q2 = WorkQueue.create(path, SHARDS, dict(META), now=2000.0)
    counts = q2.counts()
    assert counts["done"] == 1 and counts["pending"] == 2
    assert {idx for idx, _, _ in q2.results()} == {done.index}
    q2.close()
    # different meta: refuse to silently mix two runs in one file
    with pytest.raises(QueueError, match="different run"):
        WorkQueue.create(path, SHARDS, {**META, "fingerprint": "other"})


def test_open_missing_or_foreign_file_raises(tmp_path):
    with pytest.raises(QueueError, match="create one first"):
        WorkQueue(str(tmp_path / "absent.sqlite"))


# ----------------------------------------------------------------------
# scheduler policy
# ----------------------------------------------------------------------
def test_rank_orders_by_expected_yield_cold():
    candidates = [
        ShardCandidate(index=0, cost=1.0, enqueued_at=0.0),
        ShardCandidate(index=1, cost=100.0, enqueued_at=0.0),
        ShardCandidate(index=2, cost=10.0, enqueued_at=0.0),
    ]
    order = [c.index for c in rank(candidates, now=0.0, miss_rate=1.0)]
    assert order == [1, 2, 0]


def test_rank_ties_break_on_index():
    candidates = [
        ShardCandidate(index=i, cost=5.0, enqueued_at=0.0) for i in (3, 1, 2)
    ]
    order = [c.index for c in rank(candidates, now=0.0)]
    assert order == [1, 2, 3]


def test_aging_starved_shard_eventually_outranks():
    """After the aging horizon, a starved cheap shard beats a fresh
    expensive one — starvation-freedom."""
    starved = ShardCandidate(index=0, cost=1.0, enqueued_at=0.0)
    fresh = ShardCandidate(index=1, cost=1000.0, enqueued_at=400.0)
    order = [
        c.index
        for c in rank([starved, fresh], now=401.0, aging_horizon=300.0)
    ]
    assert order == [0, 1]


def test_warm_queue_converges_to_oldest_first():
    """As the miss rate falls, age dominates cost: warm ≈ FIFO."""
    old_cheap = ShardCandidate(index=0, cost=1.0, enqueued_at=0.0)
    new_costly = ShardCandidate(index=1, cost=50.0, enqueued_at=100.0)
    warm = [
        c.index
        for c in rank(
            [old_cheap, new_costly],
            now=200.0,
            miss_rate=MIN_MISS_RATE,
            aging_horizon=300.0,
        )
    ]
    assert warm == [0, 1]
    cold = [
        c.index
        for c in rank(
            [old_cheap, new_costly],
            now=200.0,
            miss_rate=1.0,
            aging_horizon=300.0,
        )
    ]
    assert cold == [1, 0]


def test_rank_rejects_bad_horizon_and_empty_pool():
    assert rank([], now=0.0) == []
    with pytest.raises(ValueError):
        rank([ShardCandidate(0, 1.0, 0.0)], now=0.0, aging_horizon=0.0)


def test_expected_yield_floor_and_observed_miss_rate():
    assert expected_yield(100.0, 0.0) == pytest.approx(100.0 * MIN_MISS_RATE)
    assert observed_miss_rate([]) is None
    assert observed_miss_rate([{"classified": 0, "cache_hits": 0}]) is None
    assert observed_miss_rate(
        [
            {"classified": 3, "cache_hits": 1, "deduped": 0},
            {"classified": 1, "cache_hits": 2, "deduped": 1},
        ]
    ) == pytest.approx(4 / 8)
    # malformed stats entries are skipped, not fatal
    assert observed_miss_rate(
        [{"classified": "x"}, {"classified": 2, "cache_hits": 2}]
    ) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# workload specs (worker-side reconstruction)
# ----------------------------------------------------------------------
def test_workload_spec_roundtrip_gnp_and_enum():
    gnp = RandomGnpWorkload([5, 6], span=2, p=0.3, samples=4, seed=7)
    again = workload_from_spec(gnp.to_spec())
    assert [c.edges for c in again.generate(0, len(gnp))] == [
        c.edges for c in gnp.generate(0, len(gnp))
    ]
    enum = EnumerationWorkload(4, max_tag=1)
    again = workload_from_spec(enum.to_spec())
    assert len(again) == len(enum)
    assert again.estimate_cost(0, 3) == enum.estimate_cost(0, 3)


def test_workload_spec_roundtrip_sequence():
    seq = SequenceWorkload(random_config_batch(3, base_seed=11))
    again = workload_from_spec(seq.to_spec())
    assert [(c.edges, dict(c.tags)) for c in again.generate(0, 3)] == [
        (c.edges, dict(c.tags)) for c in seq.generate(0, 3)
    ]


def test_workload_from_spec_unknown_kind():
    with pytest.raises(KeyError, match="gnp"):
        workload_from_spec({"kind": "nope"})


def test_gnp_estimate_cost_tracks_n_cubed():
    wl = RandomGnpWorkload([4, 8], span=2, p=0.3, samples=2, seed=1)
    # items 0-1 are n=4, items 2-3 are n=8: cost ratio is (8/4)^3
    assert wl.estimate_cost(2, 4) == pytest.approx(8 * wl.estimate_cost(0, 2))


# ----------------------------------------------------------------------
# distributed census end-to-end (in-process worker)
# ----------------------------------------------------------------------
def test_census_queue_worker_matches_serial(tmp_path):
    wl = RandomGnpWorkload([5, 6], span=2, p=0.3, samples=6, seed=3)
    serial = sharded_census(wl, group_by=group_by_n)
    path = str(tmp_path / "census.sqlite")
    q = create_census_queue(path, wl, num_shards=5, group_by=group_by_n)
    q.close()
    stats = census_queue_worker(path, wait=False)
    assert stats.shards_total == 5
    run = collect_census_queue(path, wait=False)
    assert run.result.rows == serial.result.rows
    assert run.stats.total_configs == serial.stats.total_configs
    assert run.stats.classified == serial.stats.classified


# ----------------------------------------------------------------------
# one-call form: local workers exit, the coordinator's guard drains
# ----------------------------------------------------------------------
def test_distributed_census_does_not_wait_out_a_poll(tmp_path):
    """Local workers exit once nothing is leasable instead of sleeping a
    poll interval while a peer finishes: a healthy run never sleeps."""
    wl = RandomGnpWorkload([5, 6], span=2, p=0.35, samples=10, seed=5)
    t0 = time.monotonic()
    run = distributed_census(
        wl, str(tmp_path / "census.sqlite"), num_workers=2, poll=3.0
    )
    assert time.monotonic() - t0 < 3.0
    assert run.result.rows == sharded_census(wl).result.rows


def test_drain_guard_finishes_a_dead_owners_shard(tmp_path):
    """A resumed queue holds a shard leased by a ghost that never
    commits; the coordinator's drain guard reclaims it once the lease
    expires, and the census is still the serial one."""
    wl = RandomGnpWorkload([5, 6], span=2, p=0.35, samples=10, seed=6)
    path = str(tmp_path / "census.sqlite")
    q = create_census_queue(path, wl, num_shards=8, lease_ttl=0.5)
    assert q.lease("ghost") is not None
    q.close()
    run = distributed_census(
        wl, path, num_workers=2, num_shards=8, lease_ttl=0.5, poll=0.05
    )
    assert run.result.rows == sharded_census(wl).result.rows
    assert run.stats.total_configs == len(wl)
    with WorkQueue(path) as q:
        counts = q.counts()
    assert counts["reclaimed"] >= 1
    assert counts["done"] == counts["total"] == 8


def test_drain_guard_passes_the_worker_kwargs(tmp_path):
    """The in-process drain calls the worker exactly as the forked
    workers are called: with ``wait=False`` and nothing else."""
    wl = RandomGnpWorkload([5], span=2, p=0.3, samples=4, seed=2)
    path = str(tmp_path / "census.sqlite")
    create_census_queue(path, wl, num_shards=2).close()
    calls = []

    def worker(queue_path, **kwargs):
        calls.append(kwargs)
        return census_queue_worker(queue_path, **kwargs)

    drain_with_local_workers(path, worker, num_workers=0, poll=0.01)
    assert calls == [{"wait": False}]
    with WorkQueue(path) as q:
        assert q.finished()


def test_collect_strict_raises_on_failed_shards(tmp_path):
    q = make_queue(tmp_path, max_attempts=1)
    lease = q.lease("w", now=1000.0)
    q.fail(lease, "poison", now=1001.0)
    while (nxt := q.lease("w", now=1002.0)) is not None:
        q.commit(nxt, [])
    with pytest.raises(QueueError, match="poison"):
        collect_census_queue(q, wait=False, strict=True)
    run = collect_census_queue(q, wait=False, strict=False)
    assert run.stats.shards_total == 3
    q.close()


def test_collect_timeout(tmp_path):
    q = make_queue(tmp_path)
    with pytest.raises(QueueError, match="not finished"):
        collect_census_queue(q, wait=True, poll=0.01, timeout=0.05)
    q.close()


# ----------------------------------------------------------------------
# observability parity
# ----------------------------------------------------------------------
def test_queue_gauges_prometheus_parity(tmp_path):
    """The queue's registry gauges render to Prometheus text bit-for-bit
    consistent with ``obs.snapshot()`` and with the queue's own
    ``counts()`` — one source of truth, three views."""
    from repro import obs
    from repro.service.metrics import parse_prometheus_text

    q = make_queue(tmp_path)
    lease = q.lease("w", now=1000.0)
    q.commit(lease, [{"g": 1}], now=1001.0)
    q.lease("w", now=1002.0)  # leave one shard leased
    counts = q.counts()
    snap = obs.snapshot()
    parsed = parse_prometheus_text(obs.registry.render_prometheus())
    for state in ("pending", "leased", "done", "failed"):
        assert (
            parsed[f"repro_obs_queue_{state}"]
            == snap["gauges"][f"queue.{state}"]
            == counts[state]
        )
    # lease traffic counters flow through the same registry
    assert parsed["repro_obs_queue_leases_total"] == snap["counters"][
        "queue.leases"
    ]
    q.close()


def test_queue_events_emitted_when_tracing(tmp_path):
    from repro import obs

    obs.enable()
    try:
        q = make_queue(tmp_path, lease_ttl=5.0)
        q.lease("w1", now=1000.0)
        q.lease("w2", now=2000.0)  # reclaims the expired lease first
        events = [e for e in obs.STATE.tracer.events if e.get("kind") == "event"]
        names = [e["name"] for e in events]
        assert "shard.leased" in names
        assert "shard.reclaimed" in names
        q.close()
    finally:
        obs.disable()


def test_create_census_queue_is_idempotent(tmp_path):
    wl = RandomGnpWorkload([5], span=2, p=0.3, samples=4, seed=1)
    path = str(tmp_path / "c.sqlite")
    q = create_census_queue(path, wl, num_shards=2)
    lease = q.lease("w")
    q.commit(lease, [])
    q.close()
    # identical run resumes; the committed shard stays committed
    q2 = create_census_queue(path, wl, num_shards=2)
    assert q2.counts()["done"] == 1
    q2.close()
    # a different workload at the same path is refused
    other = RandomGnpWorkload([6], span=2, p=0.3, samples=4, seed=1)
    with pytest.raises(QueueError, match="different run"):
        create_census_queue(path, other, num_shards=2)
