"""Work-queue correctness: lease lifecycle, retry caps, lease order
(largest cost first, ties by shard index), lease cost that does not
grow with the queue, distributed-census equality, and the failure paths
of the one worker and collect step, for both job kinds.

The load-bearing properties: (1) a shard can be owned by at most one
live lease, so no shard is double-classified; (2) a dead worker's lease
expires and the shard is retried, so a SIGKILL loses at most one
in-flight shard; (3) the merged distributed result is bit-for-bit equal
to the serial census regardless of worker count, scheduling order, or
mid-run failures.
"""

import os
import re
import sqlite3
import threading
import time

import pytest

import repro.campaigns.runner as runner
import repro.engine.pipeline as pipeline
from repro.analysis.census import group_by_n
from repro.campaigns import CampaignSpec, create_campaign_queue, run_campaign
from repro.engine import (
    EnumerationWorkload,
    QueueError,
    RandomGnpWorkload,
    SequenceWorkload,
    WorkQueue,
    collect_queue,
    create_census_queue,
    distributed_census,
    queue_worker,
    sharded_census,
    workload_from_spec,
)
from repro.engine.queue import drain_with_local_workers

from conftest import random_config_batch


SHARDS = [(0, 0, 4, 10.0), (1, 4, 8, 20.0), (2, 8, 10, 5.0)]
META = {"queue": "test", "fingerprint": "abc"}


def make_queue(
    tmp_path, *, lease_ttl=30.0, max_attempts=3, shards=None, meta=META
):
    path = str(tmp_path / "queue.sqlite")
    return WorkQueue.create(
        path,
        shards if shards is not None else SHARDS,
        dict(meta),
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )


# ----------------------------------------------------------------------
# lease lifecycle
# ----------------------------------------------------------------------
def test_lease_marks_shard_leased_and_cost_orders(tmp_path):
    q = make_queue(tmp_path)
    lease = q.lease("w1", now=1000.0)
    # the highest-cost shard (index 1, cost 20) leases first
    assert lease.index == 1
    assert lease.attempt == 1
    counts = q.counts()
    assert counts["leased"] == 1 and counts["pending"] == 2
    q.close()

    # a queue with cost ties drains largest cost first, ties by index
    costs = [3.0, 7.0, 3.0, 7.0, 1.0, 7.0]
    tied = [(i, i, i + 1, cost) for i, cost in enumerate(costs)]
    order = [1, 3, 5, 0, 2, 4]

    def drain(queue, now):
        leased = []
        while (nxt := queue.lease("w2", now=now)) is not None:
            assert queue.commit(nxt, [])
            leased.append(nxt.index)
        return leased

    with WorkQueue.create(str(tmp_path / "tied.sqlite"), tied, dict(META)) as fresh:
        assert drain(fresh, 1000.0) == order
    # a shard sent back by fail and one reclaimed after its lease
    # expired are leased again in that same order
    with WorkQueue.create(
        str(tmp_path / "retried.sqlite"), tied, dict(META), lease_ttl=10.0
    ) as retried:
        expired = retried.lease("w1", now=1000.0)
        failed = retried.lease("w1", now=1000.0)
        assert (expired.index, failed.index) == (1, 3)
        assert retried.fail(failed, "boom")
        assert drain(retried, 1020.0) == order
        counts = retried.counts()
        assert (counts["reclaimed"], counts["retried"]) == (1, 2)


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
    assert not q.commit(lease, [])


def test_stale_commit_rejected_retry_commit_wins(tmp_path):
    q = make_queue(tmp_path, lease_ttl=5.0)
    stale = q.lease("w1", now=1000.0)
    retry = q.lease("w2", now=1010.0)  # reclaim + re-lease
    assert retry.index == stale.index
    assert not q.commit(stale, [{"marker": "stale"}])
    assert q.commit(retry, [{"marker": "retry"}])
    results = {idx: rows for idx, rows, _ in q.results()}
    assert results[retry.index] == [{"marker": "retry"}]
    # committing an already-done shard is a no-op (idempotent merge)
    assert not q.commit(retry, [{"marker": "again"}])
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
    assert q.fail(first, "boom")
    assert q.counts()["failed"] == 0  # attempt 1 < cap: back to pending
    second = q.lease("w", now=1002.0)
    while second.index != first.index:  # drain until the retry comes up
        q.commit(second, [])
        second = q.lease("w", now=1002.0)
    assert second.attempt == 2
    assert q.fail(second, "boom")
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
    q.fail(failed, "poison")
    assert q.requeue() == 1  # only the live lease
    assert q.counts()["failed"] == 1
    assert q.requeue(include_failed=True) == 1
    counts = q.counts()
    assert counts["failed"] == 0 and counts["pending"] == 3
    # requeued shards carry a fresh attempt budget
    again = q.lease("w", now=1002.0)
    assert again.attempt == 1


def test_lease_cost_does_not_grow_with_the_queue(tmp_path):
    """A lease reads one index entry, whatever the queue holds: draining
    2,000 empty shards costs at most 4x per shard what draining 50 does
    (a lease that scans every pending and committed shard grows ~25x)."""

    def per_shard(n, run):
        path = str(tmp_path / f"q{n}-{run}.sqlite")
        shards = [(i, i, i + 1, float(i % 17)) for i in range(n)]
        with WorkQueue.create(path, shards, dict(META)) as q:
            t0 = time.perf_counter()
            while (lease := q.lease("w")) is not None:
                q.commit(lease, [], {"classified": 1, "cache_hits": 0})
            return (time.perf_counter() - t0) / n

    small = min(per_shard(50, run) for run in range(3))
    large = min(per_shard(2000, run) for run in range(2))
    assert large <= 4 * small, f"{large * 1e3:.3f} ms vs {small * 1e3:.3f} ms"


# ----------------------------------------------------------------------
# durability / restart
# ----------------------------------------------------------------------
def test_coordinator_restart_resumes_half_finished_queue(tmp_path):
    path = str(tmp_path / "resume.sqlite")
    q = WorkQueue.create(path, SHARDS, dict(META))
    done = q.lease("w", now=1000.0)
    q.commit(done, [{"x": 1}])
    q.close()
    # same meta: create() resumes the existing queue without re-enqueue
    q2 = WorkQueue.create(path, SHARDS, dict(META))
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


def _wal_file_without_tables(path):
    # what WorkQueue.create leaves on disk before its tables commit
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.close()


def _text_file(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not a queue\n")


NOT_QUEUES = pytest.mark.parametrize(
    "make", [_wal_file_without_tables, _text_file], ids=["empty-wal", "text"]
)


@NOT_QUEUES
def test_a_file_that_is_not_a_queue_is_refused(make, tmp_path):
    path = str(tmp_path / "q.sqlite")
    make(path)
    with pytest.raises(QueueError, match="is not a work queue"):
        WorkQueue(path)


@NOT_QUEUES
def test_queue_status_refuses_a_file_that_is_not_a_queue(make, tmp_path):
    from repro.cli import main

    path = str(tmp_path / "q.sqlite")
    make(path)
    with pytest.raises(SystemExit) as exit_:
        main(["queue", "status", path])
    message = str(exit_.value.code)
    assert re.fullmatch(r"queue: .* is not a work queue \(.*\)", message)


def test_a_queue_of_another_schema_is_refused(tmp_path):
    from repro.cli import main

    with make_queue(tmp_path) as q:
        path = q.path
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema'")
    conn.commit()
    conn.close()
    schema = "has schema 1, this build speaks 2"
    with pytest.raises(QueueError, match=schema):
        WorkQueue(path)
    with pytest.raises(SystemExit) as exit_:
        main(["queue", "status", path])
    assert schema in str(exit_.value.code)


def test_a_worker_waits_for_the_tables_not_just_the_file(tmp_path):
    from repro.cli import main

    path = str(tmp_path / "q.sqlite")
    _wal_file_without_tables(path)
    with pytest.raises(SystemExit, match=r"no work queue at .* after 1\.0s"):
        main(["census", "--queue", path, "--role", "worker",
              "--queue-timeout", "1"])


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
    stats = queue_worker(path, wait=False)
    assert stats["shards"] == 5
    run = collect_queue(path, wait=False)
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
        return queue_worker(queue_path, **kwargs)

    drain_with_local_workers(path, worker, num_workers=0, poll=0.01)
    assert calls == [{"wait": False}]
    with WorkQueue(path) as q:
        assert q.finished()


def test_collect_strict_raises_on_failed_shards(tmp_path):
    q = make_queue(tmp_path, max_attempts=1, meta={"queue": "census"})
    lease = q.lease("w", now=1000.0)
    q.fail(lease, "poison")
    while (nxt := q.lease("w", now=1002.0)) is not None:
        q.commit(nxt, [])
    with pytest.raises(QueueError, match="poison"):
        collect_queue(q, wait=False, strict=True)
    run = collect_queue(q, wait=False, strict=False)
    assert run.stats.shards_total == 3
    q.close()


def test_collect_timeout(tmp_path):
    q = make_queue(tmp_path, meta={"queue": "census"})
    with pytest.raises(QueueError, match="not finished"):
        collect_queue(q, wait=True, poll=0.01, timeout=0.05)
    q.close()


# ----------------------------------------------------------------------
# job kinds: the one worker and collect serve censuses and campaigns
# ----------------------------------------------------------------------
class CensusJob:
    """A 12-item census queue in 4 shards, and its in-process rows."""

    kind = "census"
    shard_fn = (pipeline, "_classify_shard")
    stats_keys = ("cache_hits", "classified", "deduped")
    workload = RandomGnpWorkload([5, 6], span=2, p=0.35, samples=6, seed=7)

    def create(self, path, **kw):
        create_census_queue(path, self.workload, num_shards=4, **kw).close()

    def expected(self):
        return sharded_census(self.workload).result.rows

    @staticmethod
    def answer(run):
        return run.result.rows

    @staticmethod
    def items(run):
        return run.result.total


class CampaignJob:
    """A 12-trial campaign queue in 4 shards, and its in-process records."""

    kind = "campaign"
    shard_fn = (runner, "_run_shard")
    stats_keys = ("trials",)
    spec = CampaignSpec(
        name="kinds",
        seed=5,
        trials=12,
        n_values=(4, 5),
        span=2,
        strategies=(
            {"strategy": "none", "weight": 1.0},
            {"strategy": "random_budget", "weight": 1.0, "budget": 2},
        ),
    )

    def create(self, path, **kw):
        create_campaign_queue(path, self.spec, num_shards=4, **kw).close()

    def expected(self):
        return run_campaign(self.spec).results

    @staticmethod
    def answer(run):
        return run.results

    @staticmethod
    def items(run):
        return len(run.results)


@pytest.fixture(params=[CensusJob, CampaignJob], ids=["census", "campaign"])
def job(request):
    return request.param()


def test_a_shard_that_always_raises_ends_failed(job, tmp_path, monkeypatch):
    """Every attempt at items [3, 6) raises: the shard ends ``failed``
    after the attempt cap, strict collect names it, and a lenient one
    merges the other three shards."""
    module, name = job.shard_fn
    original = getattr(module, name)

    def flaky(*args):
        if args[1] == 3:  # both shard functions take start second
            raise RuntimeError("boom")
        return original(*args)

    monkeypatch.setattr(module, name, flaky)
    path = str(tmp_path / "q.sqlite")
    job.create(path)
    stats = queue_worker(path, wait=False)
    assert (stats["shards"], stats["items"]) == (3, 9)
    with WorkQueue(path) as q:
        assert q.counts()["failed"] == 1
        assert q.failures() == [(1, "RuntimeError: boom (attempt 3)")]
    with pytest.raises(QueueError, match="shard 1: RuntimeError: boom"):
        collect_queue(path, wait=False, strict=True)
    assert job.items(collect_queue(path, wait=False, strict=False)) == 9


def test_collect_times_out_on_an_undrained_queue(job, tmp_path):
    path = str(tmp_path / "q.sqlite")
    job.create(path)
    with pytest.raises(QueueError, match="not finished"):
        collect_queue(path, wait=True, poll=0.01, timeout=0.05)


def test_drain_guard_finishes_a_dead_owners_shard_of_any_kind(job, tmp_path):
    path = str(tmp_path / "q.sqlite")
    job.create(path, lease_ttl=0.5)
    with WorkQueue(path) as q:
        assert q.lease("ghost") is not None
    drain_with_local_workers(path, queue_worker, num_workers=1, poll=0.05)
    assert job.answer(collect_queue(path, wait=False)) == job.expected()
    with WorkQueue(path) as q:
        counts = q.counts()
        assert {tuple(sorted(s)) for _, _, s in q.results()} == {job.stats_keys}
    assert counts["reclaimed"] >= 1
    assert counts["done"] == counts["total"] == 4


@pytest.mark.parametrize(
    "meta", [{"queue": "test"}, {"fingerprint": "abc"}], ids=["unknown", "none"]
)
def test_a_queue_of_no_known_kind_is_refused(tmp_path, meta):
    q = make_queue(tmp_path, meta=meta)
    with pytest.raises(QueueError, match="unknown job kind"):
        queue_worker(q.path, wait=False)
    with pytest.raises(QueueError, match="unknown job kind"):
        collect_queue(q.path, wait=False)
    assert q.counts()["pending"] == len(SHARDS)
    q.close()


def test_a_process_importing_only_the_engine_drains_a_campaign(tmp_path):
    import subprocess
    import sys

    job = CampaignJob()
    path = str(tmp_path / "q.sqlite")
    job.create(path)
    script = (
        "import sys\n"
        "from repro.engine import queue_worker\n"
        "assert 'repro.campaigns' not in sys.modules\n"
        "print(queue_worker(sys.argv[1], wait=False)['trials'])\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", script, path],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    assert out.split() == ["12"]
    assert collect_queue(path, wait=False).results == job.expected()


def test_queue_status_names_the_job(job, tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "q.sqlite")
    job.create(path)
    assert main(["queue", "status", path]) == 0
    out = capsys.readouterr().out
    assert re.search(rf"job +: {job.kind}\n", out), out
    assert ("workload" in out) == (job.kind == "census")


# ----------------------------------------------------------------------
# observability parity
# ----------------------------------------------------------------------
def test_queue_counters_prometheus_parity(tmp_path):
    """The queue's lease counter renders to Prometheus text equal to
    ``obs.snapshot()`` — one registry, two views."""
    from repro import obs
    from repro.obs import parse_prometheus_text

    q = make_queue(tmp_path)
    lease = q.lease("w", now=1000.0)
    q.commit(lease, [{"g": 1}])
    q.lease("w", now=1002.0)  # leave one shard leased
    snap = obs.snapshot()
    parsed = parse_prometheus_text(obs.registry.render_prometheus())
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
