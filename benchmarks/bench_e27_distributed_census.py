"""E27 — Distributed census: durable queue, lease workers, resilience.

The acceptance gates of the distributed census subsystem
(:mod:`repro.engine.queue`, costliest pending shard leased first, wired
through :func:`repro.engine.pipeline.distributed_census`):

1. **Bit-for-bit equality** — a cold census drained by 4 worker
   *processes* through the SQLite work queue merges to exactly the rows
   the serial :func:`~repro.engine.pipeline.sharded_census` produces.
   Row addition is commutative integer sums and the merge reads each
   committed shard once, so shard order and worker identity must not
   matter. Asserted unconditionally, on any machine.
2. **≥ 2.5× wall-clock over 1 worker** — the same cold census with 4
   workers vs 1 worker, identical shard plan. The measurement is
   written to ``BENCH_E27.json`` (:mod:`repro.reporting.bench`) on
   every run; the floor itself is only *asserted* when the host has at
   least 4 CPUs. On fewer, the four processes time-slice the cores and
   the speedup cannot be measured, so the artifact records the honest
   number with ``"pass": null, "skipped": "<4 CPUs"`` (the CI runners
   have 4 vCPUs and enforce the floor).
3. **SIGKILL resilience** — one of two workers is killed -9 while it
   holds a lease mid-shard. Its lease expires, the surviving worker
   reclaims and recomputes the shard, and the merged census is still
   bit-for-bit equal to the serial result. At most the in-flight shard
   is lost and retried; committed work survives the crash.
"""

import os
import signal
import time
import multiprocessing

import pytest

from repro.reporting.bench import available_cpus
from repro.canon import clear_memo
from repro.engine import (
    EnumerationWorkload,
    RandomGnpWorkload,
    WorkQueue,
    collect_queue,
    create_census_queue,
    distributed_census,
    queue_worker,
    sharded_census,
)
from repro.reporting.bench import BenchResult, write_bench_result

#: ISSUE acceptance threshold: 4 queue workers vs 1 on a cold census.
SPEEDUP_FLOOR = 2.5

#: Worker-process count for the gated run.
WORKERS = 4

#: Shard count, shared by every timed run (4 shards of slack per
#: worker, matching the ``distributed_census`` default for 4 workers).
NUM_SHARDS = 16

BASE_SEED = 20260808


def timed_workload() -> RandomGnpWorkload:
    """Cold census workload: 3,000 seeded G(n, p) samples at n = 30..32.

    The census only classifies, so it computes no canonical keys and
    uses no cache. Each configuration costs about 0.3 ms end to end on
    a 2-CPU x86-64 host (generation and normalization ~0.25 ms, batch
    classification the rest), so the serial in-process run takes about
    0.9 s and each of the 16 shards ~60 ms of real work: process-spawn
    and queue overhead amortize, and a worker holding a lease is still
    mid-shard when the SIGKILL gate looks.
    """
    return RandomGnpWorkload(
        [30, 31, 32], span=2, p=0.25, samples=1000, seed=BASE_SEED
    )


@pytest.fixture(scope="module")
def serial_run():
    """The serial census every distributed run must reproduce exactly."""
    return sharded_census(timed_workload())


# ----------------------------------------------------------------------
# gate 1: bit-for-bit equality, 4 worker processes vs serial
# ----------------------------------------------------------------------
def test_four_worker_exhaustive_census_bit_for_bit_equal_to_serial(
    tmp_path,
):
    """Four worker processes drain a cold *exhaustive* census (every
    5-node configuration with tags 0..2, 4431 of them); the merged
    result equals the serial run row for row, count for count."""
    workload = EnumerationWorkload(5, 2)
    serial = sharded_census(workload)
    clear_memo()  # forked workers must not inherit a warm canon memo
    run = distributed_census(
        workload,
        str(tmp_path / "census.sqlite"),
        num_workers=WORKERS,
        num_shards=NUM_SHARDS,
    )
    assert run.result.rows == serial.result.rows
    assert run.stats.total_configs == serial.stats.total_configs == 4431
    assert run.stats.shards_total == NUM_SHARDS


def test_four_worker_random_census_bit_for_bit_equal_to_serial(
    tmp_path, serial_run
):
    """Same contract on the timed workload's heavy random population."""
    clear_memo()
    run = distributed_census(
        timed_workload(),
        str(tmp_path / "census.sqlite"),
        num_workers=WORKERS,
        num_shards=NUM_SHARDS,
    )
    assert run.result.rows == serial_run.result.rows
    assert run.stats.total_configs == serial_run.stats.total_configs
    assert run.stats.classified == serial_run.stats.classified
    assert run.stats.shards_total == NUM_SHARDS


# ----------------------------------------------------------------------
# gate 2: >= 2.5x over 1 worker, recorded as BENCH_E27.json
# ----------------------------------------------------------------------
def test_four_worker_speedup_at_least_2_5x(tmp_path, serial_run):
    """4 workers vs 1 worker on identical cold queues. The measurement
    is written to ``BENCH_E27.json`` before anything is asserted; the
    floor is only enforced on hosts with >= 4 CPUs (there is no
    parallel speedup to measure on fewer cores — the artifact still
    records the honest number)."""
    timings = {}
    runs = {}
    for label, workers in (("workers_1", 1), ("workers_4", WORKERS)):
        path = str(tmp_path / f"census-{label}.sqlite")
        # the canonization memo is fork-inherited: clear it in the
        # parent so every worker process starts genuinely cold
        clear_memo()
        t0 = time.perf_counter()
        runs[label] = distributed_census(
            timed_workload(),
            path,
            num_workers=workers,
            num_shards=NUM_SHARDS,
        )
        timings[label] = time.perf_counter() - t0

    speedup = timings["workers_1"] / timings["workers_4"]
    cpus = available_cpus()
    decided = cpus >= WORKERS
    write_bench_result(
        BenchResult(
            experiment="E27",
            workload={
                "workload": timed_workload().to_spec(),
                "num_shards": NUM_SHARDS,
                "workers": [1, WORKERS],
            },
            timings_s=timings,
            speedup=speedup,
            floor=SPEEDUP_FLOOR,
            passed=speedup >= SPEEDUP_FLOOR if decided else None,
            skipped=None if decided else f"<{WORKERS} CPUs",
        )
    )
    # equality is asserted on both timed runs regardless of host size
    for label in ("workers_1", "workers_4"):
        assert runs[label].result.rows == serial_run.result.rows, label
    if not decided:
        pytest.skip(
            f"speedup floor needs >= {WORKERS} CPUs (host has {cpus}); "
            f"measured {speedup:.2f}x, recorded in BENCH_E27.json"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"4 workers {timings['workers_4']:.3f}s vs 1 worker "
        f"{timings['workers_1']:.3f}s = {speedup:.2f}x < {SPEEDUP_FLOOR}x"
    )


# ----------------------------------------------------------------------
# gate 3: SIGKILL one worker mid-shard; the census still completes
# ----------------------------------------------------------------------
def test_sigkill_one_worker_mid_run_census_completes(tmp_path, serial_run):
    """Two workers share the queue; one is killed -9 while it holds a
    lease. The survivor reclaims the expired lease and the merged
    census is bit-for-bit the serial result — a crash loses at most the
    one in-flight shard, never committed work."""
    path = str(tmp_path / "census-kill.sqlite")
    clear_memo()  # cold workers: shards must take real time to compute,
    # or the victim could finish everything before the kill lands
    queue = create_census_queue(
        path, timed_workload(), num_shards=NUM_SHARDS, lease_ttl=2.0
    )
    queue.close()  # SQLite connections must not cross a fork

    victim = multiprocessing.Process(
        target=queue_worker,
        args=(path,),
        kwargs={"owner": "victim", "poll": 0.05},
        daemon=True,
    )
    survivor = multiprocessing.Process(
        target=queue_worker,
        args=(path,),
        kwargs={"owner": "survivor", "poll": 0.05},
        daemon=True,
    )
    victim.start()
    survivor.start()

    # wait until the victim actually holds a lease, then kill -9
    deadline = time.monotonic() + 30.0
    with WorkQueue(path) as q:
        while time.monotonic() < deadline:
            if any(
                s["status"] == "leased" and s["owner"] == "victim"
                for s in q.shard_states()
            ):
                break
            time.sleep(0.01)
        else:
            pytest.fail("victim worker never leased a shard")
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()

    survivor.join(timeout=120.0)
    assert not survivor.is_alive(), "survivor did not finish the queue"
    # drain guard, exactly as distributed_census does: if the survivor
    # somehow exited early, finish the queue in-process
    with WorkQueue(path) as check:
        while not check.finished():
            queue_worker(path, wait=False, poll=0.05)
            if not check.finished():
                time.sleep(0.05)
        counts = check.counts()

    run = collect_queue(path, wait=False)
    assert run.result.rows == serial_run.result.rows
    assert run.stats.total_configs == serial_run.stats.total_configs
    assert counts["done"] == counts["total"] == NUM_SHARDS
    assert counts["failed"] == 0


# ----------------------------------------------------------------------
# timing rows (pytest-benchmark; informational)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="e27-census")
def test_serial_census_timing(benchmark):
    """Serial baseline over the E27 workload."""
    run = benchmark.pedantic(
        sharded_census, args=(timed_workload(),), rounds=1, iterations=1
    )
    assert run.stats.total_configs == len(timed_workload())
