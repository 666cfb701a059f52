"""Batch classifier correctness: coalescing, determinism, backpressure.

The load-bearing property is the service's equality contract: whatever
the batch composition, cache warmth, arrival order, or concurrency, a
ticket's report is bit-for-bit what serial ``decide``/``elect`` produce
(:func:`repro.service.schema.serial_report`).
"""

import asyncio
import json
import re
import threading
import time

import pytest

from repro.core.configuration import Configuration, ConfigurationError
from repro.engine import ResultCache, census_record
from repro.service import (
    BatchClassifier,
    ServiceClosedError,
    ServiceSaturatedError,
    ServiceUnresponsiveError,
    serial_report,
)

from conftest import random_config_batch


def relabel(cfg: Configuration, perm) -> Configuration:
    """Apply a node permutation (dict old -> new) to a configuration."""
    return Configuration(
        [(perm[u], perm[v]) for u, v in cfg.edges],
        {perm[v]: cfg.tag(v) for v in cfg.nodes},
    )


@pytest.fixture()
def svc():
    classifier = BatchClassifier()
    yield classifier
    classifier.close()


class TestEquality:
    def test_reports_equal_serial_decide(self, svc):
        for cfg in random_config_batch(12, base_seed=41, n_hi=7):
            assert svc.submit(cfg).report() == serial_report(cfg, "decide")

    def test_reports_equal_serial_elect(self, svc):
        for cfg in random_config_batch(8, base_seed=42, n_hi=6):
            ticket = svc.submit(cfg, mode="elect")
            assert ticket.report() == serial_report(cfg, "elect")

    def test_warm_equals_cold(self, svc):
        """The same request answered cold, then warm, yields the same
        bytes — cache warmth is invisible in responses."""
        cfg = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        cold = svc.submit(cfg, mode="elect").report()
        warm = svc.submit(cfg, mode="elect").report()
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
        assert svc.stats.fast_hits >= 1

    def test_decide_report_never_leaks_rounds(self, svc):
        """A cache warmed by an elect request still yields a rounds-free
        decide report — responses depend only on (config, mode)."""
        cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
        svc.submit(cfg, mode="elect").result()
        report = svc.submit(cfg, mode="decide").report()
        assert report == serial_report(cfg, "decide")
        assert "rounds" not in report


class TestCoalescing:
    def test_isomorphic_duplicates_classified_once(self, svc):
        cfg = Configuration([(0, 1), (1, 2), (1, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        iso = relabel(cfg, {0: 3, 1: 2, 2: 1, 3: 0})
        shifted = cfg.shift_tags(4)
        records = svc.classify_many([cfg, iso, shifted, cfg])
        assert len({json.dumps(r, sort_keys=True) for r in records}) == 1
        assert svc.stats.engine.classified == 1
        assert len(svc.cache) == 1

    def test_tickets_share_key_for_isomorphs(self, svc):
        cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
        iso = relabel(cfg, {0: 2, 1: 1, 2: 0})
        assert svc.submit(cfg).key == svc.submit(iso).key

    def test_concurrent_submitters_coalesce(self, held_classification):
        """Threads hammering the same configuration produce exactly one
        classification; everyone gets the identical record. The first
        classification is held until all 16 have submitted."""
        cfg = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 2, 2: 0, 3: 1})
        reference = serial_report(cfg, "decide")
        results = []
        with BatchClassifier() as svc:
            def worker():
                results.append(svc.submit(cfg).report())

            threads = [threading.Thread(target=worker) for _ in range(16)]
            held_classification.release_when(lambda: svc.stats.submitted == 16)
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert svc.stats.engine.classified == 1
        assert results == [reference] * 16


class TestBatchingAndBackpressure:
    def test_submit_all_then_gather_batches(self, held_classification):
        """submit/gather over unique configs forms multi-item batches
        (the dispatcher drains the queue, not one item at a time): the
        submits made while the first batch is held form the next one."""
        configs = random_config_batch(24, base_seed=50, n_hi=6)
        with BatchClassifier(max_batch=64) as svc:
            tickets = [svc.submit(c) for c in configs]
            held_classification.release()
            records = svc.gather(tickets)
            assert svc.stats.largest_batch > 1
        expected = [census_record(c.normalize()) for c in configs]
        assert records == expected

    def test_max_batch_bounds_batch_size(self, held_classification):
        """The queue fills while the first batch is held; no batch
        drained from it exceeds ``max_batch``."""
        configs = random_config_batch(12, base_seed=51, n_hi=5)
        with BatchClassifier(max_batch=4) as svc:
            tickets = [svc.submit(c) for c in configs]
            held_classification.release()
            svc.gather(tickets)
            assert svc.stats.largest_batch <= 4
            assert svc.stats.batches >= 3

    def test_bounded_queue_exerts_backpressure_without_loss(self):
        """With a 2-slot queue, hundreds of submits block-and-drain
        rather than erroring or dropping; every ticket still resolves
        to the right record."""
        configs = random_config_batch(60, base_seed=52, n_hi=5)
        with BatchClassifier(max_pending=2, max_batch=2) as svc:
            tickets = [svc.submit(c) for c in configs]
            records = svc.gather(tickets)
        assert records == [census_record(c.normalize()) for c in configs]

    def test_close_during_backpressured_submit_many_resolves_everything(self):
        """Regression: with a 1-slot queue, close() racing a large
        submit_many must not let the shutdown sentinel overtake the
        producer's pending puts — the producer finishes, every ticket
        resolves, and nothing deadlocks."""
        configs = random_config_batch(40, base_seed=54, n_hi=5)
        for _ in range(5):  # the race is timing-dependent; hammer it
            svc = BatchClassifier(max_pending=1, max_batch=2)
            result = {}

            def producer():
                result["tickets"] = svc.submit_many(configs)

            thread = threading.Thread(target=producer)
            thread.start()
            time.sleep(0.005)  # let the producer suspend on the full queue
            svc.close()
            thread.join(timeout=20)
            assert not thread.is_alive(), "submit_many deadlocked against close()"
            records = [t.result(timeout=20) for t in result["tickets"]]
            assert records == [census_record(c.normalize()) for c in configs]

    def test_cross_mode_duplicate_in_one_batch_classifies_once(
        self, held_classification
    ):
        """An elect and a decide request for the same key in one batch
        cost one classification: the elect sub-batch runs first and its
        rounds-bearing record satisfies the decide lookup."""
        cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
        blocker = Configuration([(0, 1)], {0: 0, 1: 1})
        with BatchClassifier() as svc:
            # both submits queue behind a held blocker, so they are
            # drained into one batch
            svc.submit(blocker)
            assert held_classification.entered.wait(10)
            decide_t = svc.submit(cfg, mode="decide")
            elect_t = svc.submit(cfg, mode="elect")
            held_classification.release()
            assert elect_t.report() == serial_report(cfg, "elect")
            assert decide_t.report() == serial_report(cfg, "decide")
            # one for the blocker, one for the shared key
            assert svc.stats.engine.classified == 2


class TestLifecycleAndErrors:
    def test_close_resolves_pending_then_rejects(self, held_classification):
        """close() while work is held in flight still resolves every
        pending ticket, then refuses new submits."""
        configs = random_config_batch(6, base_seed=53, n_hi=5)
        svc = BatchClassifier()
        tickets = [svc.submit(c) for c in configs]
        assert held_classification.entered.wait(10)
        held_classification.release_when(lambda: svc._closed)
        svc.close()
        for t, c in zip(tickets, configs):
            assert t.result(timeout=5) == census_record(c.normalize())
        with pytest.raises(ServiceClosedError):
            svc.submit(configs[0])
        svc.close()  # idempotent

    def test_bad_mode_rejected(self, svc):
        with pytest.raises(ValueError):
            svc.submit(Configuration([(0, 1)], {0: 0, 1: 1}), mode="vote")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            BatchClassifier(max_batch=0)
        with pytest.raises(ValueError):
            BatchClassifier(max_pending=0)

    def test_shared_cache_with_census_pipeline(self, tmp_path):
        """A JSONL cache written by a rounds census pre-warms the
        service: a served request for a census-seen configuration
        classifies nothing. (A classify-only census keys nothing and
        writes no cache.)"""
        from repro.engine import RandomGnpWorkload, sharded_census

        path = str(tmp_path / "shared.jsonl")
        workload = RandomGnpWorkload([6], span=2, p=0.3, samples=5, seed=9)
        sharded_census(workload, cache=ResultCache(path), measure_rounds=True)

        with BatchClassifier(ResultCache(path)) as svc:
            record = svc.submit(next(iter(workload))).result(timeout=5)
            assert svc.stats.engine.classified == 0
            assert svc.stats.fast_hits == 1
        first = next(iter(workload)).normalize()
        assert record == census_record(first, measure_rounds=True)

    def test_invalid_configuration_fails_at_submit(self, svc):
        """Malformed configurations never reach the queue — the
        Configuration constructor raises in the caller's thread."""
        with pytest.raises(ConfigurationError):
            svc.submit(Configuration([(0, 1), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 1}))


class TestTimeoutDiagnostics:
    """Regression: pre-PR-6, submit/gather had no timeout path — a dead
    or wedged event loop blocked callers forever with no diagnosis."""

    def test_gather_timeout_is_diagnostic_not_opaque(
        self, held_classification
    ):
        """gather(timeout=) on a stalled dispatcher raises
        ServiceUnresponsiveError naming the ticket and the dispatcher
        state, instead of a bare TimeoutError (or blocking forever). A
        dispatcher busy with a held batch says so: its heartbeat ages
        as a wedged loop's would."""
        cfg = Configuration([(0, 1)], {0: 0, 1: 1})
        svc = BatchClassifier()  # its classification is held
        try:
            ticket = svc.submit(cfg)
            assert held_classification.entered.wait(10)
            started = time.monotonic()
            with pytest.raises(ServiceUnresponsiveError) as excinfo:
                svc.gather([ticket], timeout=0.2)
            assert time.monotonic() - started < 5
            message = str(excinfo.value)
            assert ticket.key in message and "alive=True" in message
            assert re.search(r"classifying 1 item\(s\) for \d+\.\d{3}s", message)
        finally:
            held_classification.release()
            svc.close()  # must not hang

    def test_submit_timeout_on_wedged_loop(self):
        """submit(timeout=) while the event loop is blocked raises a
        diagnostic error promptly instead of waiting out the wedge."""
        svc = BatchClassifier()
        try:
            release = threading.Event()
            svc._loop.call_soon_threadsafe(release.wait, 2)  # wedge the loop
            cfg = Configuration([(0, 1)], {0: 0, 1: 1})
            started = time.monotonic()
            with pytest.raises(ServiceUnresponsiveError) as excinfo:
                svc.submit(cfg, timeout=0.2)
            assert time.monotonic() - started < 1.5
            assert "wedged" in str(excinfo.value)
            assert "no batch in flight" in str(excinfo.value)
            release.set()
        finally:
            svc.close()

    def test_dead_event_loop_is_diagnosed_immediately(self):
        """The pre-fix hang: an externally stopped event loop made
        submit block forever. Now a dead dispatcher thread is diagnosed
        at submit time — with or without a timeout."""
        svc = BatchClassifier()
        svc._loop.call_soon_threadsafe(svc._loop.stop)
        svc._thread.join(timeout=5)
        assert not svc._thread.is_alive()
        cfg = Configuration([(0, 1)], {0: 0, 1: 1})
        started = time.monotonic()
        with pytest.raises(ServiceUnresponsiveError):
            svc.submit(cfg)  # no timeout — must still not hang
        with pytest.raises(ServiceUnresponsiveError):
            svc.submit_many([cfg], timeout=1)
        assert time.monotonic() - started < 5
        svc.close(timeout=1)  # close must not hang on the dead loop either

    def test_admission_control_is_atomic(self):
        """Admission (the core's admit_many, which the HTTP server
        awaits) refuses an oversized cold batch without enqueuing
        anything, and the refusal is accounted."""
        configs = random_config_batch(9, base_seed=55, n_hi=5)
        with BatchClassifier(max_pending=2) as svc:
            handle = asyncio.run_coroutine_threadsafe(
                svc._core.admit_many(configs, "decide"), svc._loop
            )
            with pytest.raises(ServiceSaturatedError) as excinfo:
                handle.result(timeout=10)
            assert excinfo.value.needed >= excinfo.value.capacity
            assert svc.stats.rejected == len(configs)
            assert svc.stats.submitted == 0  # no partial admission
            # the queue is untouched: a normal submit classifies fine
            record = svc.submit(configs[0]).result(timeout=10)
            assert record == census_record(configs[0].normalize())

    def test_cancelled_tickets_free_their_slots(self, held_classification):
        """A queued ticket cancelled before its batch fires is dropped
        by the dispatcher, not classified."""
        configs = random_config_batch(3, base_seed=56, n_hi=5)
        blocker = Configuration([(0, 1)], {0: 0, 1: 1})
        with BatchClassifier() as svc:
            svc.submit(blocker)  # held: the configs queue behind it
            assert held_classification.entered.wait(10)
            tickets = svc.submit_many(configs)
            assert tickets[0].cancel()
            held_classification.release()
            records = svc.gather(tickets[1:], timeout=10)
            assert records == [
                census_record(c.normalize()) for c in configs[1:]
            ]
            assert svc.stats.cancelled >= 1
            # the blocker's classification plus the uncancelled configs
            assert svc.stats.engine.classified == len(configs)
