"""The service runs on one event loop; only classification leaves it.

The HTTP handlers and the batch core share the classifier's loop, and
a batch's unique cold misses are classified on one worker thread. So
while a cold batch classifies, the loop keeps answering warm requests
and ``/healthz``; the cache and the counters are touched on the loop
thread alone; and the worker's spans still nest under the batch that
sent it the work.
"""

import contextlib
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.engine.pipeline as pipeline
from repro import obs
from repro.core.configuration import Configuration, line_configuration
from repro.engine import ResultCache, census_record, default_keyer
from repro.obs.events import read_events
from repro.service import BatchClassifier, make_server, serial_report

from conftest import random_config_batch

WARM = line_configuration([0, 1, 0])
COLD = Configuration([(0, 1), (1, 2), (2, 3)], {0: 3, 1: 1, 2: 4, 3: 1})


def wire(cfg, mode="decide"):
    """The wire form of one request."""
    return {
        "edges": [list(e) for e in cfg.edges],
        "tags": {str(v): t for v, t in cfg.tags.items()},
        "mode": mode,
    }


@contextlib.contextmanager
def served(classifier):
    """``classifier`` behind a server on an ephemeral port."""
    server = make_server(port=0, classifier=classifier, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        classifier.close()
        thread.join(timeout=10)


def fetch(server, path, payload=None, timeout=5):
    """GET ``path``, or POST ``payload`` to it; (status, parsed body)."""
    host, port = server.server_address[:2]
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(f"http://{host}:{port}{path}", data=data)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def warm_cache():
    """A cache already holding WARM's record, as a census would leave it."""
    cache = ResultCache()
    normalized = WARM.normalize()
    cache.put(default_keyer(normalized), census_record(normalized))
    return cache


def test_warm_requests_answer_while_a_cold_batch_classifies(
    held_classification,
):
    """A cold batch held in classification does not hold the loop: a
    warm request answers through ``submit`` and through HTTP, and
    ``/healthz`` answers, before the cold one resolves."""
    with served(BatchClassifier(warm_cache())) as server:
        svc = server.classifier
        cold = svc.submit(COLD)
        assert held_classification.entered.wait(10)

        warm = svc.submit(WARM, timeout=2)
        assert warm.report(timeout=2) == serial_report(WARM)
        status, body = fetch(server, "/classify", wire(WARM))
        assert status == 200 and body["report"] == serial_report(WARM)
        status, body = fetch(server, "/healthz")
        assert status == 200 and body["ok"]
        assert not cold.done()

        held_classification.release()
        assert cold.result(timeout=10) == census_record(COLD.normalize())


class ThreadRecordingCache(ResultCache):
    """A cache that notes the thread of every ``get`` and ``put``."""

    def __init__(self) -> None:
        super().__init__()
        self.threads = {"get": set(), "put": set()}

    def get(self, key):
        self.threads["get"].add(threading.get_ident())
        return super().get(key)

    def put(self, key, record):
        self.threads["put"].add(threading.get_ident())
        super().put(key, record)


def record_writes(obj, threads):
    """Note in ``threads`` the thread of every attribute write on ``obj``."""
    base = type(obj)

    class Recorded(base):
        def __setattr__(self, name, value):
            threads.add(threading.get_ident())
            base.__setattr__(self, name, value)

    obj.__class__ = Recorded


def test_cache_and_counters_stay_on_the_loop_thread(monkeypatch):
    """Keys, cache reads and writes and the counters run on the loop
    thread only; the classification runs on another thread."""
    classify_threads = set()
    classify = pipeline._classify_records

    def recorded(configs, measure_rounds, algorithm):
        classify_threads.add(threading.get_ident())
        return classify(configs, measure_rounds, algorithm)

    monkeypatch.setattr(pipeline, "_classify_records", recorded)
    cache = ThreadRecordingCache()
    svc = BatchClassifier(cache)
    counter_threads = set()
    record_writes(svc.stats, counter_threads)
    record_writes(svc.stats.engine, counter_threads)
    with served(svc) as server:
        # library path: cold decide and elect, then warm repeats
        for mode in ("decide", "elect"):
            assert svc.submit(COLD, mode=mode).report(timeout=10) == (
                serial_report(COLD, mode)
            )
        svc.classify_many([COLD, WARM, WARM], timeout=10)
        # HTTP path: a batch mixing a new cold request and warm ones
        cold_http = line_configuration([0, 2, 1, 0])
        status, body = fetch(
            server,
            "/classify",
            {"requests": [wire(cold_http, "elect"), wire(WARM), wire(COLD)]},
        )
        assert status == 200
        assert [r["report"] for r in body["responses"]] == [
            serial_report(cold_http, "elect"),
            serial_report(WARM),
            serial_report(COLD),
        ]
        loop_thread = svc._thread.ident

    assert cache.threads["get"] == {loop_thread}
    assert cache.threads["put"] == {loop_thread}
    assert counter_threads == {loop_thread}
    assert classify_threads
    assert loop_thread not in classify_threads
    assert threading.get_ident() not in classify_threads


def test_concurrent_submitters_keep_every_count():
    """More submitter threads than cores, with a short switch interval,
    while batches classify on the worker: every submit is counted once,
    as a cache hit, a coalesced duplicate or a classification, and every
    record is right. A lost counter update would break the sum."""
    configs = random_config_batch(12, base_seed=60, n_hi=6)
    expected = {id(c): census_record(c.normalize()) for c in configs}
    threads_n, rounds = 8, 30
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BatchClassifier(max_batch=4) as svc:
            wrong = []

            def submitter(k):
                for r in range(rounds):
                    cfg = configs[(k + r) % len(configs)]
                    if svc.submit(cfg).result(timeout=30) != expected[id(cfg)]:
                        wrong.append(cfg)

            threads = [
                threading.Thread(target=submitter, args=(k,))
                for k in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            engine = svc.stats.engine
            assert not wrong
            assert svc.stats.submitted == threads_n * rounds
            assert engine.cache_hits + engine.deduped + engine.classified == (
                threads_n * rounds
            )
            assert engine.classified == len(
                {default_keyer(c.normalize()) for c in configs}
            )
    finally:
        sys.setswitchinterval(interval)


def test_traced_cold_request_joins_its_batch_span(tmp_path):
    """A traced served cold request logs ``request.admitted`` inside its
    ``service.request`` span, with the ``keys_digest`` of exactly one
    ``service.batch`` span; the worker's ``batch.kernel`` span nests
    under that batch."""
    pytest.importorskip("numpy")
    path = tmp_path / "serve.jsonl"
    obs.enable(trace_path=str(path))
    try:
        with served(BatchClassifier()) as server:
            status, body = fetch(server, "/classify", wire(COLD))
    finally:
        obs.disable()
    assert status == 200 and body["report"] == serial_report(COLD)

    events = read_events(str(path), validate=True)
    starts = {e["span"]: e for e in events if e["kind"] == "span.start"}
    admitted = [
        e for e in events
        if e["kind"] == "event" and e["name"] == "request.admitted"
    ]
    assert len(admitted) == 1
    assert starts[admitted[0]["span"]]["name"] == "service.request"
    digest = admitted[0]["attrs"]["keys_digest"]
    batches = [
        span for span, e in starts.items()
        if e["name"] == "service.batch"
        and e.get("attrs", {}).get("keys_digest") == digest
    ]
    assert len(batches) == 1

    def ancestors(span):
        while span is not None:
            yield span
            span = starts[span]["parent"]

    kernels = [span for span, e in starts.items() if e["name"] == "batch.kernel"]
    assert kernels
    assert all(batches[0] in ancestors(starts[k]["parent"]) for k in kernels)
