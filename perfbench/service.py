"""The ``service_mixed`` workload: open-loop HTTP traffic with cold requests.

Two keep-alive connections, one client thread each, send 200 requests a
second between them on a fixed schedule, whether or not earlier requests
have been answered (an open loop). Requests come from E25's pre-warmed
pool; one request in 40 is a cold n = 28 G(n, 0.25) configuration that
no earlier request in the pass matched. Latency runs from each request's
due time, so a stall also counts against the requests queued behind it.

A pass is one 0.625-second schedule against a freshly started server
process, and a run repeats it: how long one cold key stalls the server
varies a lot from pass to pass, so one long pass would not be steady.

Correctness: every response must equal ``serial_report`` for its request.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import random
import statistics
import threading
import time
import types
from contextlib import ExitStack, contextmanager

import repro.core.batch
import repro.service.server
from repro.canon import clear_memo
from repro.core.configuration import Configuration
from repro.engine import RandomGnpWorkload, ResultCache, default_keyer, seeded_config
from repro.graphs.families import g_m
from repro.service import MODES, BatchClassifier, make_server, serial_report

from common import Ledger, TimedCache, percentile, swapped, tail

#: Offered load over both connections, requests per second.
RATE = 200.0
CLIENTS = 2

#: One request in this many is cold.
COLD_EVERY = 40

#: Length of one pass's schedule, seconds.
PASS_SECONDS = 0.625

#: The cold configurations: the first of this fixed G(n, p) sequence,
#: as many as a pass needs. A single n = 28 key can take from
#: milliseconds to seconds, so a seed-drawn set, or a seed-drawn order,
#: would make the tail latency a lottery.
COLD_POOL = dict(n_values=[28], span=2, p=0.25, seed=20260808)


def warm_pool():
    """E25's pool of ten unique requests, warmed before traffic starts."""
    return (
        [(g_m(m), "decide") for m in (6, 8, 10)]
        + [(seeded_config(s, 12, 14), "decide") for s in range(4)]
        + [(seeded_config(s, 8, 9), "elect") for s in range(3)]
    )


def _body(cfg, mode: str) -> bytes:
    return json.dumps(
        {
            "edges": [list(e) for e in cfg.edges],
            "tags": {str(v): t for v, t in cfg.tags.items()},
            "mode": mode,
        }
    ).encode("utf-8")


class Traffic:
    """The request schedule of one pass.

    ``requests[k]`` is ``(body, expected report, cold)``; ``slots[i]`` is
    the request sent at ``i / RATE`` seconds, by client ``i % CLIENTS``.
    Cold request ``k`` always takes slot ``COLD_EVERY * k + COLD_EVERY // 2``
    (alternating clients), so every run stalls on the same keys at the same
    moments; the seed orders the warm requests, each pool entry equally
    often.
    """

    def __init__(self, seed: int) -> None:
        self.pool = warm_pool()
        total = int(RATE * PASS_SECONDS)
        colds = list(RandomGnpWorkload(samples=total // COLD_EVERY, **COLD_POOL))
        self.requests = [
            (_body(cfg, mode), serial_report(cfg, mode), False)
            for cfg, mode in self.pool
        ] + [(_body(cfg, "decide"), serial_report(cfg, "decide"), True) for cfg in colds]
        # every pool entry equally often, in a seeded order: a seed-drawn
        # mix of cheap and dear entries would shift the median by itself
        self.slots = [i % len(self.pool) for i in range(total)]
        random.Random(seed).shuffle(self.slots)
        for k in range(len(colds)):
            self.slots[COLD_EVERY * k + COLD_EVERY // 2 + k % CLIENTS] = len(self.pool) + k


class Service:
    """A fresh classifier behind the HTTP server, with the pool warmed.

    With a ledger, the classifier gets a timed keyer, a timed cache and
    an ``on_batch`` observer.
    """

    def __init__(self, pool, ledger: Ledger = None) -> None:
        clear_memo()
        if ledger is None:
            self.cache = ResultCache()
            self.classifier = BatchClassifier(self.cache)
        else:
            self.cache = TimedCache(ledger)
            self.classifier = BatchClassifier(
                self.cache,
                keyer=ledger.timed("keys.canonical", default_keyer),
                on_batch=lambda size: ledger.sample("service.batch.size", size),
            )
        self.server = make_server(port=0, classifier=self.classifier, quiet=True)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        for mode in MODES:
            configs = [cfg for cfg, m in pool if m == mode]
            self.classifier.classify_many(configs, mode=mode, timeout=60)

    @property
    def address(self):
        return tuple(self.server.server_address[:2])

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.classifier.close()
        self.thread.join(timeout=10)


def _instrument(stack: ExitStack, ledger: Ledger) -> None:
    """Wrap the server's wire-format calls and the batch kernel.

    The server takes no hooks for them, so ``json``, ``parse_request``,
    ``requests_from_body`` and ``response_for`` in ``repro.service.server``
    and ``batch_census_records`` are wrapped until ``stack`` closes.
    """
    server = repro.service.server
    timed_json = types.SimpleNamespace(
        loads=ledger.timed("service.parse", json.loads),
        dumps=ledger.timed("service.serialize", json.dumps),
    )
    stack.enter_context(ledger.patched(Configuration, "normalize", "normalize.normalize"))
    stack.enter_context(
        ledger.patched(repro.core.batch, "batch_census_records", "classify.batch")
    )
    stack.enter_context(ledger.patched(server, "parse_request", "service.parse"))
    stack.enter_context(ledger.patched(server, "requests_from_body", "service.parse"))
    stack.enter_context(ledger.patched(server, "response_for", "service.serialize"))
    stack.enter_context(swapped(server, "json", timed_json))


def _serve(conn, pool, traced: bool) -> None:
    """Server process: serve until told to stop, then report.

    Sends the bound address once the pool is warm; on ``stop`` sends the
    CPU seconds spent serving and, when traced, the ledger and ratios.
    """
    ledger = Ledger() if traced else None
    with ExitStack() as stack:
        if traced:
            _instrument(stack, ledger)
        service = Service(pool, ledger)
        try:
            stats, engine = service.cache.stats, service.classifier.stats.engine
            before = (stats.hits, stats.lookups, len(service.cache), engine.classified)
            if traced:
                ledger.reset()  # warming the pool is set-up, not traffic
            conn.send(service.address)
            cpu0 = time.process_time()
            conn.recv()
            report = {"cpu_s": time.process_time() - cpu0}
            if traced:
                hits, lookups, entries, classified = (
                    stats.hits - before[0],
                    stats.lookups - before[1],
                    len(service.cache) - before[2],
                    engine.classified - before[3],
                )
                report["ledger"] = ledger.to_dict()
                report["extra"] = {
                    "cache.hit_ratio": hits / max(1, lookups),
                    "classify.unique_ratio": entries / max(1, classified),
                }
        finally:
            service.close()
    conn.send(report)


@contextmanager
def served(pool, traced: bool = False):
    """A warmed service in a forked process; yields ``(address, report)``.

    The server runs in its own process, as ``repro-radio serve`` does, so
    the load generator's threads do not compete with it for the
    interpreter lock. ``report`` is filled in when the block exits.
    """
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child, pool, traced))
    proc.start()
    try:
        report = {}
        yield parent.recv(), report
        parent.send("stop")
        report.update(parent.recv())
    finally:
        proc.join(timeout=30)
        if proc.is_alive():
            proc.terminate()
            proc.join()


def setup(seed: int):
    """Schedule and oracle reports, and a service brought up and down."""
    traffic = Traffic(seed)
    with served(traffic.pool):
        pass
    return traffic


def one_pass(traffic: Traffic):
    """One open loop against a fresh service; ``(checked, server CPU s)``."""
    with served(traffic.pool) as (address, report):
        checked = open_loop(address, traffic)
    return checked, report["cpu_s"]


def _exchange(conn, body: bytes):
    conn.request("POST", "/classify", body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def open_loop(address, traffic: Traffic, ledger: Ledger = None):
    """Send the whole schedule and check every response.

    Returns one ``(latency from due time, lateness of the send, ok)`` per
    slot.
    """
    results = [None] * len(traffic.slots)
    t0 = time.perf_counter() + 0.05

    def client(k: int) -> None:
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            for i in range(k, len(traffic.slots), CLIENTS):
                due = t0 + i / RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                body = traffic.requests[traffic.slots[i]][0]
                try:
                    if ledger is None:
                        status, data = _exchange(conn, body)
                    else:
                        with ledger.span("service.http"):
                            status, data = _exchange(conn, body)
                except (OSError, http.client.HTTPException):
                    conn.close()  # reconnects on the next request
                    status, data = 0, b"{}"
                done = time.perf_counter()
                results[i] = (done - due, sent - due, status, data)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    checked = []
    for i, (latency, late, status, data) in enumerate(results):
        expected = traffic.requests[traffic.slots[i]][1]
        ok = status == 200 and json.loads(data).get("report") == expected
        checked.append((latency, late, ok))
    return checked


def latency_metrics(traffic: Traffic, checked):
    """``cold_ms``, ``warm_ms`` and ``warm_tail_ms`` of one pass."""
    warm, cold = [], []
    # wrong answers count as failures, not as missing latencies
    for i, (latency, _late, _ok) in enumerate(checked):
        (cold if traffic.requests[traffic.slots[i]][2] else warm).append(latency)
    return {
        "cold_ms": statistics.median(cold) * 1e3,
        "warm_ms": statistics.median(warm) * 1e3,
        "warm_tail_ms": tail(warm) * 1e3,
    }


def lateness_ms(checked) -> dict:
    """How late the generator sent, p99 and worst, in milliseconds."""
    late = [c[1] for c in checked]
    return {"p99": percentile(late, 0.99) * 1e3, "max": max(late) * 1e3}


def traced_pass(traffic: Traffic, ledger: Ledger):
    """One open loop against a fresh traced service process.

    The server process's ledger is merged into ``ledger``, which itself
    records the client side (``service.http``). Returns ``(checked,
    server CPU seconds, extra metrics)``.
    """
    with served(traffic.pool, traced=True) as (address, report):
        checked = open_loop(address, traffic, ledger)
    ledger.merge(report["ledger"])
    return checked, report["cpu_s"], report["extra"]
