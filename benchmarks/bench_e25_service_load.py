"""E25 — Service load: sustained RPS / p99 gates + 429-on-saturation.

The acceptance gate of the PR-6 service hardening: an in-process load
generator drives the pure-asyncio front end over real sockets with
mixed warm/cold traffic from concurrent keep-alive clients, and the
server must (a) sustain at least ``RPS_FLOOR`` requests/second with a
p99 latency under ``P99_CEILING_S``, (b) answer every request
bit-for-bit equal to the serial oracle
(:func:`repro.service.serial_report`), (c) convert queue saturation
into ``429 Too Many Requests`` + ``Retry-After`` instead of hung
sockets, and (d) leave **zero** hung connections behind. Its cold
large-work arm posts one batch of distinct large-n ``elect`` requests,
whose classification keeps the server's worker thread busy for at least
``COLD_BATCH_MIN_S``, and requires trivial warm requests on another
connection to keep their p99 under ``WARM_P99_CEILING_S`` meanwhile.

The measured numbers land in ``BENCH_E25.json``
(:mod:`repro.reporting.bench`) before the floors are asserted, so a
failing gate still leaves its evidence; CI uploads the file with the
other bench artifacts. ``speedup`` carries the measured RPS and
``floor`` the RPS gate (the schema's ratio slot, reused as
requests-per-second for a load benchmark).
"""

import http.client
import json
import random
import threading
import time

import pytest

from repro.core.configuration import line_configuration
from repro.graphs.families import g_m
from repro.reporting.bench import BenchResult, write_bench_result
from repro.service import BatchClassifier, make_server, serial_report

from conftest import seeded_config

#: Sustained requests/second the mixed-load phase must reach. The warm
#: in-process service answers in well under a millisecond, so even CI
#: machines clear this by an order of magnitude — the gate catches
#: event-loop stalls and serialization regressions, not CPU speed.
RPS_FLOOR = 50.0

#: p99 request latency ceiling, seconds (generous for CI scheduler noise).
P99_CEILING_S = 0.25

#: Concurrent keep-alive clients and requests per client.
CLIENTS = 8
REQUESTS_PER_CLIENT = 60

#: The cold large-work arm: distinct G_m ``elect`` requests (n = 81 to
#: 141) in one batched POST. Their classification must take at least
#: COLD_BATCH_MIN_S, and warm requests answered meanwhile must keep
#: their p99 under WARM_P99_CEILING_S.
COLD_LARGE_M = range(20, 36)
COLD_BATCH_MIN_S = 0.5
WARM_P99_CEILING_S = 0.050


def mixed_workload():
    """Per-client request sequences over a shared unique-config pool.

    ~10 uniques (the paper's expensive G_m family plus random G(n, p))
    repeated in shuffled order — duplicate-heavy, like real serving
    traffic — with a per-client cold straggler so the cold path stays
    exercised *during* the measured window, not just in warmup.
    """
    uniques = [(g_m(m), "decide") for m in (6, 8, 10)] + [
        (seeded_config(s, 12, 14), "decide") for s in range(4)
    ] + [(seeded_config(s, 8, 9), "elect") for s in range(3)]
    sequences = []
    for client in range(CLIENTS):
        rng = random.Random(100 + client)
        seq = [uniques[rng.randrange(len(uniques))]
               for _ in range(REQUESTS_PER_CLIENT - 1)]
        # one cold miss mid-stream, unique to this client
        cold = (seeded_config(50 + client, 10, 12), "decide")
        seq.insert(rng.randrange(len(seq)), cold)
        sequences.append(seq)
    return sequences


@pytest.fixture(scope="module")
def sequences():
    return mixed_workload()


@pytest.fixture(scope="module")
def measured():
    """``BENCH_E25.json``'s payload: each gate fills in its part and
    rewrites the file before asserting."""
    return BenchResult(experiment="E25", floor=RPS_FLOOR, passed=True)


@pytest.fixture(scope="module")
def oracle(sequences):
    """Serial reference report per (config, mode) — the equality bar."""
    expected = {}
    for seq in sequences:
        for cfg, mode in seq:
            key = (cfg, mode)
            if key not in expected:
                expected[key] = serial_report(cfg, mode)
    return expected


def request_json(cfg, mode):
    """The wire form of one request."""
    return {
        "edges": [list(e) for e in cfg.edges],
        "tags": {str(v): t for v, t in cfg.tags.items()},
        "mode": mode,
    }


def exchange(conn, payload):
    """POST one JSON body over ``conn``; returns (status, parsed body)."""
    conn.request(
        "POST", "/classify", body=payload,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def run_client(address, sequence, oracle, latencies, failures):
    """One keep-alive client: POST every request, verify bit-for-bit."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        for cfg, mode in sequence:
            payload = json.dumps(request_json(cfg, mode))
            t0 = time.perf_counter()
            status, body = exchange(conn, payload)
            latencies.append(time.perf_counter() - t0)
            if status != 200 or body["report"] != oracle[(cfg, mode)]:
                failures.append((status, body))
    finally:
        conn.close()


def percentile(values, q):
    """The q-quantile of ``values`` (nearest-rank)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_mixed_load_sustains_rps_and_p99_floors(sequences, oracle, measured):
    """The headline gate: CLIENTS concurrent keep-alive clients push
    mixed warm/cold traffic; the server sustains ``RPS_FLOOR`` with p99
    under ``P99_CEILING_S`` and every response bit-for-bit correct —
    then a saturation probe against a tiny queue must yield 429s, and
    the module ends with zero hung connections."""
    classifier = BatchClassifier()
    server = make_server(port=0, classifier=classifier, quiet=True)
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    address = tuple(server.server_address[:2])
    latencies, failures = [], []
    try:
        # warm the cache with one pass of the shared uniques (library
        # path; the measured window still classifies each client's
        # private cold straggler)
        classifier.classify_many([cfg for cfg, _ in sequences[0][:10]])
        threads = [
            threading.Thread(
                target=run_client,
                args=(address, seq, oracle, latencies, failures),
            )
            for seq in sequences
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        wall = time.perf_counter() - t0
        hung = [t for t in threads if t.is_alive()]
        total = CLIENTS * REQUESTS_PER_CLIENT
        rps = len(latencies) / wall if wall > 0 else 0.0
        p50 = percentile(latencies, 0.50) if latencies else float("inf")
        p99 = percentile(latencies, 0.99) if latencies else float("inf")

        # saturation probe: a cold batch bigger than a 2-slot queue can
        # ever hold must be refused with 429 + Retry-After, not hang
        saturated = saturation_probe()

        # connections drain once clients hang up
        deadline = time.monotonic() + 5
        while server.connection_count > 0 and time.monotonic() < deadline:
            time.sleep(0.02)

        passed = (
            not failures
            and not hung
            and len(latencies) == total
            and rps >= RPS_FLOOR
            and p99 <= P99_CEILING_S
            and saturated["status"] == 429
            and saturated["retry_after"] >= 1
            and server.connection_count == 0
        )
        measured.workload.update(
            clients=CLIENTS,
            requests=total,
            unique_configs=len(oracle),
            saturation_status=saturated["status"],
            retry_after_s=saturated["retry_after"],
            hung_connections=len(hung) + server.connection_count,
            failures=len(failures),
        )
        measured.timings_s.update(wall=wall, p50=p50, p99=p99)
        measured.speedup = rps  # requests/second in the schema's ratio slot
        measured.passed = measured.passed and passed
        write_bench_result(measured)
        assert not failures, f"{len(failures)} wrong responses: {failures[:3]}"
        assert not hung, f"{len(hung)} client(s) hung"
        assert len(latencies) == total
        assert rps >= RPS_FLOOR, f"{rps:.0f} rps < {RPS_FLOOR} floor"
        assert p99 <= P99_CEILING_S, f"p99 {p99:.3f}s > {P99_CEILING_S}s"
        assert saturated["status"] == 429 and saturated["retry_after"] >= 1
        assert server.connection_count == 0, "hung server-side connections"
    finally:
        server.shutdown()
        server.server_close()
        classifier.close()
        serve_thread.join(timeout=10)


def saturation_probe():
    """Drive a tiny-queue server into refusal; returns what came back."""
    classifier = BatchClassifier(max_pending=2)
    server = make_server(port=0, classifier=classifier, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [
            {
                "edges": [[i, i + 1] for i in range(4)],
                "tags": {str(i): (seed + i * i) % (seed + 7)
                         for i in range(5)},
            }
            for seed in range(8)  # 8 cold misses >> 2 queue slots
        ]
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=30)
        try:
            conn.request(
                "POST", "/classify",
                body=json.dumps({"requests": requests}),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            retry_after = int(resp.headers.get("Retry-After", "0"))
        finally:
            conn.close()
        return {
            "status": resp.status,
            "retry_after": retry_after,
            "body": body,
        }
    finally:
        server.shutdown()
        server.server_close()
        classifier.close()
        thread.join(timeout=10)


def test_cold_large_batch_keeps_warm_requests_fast(measured):
    """The cold large-work arm: one connection posts a batched ``elect``
    request of distinct cold large-n configurations, which keeps the
    server classifying for at least ``COLD_BATCH_MIN_S``. Meanwhile
    trivial warm requests on another connection keep their p99 under
    ``WARM_P99_CEILING_S``, and every response equals
    ``serial_report``. A server that classifies on the loop its
    requests are keyed on makes every warm request wait out the batch.
    """
    cold = [g_m(m) for m in COLD_LARGE_M]
    cold_payload = json.dumps(
        {"requests": [request_json(cfg, "elect") for cfg in cold]}
    )
    warm_payload = json.dumps({"line": [0, 1, 0]})
    warm_expected = serial_report(line_configuration([0, 1, 0]))
    classifier = BatchClassifier()
    server = make_server(port=0, classifier=classifier, quiet=True)
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    address = tuple(server.server_address[:2])
    warm_conn = http.client.HTTPConnection(*address, timeout=60)
    cold_out = {}

    def cold_client():
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            t0 = time.perf_counter()
            cold_out["status"], cold_out["body"] = exchange(conn, cold_payload)
            cold_out["wall"] = time.perf_counter() - t0
        finally:
            conn.close()

    try:
        assert exchange(warm_conn, warm_payload)[0] == 200  # warm it
        batches = classifier.stats.batches
        cold_thread = threading.Thread(target=cold_client)
        cold_thread.start()
        # from the moment the cold batch starts classifying...
        deadline = time.monotonic() + 60
        while (
            classifier.stats.batches == batches
            and cold_thread.is_alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        # ...until its response arrives, send warm requests back to back
        latencies, wrong = [], 0
        while cold_thread.is_alive():
            t0 = time.perf_counter()
            status, body = exchange(warm_conn, warm_payload)
            latencies.append(time.perf_counter() - t0)
            if status != 200 or body["report"] != warm_expected:
                wrong += 1
        cold_thread.join()
    finally:
        warm_conn.close()
        server.shutdown()
        server.server_close()
        classifier.close()
        serve_thread.join(timeout=10)

    cold_reports = [r.get("report") for r in cold_out["body"]["responses"]]
    cold_correct = cold_out["status"] == 200 and cold_reports == [
        serial_report(cfg, "elect") for cfg in cold
    ]
    p99 = percentile(latencies, 0.99) if latencies else float("inf")
    passed = (
        cold_correct
        and wrong == 0
        and cold_out["wall"] >= COLD_BATCH_MIN_S
        and p99 < WARM_P99_CEILING_S
    )
    measured.workload.update(
        cold_batch_items=len(cold),
        cold_batch_n=[cfg.n for cfg in (cold[0], cold[-1])],
        warm_during_cold=len(latencies),
        warm_during_cold_failures=wrong,
    )
    measured.timings_s.update(
        cold_batch=cold_out["wall"], warm_during_cold_p99=p99
    )
    measured.limits_s["warm_during_cold_p99"] = WARM_P99_CEILING_S
    measured.passed = measured.passed and passed
    write_bench_result(measured)
    assert cold_correct, "cold batch answers differ from serial_report"
    assert wrong == 0, f"{wrong} wrong warm responses"
    assert cold_out["wall"] >= COLD_BATCH_MIN_S, (
        f"cold batch took {cold_out['wall']:.3f}s < {COLD_BATCH_MIN_S}s: "
        "too short to hold the worker busy"
    )
    assert p99 < WARM_P99_CEILING_S, (
        f"warm p99 {p99 * 1e3:.1f} ms during the cold batch "
        f"(n = {len(latencies)}) >= {WARM_P99_CEILING_S * 1e3:.0f} ms"
    )


@pytest.mark.benchmark(group="e25-service-load")
def test_warm_request_latency_over_keepalive(benchmark, sequences, oracle):
    """Timing row: one warm request over an established keep-alive
    connection — the steady-state unit of serving cost."""
    cfg, mode = sequences[0][0]
    expected = oracle[(cfg, mode)]
    payload = json.dumps(
        {
            "edges": [list(e) for e in cfg.edges],
            "tags": {str(v): t for v, t in cfg.tags.items()},
            "mode": mode,
        }
    )
    classifier = BatchClassifier()
    server = make_server(port=0, classifier=classifier, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    try:
        def one_request():
            conn.request(
                "POST", "/classify", body=payload,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())

        one_request()  # warm the cache outside the timer
        status, body = benchmark(one_request)
        assert status == 200 and body["report"] == expected
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        classifier.close()
        thread.join(timeout=10)
