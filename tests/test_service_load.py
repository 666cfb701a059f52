"""Fault injection for the async HTTP front end.

Every test here abuses the server the way real traffic does — slow
clients, vanished clients, floods past the queue bound, shutdown under
load — and asserts the PR-6 hardening contract: deadlines fire (408 on
slow reads, 503 with freed batcher slots on slow classifications),
saturation is an explicit 429 with a parseable ``Retry-After``, and a
graceful drain never drops an in-flight response.
"""

import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.configuration import Configuration, line_configuration
from repro.service import BatchClassifier, make_server, serial_report


@contextlib.contextmanager
def running_server(*, classifier_kw=None, **server_kw):
    """A served BatchClassifier on an ephemeral port, torn down fully."""
    classifier = BatchClassifier(**(classifier_kw or {}))
    server = make_server(port=0, classifier=classifier, quiet=True, **server_kw)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        classifier.close()
        thread.join(timeout=10)
        assert not thread.is_alive(), "serve loop failed to drain"


def post(server, payload, timeout=30):
    """POST /classify; returns (status, parsed body, headers)."""
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/classify",
        data=json.dumps(payload).encode("utf-8"),
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def raw_connection(server, timeout=30):
    """A plain TCP connection to the server."""
    sock = socket.create_connection(server.server_address[:2], timeout=timeout)
    sock.settimeout(timeout)
    return sock


def read_response_head(sock):
    """First line + headers of one HTTP response off a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    head, _, _ = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return lines[0] if lines else "", headers


def cold_batch(count, n=5):
    """``count`` pairwise non-isomorphic requests (all cache misses)."""
    return [
        {"edges": [[i, i + 1] for i in range(n - 1)],
         "tags": {str(i): (seed + i * i) % (n + seed + 2) for i in range(n)}}
        for seed in range(count)
    ]


class TestDeadlines:
    def test_slow_loris_head_gets_408(self):
        """A client that trickles a partial request head is cut off at
        the deadline with 408, and the server keeps serving."""
        with running_server(request_timeout=0.4) as server:
            sock = raw_connection(server, timeout=10)
            sock.sendall(b"POST /classify HTTP/1.1\r\n")  # ...and stall
            started = time.monotonic()
            status_line, _ = read_response_head(sock)
            elapsed = time.monotonic() - started
            sock.close()
            assert "408" in status_line
            assert elapsed < 5
            assert server.metrics.counter("http.deadline_hits").value >= 1
            status, body, _ = post(server, {"line": [0, 1, 0]})
            assert status == 200 and body["ok"]

    def test_slow_loris_body_gets_408_without_touching_batcher(self):
        """A complete head whose declared body never arrives times out
        with 408 — nothing was submitted, so no batcher slot leaks."""
        with running_server(request_timeout=0.4) as server:
            sock = raw_connection(server, timeout=10)
            sock.sendall(
                b"POST /classify HTTP/1.1\r\n"
                b"Content-Length: 1000\r\n\r\n"
                b'{"line": [0, '  # 14 of the promised 1000 bytes
            )
            status_line, headers = read_response_head(sock)
            sock.close()
            assert "408" in status_line
            assert headers.get("connection") == "close"
            assert server.classifier.stats.submitted == 0

    def test_deadline_during_classification_frees_batcher_slot(
        self, held_classification
    ):
        """A request that blows its deadline mid-classification gets 503
        and its queued ticket is cancelled: the dispatcher drops (never
        classifies) the abandoned item, so the slot is freed rather than
        leaked and the service stays responsive."""
        cold = {"edges": [[0, 1], [1, 2], [2, 3]],
                "tags": {"0": 3, "1": 1, "2": 4, "3": 1}}
        blocker = Configuration([(0, 1)], {0: 0, 1: 1})
        with running_server(request_timeout=0.3) as server:
            svc = server.classifier
            # a held blocker batch keeps the cold request queued
            svc.submit(blocker)
            assert held_classification.entered.wait(10)
            started = time.monotonic()
            status, body, _ = post(server, cold)
            assert status == 503
            assert "deadline" in body["error"]
            assert time.monotonic() - started < 2
            assert server.metrics.counter("http.deadline_hits").value >= 1
            # release the blocker and observe the cancelled item being
            # dropped, not classified
            held_classification.release()
            deadline = time.monotonic() + 5
            while svc.stats.cancelled == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert svc.stats.cancelled >= 1
            assert svc.stats.engine.classified == 1  # the blocker only
            # the service is not wedged: a warm request (primed via the
            # library path, which has no HTTP deadline) answers fast
            cfg = line_configuration([0, 1, 0])
            svc.submit(cfg).result(timeout=10)
            status, body, _ = post(server, {"line": [0, 1, 0]})
            assert status == 200
            assert body["report"] == serial_report(cfg)


class TestDisconnects:
    def test_disconnect_mid_body_is_cleaned_up(self):
        """A client that dies halfway through its body leaves nothing
        behind: the connection is reaped and later requests work."""
        with running_server(request_timeout=5) as server:
            sock = raw_connection(server)
            sock.sendall(
                b"POST /classify HTTP/1.1\r\n"
                b"Content-Length: 500\r\n\r\n"
                b'{"line": '
            )
            sock.close()  # vanish mid-body
            deadline = time.monotonic() + 5
            while server.connection_count > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.connection_count == 0
            status, body, _ = post(server, {"line": [0, 1, 0]})
            assert status == 200 and body["ok"]

    def test_disconnect_during_classification_cancels_cleanly(
        self, held_classification
    ):
        """A client that vanishes while its request is being classified
        must not wedge the connection handler or the dispatcher."""
        with running_server() as server:
            payload = json.dumps(
                {"edges": [[0, 1], [1, 2]], "tags": {"0": 2, "1": 0, "2": 5}}
            ).encode()
            sock = raw_connection(server)
            sock.sendall(
                b"POST /classify HTTP/1.1\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            assert held_classification.entered.wait(10)
            sock.close()  # gone while its batch classifies
            held_classification.release()
            deadline = time.monotonic() + 5
            while server.connection_count > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.connection_count == 0
            status, body, _ = post(server, {"line": [0, 1, 0]}, timeout=10)
            assert status == 200 and body["ok"]


class TestSaturation:
    def test_oversized_cold_batch_gets_429_with_retry_after(self):
        """A batch holding more cold misses than the queue can ever take
        is refused outright: 429, a parseable Retry-After header, and an
        explanatory body — with no partial state left behind."""
        classifier_kw = {"max_pending": 2}
        with running_server(classifier_kw=classifier_kw) as server:
            status, body, headers = post(server, {"requests": cold_batch(8)})
            assert status == 429
            assert not body["ok"] and "saturated" in body["error"]
            retry_after = int(headers["Retry-After"])
            assert retry_after >= 1
            assert body["retry_after"] == retry_after
            assert server.classifier.stats.rejected >= 8
            assert server.metrics.counter("http.rejected_saturated").value >= 1
            # zero hung connections, zero leaked slots: the very next
            # request classifies normally
            status, body, _ = post(server, {"line": [0, 1, 0]})
            assert status == 200
            assert body["report"] == serial_report(line_configuration([0, 1, 0]))

    def test_metrics_scrape_survives_saturation(self):
        """/metrics keeps answering while admission control is busy
        refusing work (observability must not share the fate of the
        saturated data path)."""
        classifier_kw = {"max_pending": 1}
        with running_server(classifier_kw=classifier_kw) as server:
            post(server, {"requests": cold_batch(6)})
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as resp:
                text = resp.read().decode()
            assert "repro_http_rejected_saturated_total 1" in text


class TestConnectionLimit:
    def test_excess_connections_get_503(self):
        with running_server(max_connections=1, request_timeout=5) as server:
            parked = raw_connection(server)  # occupies the only slot
            time.sleep(0.1)  # let the accept loop register it
            # a raw one-shot GET: the request is fully sent before the
            # server's reject-and-close, so the 503 is always readable
            probe = raw_connection(server, timeout=10)
            probe.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status_line, _ = read_response_head(probe)
            probe.close()
            assert "503" in status_line
            assert server.metrics.counter("http.rejected_connections").value >= 1
            parked.close()
            deadline = time.monotonic() + 5
            while server.connection_count > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            status, body, _ = post(server, {"line": [0, 1, 0]}, timeout=10)
            assert status == 200 and body["ok"]


class TestGracefulDrain:
    def test_shutdown_drains_in_flight_requests(self, held_classification):
        """shutdown() called mid-request: the in-flight response still
        arrives, bit-for-bit correct, while new connections are refused."""
        cfg = Configuration([(0, 1), (1, 2)], {0: 1, 1: 0, 2: 2})
        payload = {**{"edges": [[0, 1], [1, 2]],
                      "tags": {"0": 1, "1": 0, "2": 2}}, "mode": "elect"}
        classifier = BatchClassifier()
        server = make_server(
            port=0, classifier=classifier, quiet=True, drain_timeout=10
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        outcome = {}

        def client():
            outcome["response"] = post(server, payload, timeout=30)

        try:
            requester = threading.Thread(target=client)
            requester.start()
            # the request is held in classification; the gate opens
            # once the drain has begun
            assert held_classification.entered.wait(10)
            held_classification.release_when(lambda: server._draining)
            server.shutdown()  # blocks until the drain completes
            requester.join(timeout=10)
            assert not requester.is_alive(), "in-flight response was dropped"
            status, body, _ = outcome["response"]
            assert status == 200
            assert body["report"] == serial_report(cfg, "elect")
            # the listener is gone: connecting now fails fast
            with pytest.raises(OSError):
                socket.create_connection(server.server_address[:2], timeout=2)
        finally:
            server.shutdown()
            server.server_close()
            classifier.close()
            thread.join(timeout=10)

    def test_idle_keep_alive_connections_are_cut(self):
        """Drain must not wait out idle keep-alive connections — only
        busy ones get the grace period."""
        with running_server(request_timeout=60, drain_timeout=30) as server:
            idle = raw_connection(server)
            time.sleep(0.1)
            assert server.connection_count >= 1
            started = time.monotonic()
            server.shutdown()  # must not take anywhere near 30s
            assert time.monotonic() - started < 5
            idle.close()
