"""/metrics correctness: Prometheus text format and counter fidelity.

The exposition is pinned two ways: an *independent* parser written here
(so the library's own :func:`repro.obs.parse_prometheus_text` is
not grading its own homework) checks the text format, and the
``repro_service_*`` gauges are compared bit-for-bit against
``ServiceStats.as_dict()`` after a scripted request sequence. The
encoder itself is :class:`repro.obs.MetricsRegistry`; ``TestUnits``
drives it without a server.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.service import METRICS_CONTENT_TYPE, BatchClassifier, make_server


def independent_parse(text):
    """A from-scratch Prometheus text parser: {series name: float}."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name, f"sample line has no name: {line!r}"
        samples[name] = float(value)  # must parse as a float
    return samples


@pytest.fixture()
def served():
    """A live server plus helpers; fresh per test (counters start at 0)."""
    classifier = BatchClassifier()
    server = make_server(port=0, classifier=classifier, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield server, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    classifier.close()
    thread.join(timeout=10)


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.read().decode(), dict(resp.headers)


def post(base, payload=None, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    try:
        with urllib.request.urlopen(
            urllib.request.Request(base + "/classify", data=data), timeout=30
        ) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code


def scripted_traffic(base):
    """A fixed request mix; returns the number of HTTP requests made."""
    assert post(base, {"line": [0, 1, 0]}) == 200  # cold decide
    assert post(base, {"line": [0, 1, 0]}) == 200  # warm repeat
    assert post(base, {"line": [0, 2, 1], "mode": "elect"}) == 200
    assert post(base, raw=b"{nope") == 400
    assert get(base, "/healthz")[0] == 200
    return 5


class TestExposition:
    def test_metrics_parses_as_prometheus_text(self, served):
        server, base = served
        scripted_traffic(base)
        status, text, headers = get(base, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        samples = independent_parse(text)
        # every family the server's registry renders, with its type
        families = {
            "repro_http_requests_total": "counter",
            "repro_http_responses_total": "counter",
            "repro_http_rejected_saturated_total": "counter",
            "repro_http_rejected_connections_total": "counter",
            "repro_http_deadline_hits_total": "counter",
            "repro_http_request_latency_seconds": "histogram",
            "repro_service_batch_size": "histogram",
        }
        for group, stats in server.classifier.meta().items():
            for key in stats:
                families[f"repro_{group}_{key}"] = "gauge"
        for family, kind in families.items():
            assert f"# TYPE {family} {kind}" in text, family
            assert any(
                name.partition("{")[0] in (family, f"{family}_count")
                for name in samples
            ), f"no samples for {family}"
        for name in (
            'repro_http_responses_total{code="200"}',
            'repro_http_responses_total{code="400"}',
            'repro_http_request_latency_seconds_bucket{le="+Inf"}',
            "repro_service_batch_size_count",
        ):
            assert name in samples, f"missing series {name}"

    def test_library_parser_agrees_with_independent_parser(self, served):
        server, base = served
        scripted_traffic(base)
        _, text, _ = get(base, "/metrics")
        assert parse_prometheus_text(text) == independent_parse(text)

    def test_counters_match_service_stats_bit_for_bit(self, served):
        server, base = served
        scripted_traffic(base)
        _, text, _ = get(base, "/metrics")
        samples = independent_parse(text)
        for key, value in server.classifier.stats.as_dict().items():
            assert samples[f"repro_service_{key}"] == value, key
        for key, value in server.classifier.stats.engine.as_dict().items():
            assert samples[f"repro_engine_{key}"] == value, key
        cache = server.classifier.cache
        for key, value in dict(
            cache.stats.as_dict(), entries=len(cache)
        ).items():
            assert samples[f"repro_cache_{key}"] == value, key

    def test_request_counters_and_histogram_are_consistent(self, served):
        server, base = served
        requests = scripted_traffic(base)
        _, text, _ = get(base, "/metrics")
        samples = independent_parse(text)
        # the scrape renders before counting itself, so the payload
        # covers exactly the scripted requests
        assert samples["repro_http_requests_total"] == requests
        # bucket counts are cumulative and sum to the request count
        assert (
            samples['repro_http_request_latency_seconds_bucket{le="+Inf"}']
            == samples["repro_http_request_latency_seconds_count"]
            == requests
        )
        # per-status counters partition the total
        by_status = [
            v for k, v in samples.items()
            if k.startswith("repro_http_responses_total{")
        ]
        assert sum(by_status) == requests
        assert samples['repro_http_responses_total{code="400"}'] == 1
        # batch-size histogram counts dispatcher batches
        assert (
            samples["repro_service_batch_size_count"]
            == server.classifier.stats.batches
        )
        assert (
            samples['repro_service_batch_size_bucket{le="+Inf"}']
            == samples["repro_service_batch_size_count"]
        )

    def test_scrapes_count_as_requests_on_the_next_scrape(self, served):
        server, base = served
        requests = scripted_traffic(base)
        get(base, "/metrics")
        _, text, _ = get(base, "/metrics")
        assert (
            independent_parse(text)["repro_http_requests_total"]
            == requests + 1
        )

    def test_bucket_series_are_monotone(self, served):
        server, base = served
        scripted_traffic(base)
        _, text, _ = get(base, "/metrics")
        for family in (
            "repro_http_request_latency_seconds",
            "repro_service_batch_size",
        ):
            counts = [
                float(line.rpartition(" ")[2])
                for line in text.splitlines()
                if line.startswith(f"{family}_bucket")
            ]
            assert counts == sorted(counts)
            assert counts, family


class TestUnits:
    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", [])
        with pytest.raises(ValueError):
            registry.histogram("h", [2.0, 1.0])

    def test_histogram_observe_and_render(self):
        registry = MetricsRegistry(prefix="p")
        for value in (0.05, 0.1, 0.5, 5.0):
            registry.observe("lat", value, [0.1, 1.0])
        text = registry.render_prometheus()
        assert "# TYPE p_lat histogram" in text
        samples = independent_parse(text)
        assert samples['p_lat_bucket{le="0.1"}'] == 2  # le: bound included
        assert samples['p_lat_bucket{le="1.0"}'] == 3  # cumulative
        assert samples['p_lat_bucket{le="+Inf"}'] == 4
        assert samples["p_lat_count"] == 4
        assert samples["p_lat_sum"] == pytest.approx(5.65)

    def test_gauge_group_is_verbatim(self):
        registry = MetricsRegistry(prefix="p")
        registry.register_group("g", lambda: {"a": 3, "rate": 0.25})
        text = registry.render_prometheus()
        assert "# TYPE repro_g_a gauge" in text
        assert "repro_g_a 3\n" in text  # ints stay ints
        samples = independent_parse(text)
        assert samples == {"repro_g_a": 3.0, "repro_g_rate": 0.25}

    def test_parse_rejects_malformed_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("justonename\n")
