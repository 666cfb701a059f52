"""/metrics correctness: Prometheus text format and counter fidelity.

The exposition is pinned two ways: an *independent* parser written here
(so the library's own :func:`repro.service.parse_prometheus_text` is
not grading its own homework) checks the text format, and the
``repro_service_*`` gauges are compared bit-for-bit against
``ServiceStats.as_dict()`` after a scripted request sequence.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    METRICS_CONTENT_TYPE,
    BatchClassifier,
    ServiceMetrics,
    make_server,
    parse_prometheus_text,
)
from repro.service.metrics import Histogram, render_gauge_group


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
        assert samples  # something was exported
        # every series the contract names is present
        for name in (
            "repro_http_requests_total",
            "repro_http_rejected_saturated_total",
            "repro_http_rejected_connections_total",
            "repro_http_deadline_hits_total",
            "repro_http_request_latency_seconds_count",
            'repro_http_request_latency_seconds_bucket{le="+Inf"}',
            "repro_service_batch_size_count",
            "repro_service_submitted",
            "repro_engine_classified",
            "repro_cache_entries",
        ):
            assert name in samples, f"missing series {name}"
        # HELP/TYPE comments precede every sample family
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_latency_seconds histogram" in text

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
        with pytest.raises(ValueError):
            Histogram("h", "help", [])
        with pytest.raises(ValueError):
            Histogram("h", "help", [2.0, 1.0])

    def test_histogram_observe_and_render(self):
        h = Histogram("lat", "help", [0.1, 1.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            h.observe(value)
        rendered = "\n".join(h.render())
        samples = independent_parse(rendered)
        assert samples['lat_bucket{le="0.1"}'] == 1
        assert samples['lat_bucket{le="1.0"}'] == 3  # cumulative
        assert samples['lat_bucket{le="+Inf"}'] == 4
        assert samples["lat_count"] == 4
        assert samples["lat_sum"] == pytest.approx(6.05)

    def test_gauge_group_is_verbatim(self):
        lines = render_gauge_group("p", {"a": 3, "rate": 0.25}, "help")
        samples = independent_parse("\n".join(lines))
        assert samples == {"p_a": 3.0, "p_rate": 0.25}

    def test_service_metrics_renders_without_meta(self):
        m = ServiceMetrics()
        m.observe_request(200, 0.01)
        m.observe_batch(4)
        samples = independent_parse(m.render())
        assert samples["repro_http_requests_total"] == 1
        assert samples["repro_service_batch_size_count"] == 1
        assert "repro_service_submitted" not in samples  # no meta given

    def test_parse_rejects_malformed_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("justonename\n")
