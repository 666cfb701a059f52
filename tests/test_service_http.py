"""HTTP service tests: routes, batch semantics, error surfaces.

The server binds an ephemeral port per module; every assertion about
response *content* defers to :func:`repro.service.serial_report`, so
these tests pin the wire contract documented in docs/service.md.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.configuration import line_configuration
from repro.service import (
    MAX_BODY_BYTES,
    MODES,
    config_from_json,
    config_to_json,
    make_server,
    serial_report,
)

try:
    from hypothesis import given, settings, strategies as st

    from repro.testing import configurations

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an install extra
    HAVE_HYPOTHESIS = False


@pytest.fixture(scope="module")
def base_url():
    import threading

    server = make_server(port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.classifier.close()
    thread.join(timeout=5)


def fetch(base_url, path, payload=None, raw=None):
    """POST ``payload`` (or GET when None); returns (status, json body)."""
    data = raw if raw is not None else (
        json.dumps(payload).encode("utf-8") if payload is not None else None
    )
    request = urllib.request.Request(base_url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestClassifyRoute:
    def test_single_decide(self, base_url):
        status, body = fetch(base_url, "/classify", {"line": [0, 1, 0]})
        assert status == 200 and body["ok"]
        assert body["mode"] == "decide" and body["n"] == 3 and body["span"] == 1
        assert body["report"] == serial_report(line_configuration([0, 1, 0]))

    def test_single_elect(self, base_url):
        cfg = line_configuration([0, 2, 1, 0])
        status, body = fetch(
            base_url, "/classify", {**config_to_json(cfg), "mode": "elect"}
        )
        assert status == 200
        assert body["report"] == serial_report(cfg, "elect")

    def test_tags_as_list(self, base_url):
        status, body = fetch(
            base_url, "/classify", {"edges": [[0, 1], [1, 2]], "tags": [0, 1, 0]}
        )
        assert status == 200
        assert body["report"]["decision"] == "Yes"

    def test_batch_mixed_good_and_bad(self, base_url):
        status, body = fetch(
            base_url,
            "/classify",
            {
                "requests": [
                    {"line": [0, 1, 0], "mode": "elect"},
                    {"edges": [[0, 1], [2, 3]], "tags": [0, 1, 0, 1]},  # disconnected
                    {"line": [0, 1]},
                    {"line": [0, 1, 0], "mode": "vote"},  # unknown mode
                ]
            },
        )
        assert status == 200 and body["ok"]
        ok_flags = [r["ok"] for r in body["responses"]]
        assert ok_flags == [True, False, True, False]
        assert "not connected" in body["responses"][1]["error"]
        assert "vote" in body["responses"][3]["error"]
        assert body["responses"][0]["report"] == serial_report(
            line_configuration([0, 1, 0]), "elect"
        )

    def test_batch_responses_in_request_order(self, base_url):
        lines = [[0, 1, 0], [0, 0], [0, 2, 1], [0, 1, 0]]
        status, body = fetch(
            base_url, "/classify", {"requests": [{"line": ln} for ln in lines]}
        )
        assert status == 200
        got = [r["report"] for r in body["responses"]]
        assert got == [serial_report(line_configuration(ln)) for ln in lines]

    def test_responses_carry_meta_counters(self, base_url):
        """Every successful /classify response ships the classifier's
        cumulative hit/miss/collapse counters under ``meta`` (single and
        batched shapes both), and duplicate traffic shows up there."""
        line = {"line": [0, 2, 1, 0]}
        status, single = fetch(base_url, "/classify", line)
        assert status == 200
        meta = single["meta"]
        assert set(meta) == {"service", "engine", "cache"}
        status, batched = fetch(base_url, "/classify", {"requests": [line] * 4})
        assert status == 200
        meta2 = batched["meta"]
        # four isomorphic duplicates later: submissions grew, the cache
        # entry count did not, and hits/coalescing account for them all
        assert meta2["service"]["submitted"] == meta["service"]["submitted"] + 4
        assert meta2["cache"]["entries"] == meta["cache"]["entries"]
        served = (
            meta2["service"]["fast_hits"]
            + meta2["engine"]["cache_hits"]
            + meta2["engine"]["coalesced"]
        )
        assert served >= 4
        assert meta2["engine"]["classified"] == meta["engine"]["classified"]

    def test_malformed_json_is_400(self, base_url):
        status, body = fetch(base_url, "/classify", raw=b"{nope")
        assert status == 400 and not body["ok"]
        assert "invalid JSON" in body["error"]

    def test_missing_fields_is_400(self, base_url):
        status, body = fetch(base_url, "/classify", {"nodes": 3})
        assert status == 400 and not body["ok"]

    def test_requests_must_be_list(self, base_url):
        status, body = fetch(base_url, "/classify", {"requests": {"line": [0, 1]}})
        assert status == 400 and "list" in body["error"]

    def test_oversized_body_is_413(self, base_url):
        request = urllib.request.Request(
            base_url + "/classify", data=b"x", method="POST"
        )
        request.add_header("Content-Length", str(MAX_BODY_BYTES + 1))
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status, body = resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            status, body = exc.code, json.loads(exc.read())
        assert status == 413 and "exceeds" in body["error"]


class TestOtherRoutes:
    def test_healthz(self, base_url):
        status, body = fetch(base_url, "/healthz")
        assert status == 200 and body["ok"]

    def test_stats_counts_requests(self, base_url):
        fetch(base_url, "/classify", {"line": [0, 1, 0]})
        status, body = fetch(base_url, "/stats")
        assert status == 200 and body["ok"]
        assert body["requests"] >= 1
        assert body["cache_entries"] >= 1
        assert "service:" in body["summary"]

    def test_unknown_route_is_404(self, base_url):
        assert fetch(base_url, "/nope")[0] == 404
        assert fetch(base_url, "/nope", {"line": [0, 1]})[0] == 404


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestWireSchemaProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                configurations(max_n=5, max_span=2),
                st.sampled_from(MODES),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_valid_batches_round_trip_through_http(self, base_url, batch):
        """Arbitrary valid request batches survive encode → HTTP →
        decode unchanged: the JSON encoding round-trips the
        configuration, and every response's report is bit-for-bit the
        serial oracle's answer for that (configuration, mode)."""
        requests = []
        for cfg, mode in batch:
            encoded = config_to_json(cfg)
            # the wire encoding itself is lossless
            assert config_from_json(encoded).normalize() == cfg.normalize()
            requests.append({**encoded, "mode": mode})
        status, body = fetch(base_url, "/classify", {"requests": requests})
        assert status == 200 and body["ok"]
        assert len(body["responses"]) == len(batch)
        for (cfg, mode), response in zip(batch, body["responses"]):
            assert response["ok"], response
            assert response["mode"] == mode
            assert response["report"] == serial_report(cfg, mode)

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=200),
            st.text(max_size=200).map(lambda s: s.encode("utf-8")),
            st.recursive(
                st.one_of(
                    st.none(), st.booleans(), st.integers(), st.text(max_size=8)
                ),
                lambda inner: st.one_of(
                    st.lists(inner, max_size=4),
                    st.dictionaries(st.text(max_size=8), inner, max_size=4),
                ),
                max_leaves=12,
            ).map(lambda obj: json.dumps(obj).encode("utf-8")),
        )
    )
    def test_malformed_bodies_get_structured_400s(self, base_url, raw):
        """Garbage bodies — random bytes, random text, random JSON of
        the wrong shape — always get a *structured* error response:
        never a 500, never a hang, always JSON with an ``ok`` field."""
        status, body = fetch(base_url, "/classify", raw=raw)
        assert status in (200, 400, 413), (status, raw)
        assert "ok" in body
        if status != 200:
            assert body["ok"] is False and body["error"]


def test_cli_serve_parser_defaults():
    """The serve subcommand parses with documented defaults."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0"])
    assert args.func.__name__ == "cmd_serve"
    assert args.host == "127.0.0.1" and args.port == 0
    assert args.max_batch == 64 and args.max_pending == 1024
    assert args.max_connections == 128
    assert args.request_timeout == 30.0
    assert args.drain_timeout == 5.0
