"""The observability layer: spans, schema, registry, census events.

Covers the :mod:`repro.obs` contracts the rest of the repo leans on:
span nesting and exception capture, the closed JSONL event schema
(including a hypothesis round-trip — arbitrary span trees survive
write → parse → summarize), the disabled-mode no-op identity, registry
group parity with the legacy ``as_dict`` surfaces, the census
progress events (``shard.started``/``shard.finished`` once per shard),
and the batched log: when lines are written, a torn final line, and a
traced census drained by forked queue workers.
"""

import json
import os
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.campaigns import CampaignSpec, distributed_campaign
from repro.engine.cache import ResultCache
from repro.engine.pipeline import distributed_census, sharded_census
from repro.engine.workloads import RandomGnpWorkload
from repro.obs.events import (
    EventSchemaError,
    read_events,
    validate_event,
    validate_events,
)
from repro.obs.tracing import _SPAN_STACK, NOOP_SPAN, WRITE_BATCH, Tracer
from repro.obs.summary import summarize_events, summarize_file

from conftest import random_config_batch


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with tracing off, a bare registry and
    no live span (a test that enters a span without exiting it would
    otherwise parent the next test's root spans)."""
    obs.disable()
    obs.registry.reset()
    token = _SPAN_STACK.set(())
    yield
    _SPAN_STACK.reset(token)
    obs.disable()
    obs.registry.reset()


# ----------------------------------------------------------------------
# spans: nesting, counters, exception capture
# ----------------------------------------------------------------------
def test_span_nesting_builds_a_tree():
    tracer = obs.enable()
    with obs.span("outer", kind="test") as outer:
        with obs.span("inner") as inner:
            inner.add("items", 3)
            inner.add("items", 2)
        with obs.span("sibling"):
            pass
    obs.disable()
    root, = summarize_events(tracer.events).roots
    assert root.name == "outer"
    assert [c.name for c in root.children] == ["inner", "sibling"]
    assert inner.parent_id == outer.span_id
    assert inner.counters == {"items": 5}
    assert outer.status == inner.status == "ok"
    assert outer.duration >= inner.duration >= 0.0


def test_span_exception_capture_and_propagation():
    tracer = obs.enable()
    with pytest.raises(ValueError, match="boom"):
        with obs.span("outer"):
            with obs.span("failing"):
                raise ValueError("boom")
    obs.disable()
    outer, = summarize_events(tracer.events).roots
    failing, = outer.children
    assert failing.status == "error"
    assert failing.error == "ValueError: boom"
    # the exception propagated *through* the outer span too
    assert outer.status == "error"
    ends = [e for e in tracer.events if e["kind"] == "span.end"]
    assert [e["status"] for e in ends] == ["error", "error"]
    assert ends[0]["error"] == "ValueError: boom"


def test_closed_spans_leave_no_objects_behind():
    """With the event list off, a tracer's memory does not grow with the
    spans it has closed: each lives on only as its logged events."""
    import tracemalloc

    tracer = Tracer(max_events=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20_000):
            with tracer.span("work"):
                pass
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        tracer.close()
    assert tracer.span_count == 20_000
    assert grown < 1_000_000, grown


def test_events_attach_to_the_enclosing_span():
    tracer = obs.enable()
    obs.event("orphan")
    with obs.span("work") as sp:
        obs.event("progress", step=1)
    obs.disable()
    orphan, progress = (e for e in tracer.events if e["kind"] == "event")
    assert orphan["span"] is None
    assert progress["span"] == sp.span_id
    assert progress["attrs"] == {"step": 1}


def test_rich_attrs_are_stringified_to_scalars(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.enable(trace_path=str(path))
    with obs.span("work", payload=[1, 2], who={"a": 1}, ok=True):
        pass
    obs.disable()
    start = next(
        e for e in read_events(str(path)) if e["kind"] == "span.start"
    )
    assert start["attrs"] == {"payload": "[1, 2]", "who": "{'a': 1}", "ok": True}


# ----------------------------------------------------------------------
# disabled mode: the no-op identity
# ----------------------------------------------------------------------
def test_disabled_span_is_the_shared_noop():
    assert not obs.STATE.enabled
    sp = obs.span("anything", attr=1)
    assert sp is NOOP_SPAN
    with sp as inner:
        inner.add("ignored", 99)
    assert sp.duration is None and sp.span_id is None and sp.status is None
    obs.event("ignored", x=1)  # no tracer: must be a silent no-op
    assert obs.current_span_id() is None


def test_disabled_noop_span_propagates_exceptions():
    with pytest.raises(RuntimeError):
        with obs.span("anything"):
            raise RuntimeError("must not be swallowed")


# ----------------------------------------------------------------------
# schema: validation is closed; hypothesis round-trip
# ----------------------------------------------------------------------
def test_validate_event_rejects_unknown_fields():
    ok = {"run": "r", "seq": 0, "ts": 0.0, "kind": "event",
          "name": "x", "span": None}
    assert validate_event(dict(ok)) == ok
    with pytest.raises(EventSchemaError, match="unknown field"):
        validate_event({**ok, "extra": 1})
    with pytest.raises(EventSchemaError, match="unknown event kind"):
        validate_event({**ok, "kind": "mystery"})
    with pytest.raises(EventSchemaError, match="missing field"):
        validate_event({"run": "r", "seq": 0, "ts": 0.0, "kind": "event",
                        "name": "x"})
    with pytest.raises(EventSchemaError, match="JSON scalars"):
        validate_event({**ok, "attrs": {"bad": [1, 2]}})


_names = st.sampled_from(
    ["census.run", "census.shard", "engine.batch", "op", "a.b.c"]
)
_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
_attrs = st.dictionaries(st.text(min_size=1, max_size=6), _scalars, max_size=3)
_span_trees = st.recursive(
    st.fixed_dictionaries(
        {"name": _names, "attrs": _attrs, "children": st.just(())}
    ),
    lambda children: st.fixed_dictionaries(
        {
            "name": _names,
            "attrs": _attrs,
            "children": st.lists(children, max_size=3).map(tuple),
        }
    ),
    max_leaves=12,
)


def _execute(tracer, node):
    """Replay one generated tree through real spans; returns span count."""
    count = 1
    with tracer.span(node["name"], **node["attrs"]) as sp:
        sp.add("visits")
        for child in node["children"]:
            count += _execute(tracer, child)
    return count


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(forest=st.lists(_span_trees, min_size=1, max_size=3))
def test_arbitrary_span_trees_round_trip_through_the_log(tmp_path, forest):
    """Write → parse (validated) → summarize preserves the whole forest."""
    path = tmp_path / "roundtrip.jsonl"
    path.unlink(missing_ok=True)
    tracer = Tracer(path=str(path))
    expected = sum(_execute(tracer, tree) for tree in forest)
    tracer.event("done", trees=len(forest))
    tracer.close()

    events = read_events(str(path), validate=True)  # every line validates
    assert validate_events(events) == len(events)
    assert [e["seq"] for e in events] == list(range(len(events)))

    summary = summarize_events(events)
    assert summary.run_id == tracer.run_id
    assert summary.schema == 1
    assert summary.span_total == expected == tracer.span_count
    assert summary.event_total == 1
    assert len(summary.roots) == len(forest)
    assert [r.name for r in summary.roots] == [t["name"] for t in forest]
    # every span closed: durations known, hotspot counts add up
    assert all(n.duration is not None for n in summary.spans.values())
    assert sum(r["count"] for r in summary.hotspots) == expected
    assert summary.total_duration is not None
    summary.render()  # must not raise on any generated shape


def test_summarizer_tolerates_unclosed_spans(tmp_path):
    path = tmp_path / "crash.jsonl"
    tracer = Tracer(path=str(path))
    span = tracer.span("never.closed")
    span.__enter__()  # crash before exit: no span.end, no run.end
    tracer._fh.close()
    tracer._fh = None
    summary = summarize_file(str(path))
    assert summary.span_total == 1
    assert summary.spans[span.span_id].duration is None
    assert "?" in summary.render()


# ----------------------------------------------------------------------
# registry: groups mirror the legacy as_dict surfaces
# ----------------------------------------------------------------------
def test_registry_groups_equal_legacy_stats_dicts(tmp_path):
    cfgs = random_config_batch(24, base_seed=7)
    cache = ResultCache()
    run = sharded_census(cfgs, num_shards=3, cache=cache)
    obs.registry.register_group("engine", run.stats.as_dict)
    obs.registry.register_group("cache", cache.stats.as_dict)
    snap = obs.snapshot()
    assert snap["groups"]["engine"] == run.stats.as_dict()
    assert snap["groups"]["cache"] == cache.stats.as_dict()
    # groups are live providers, not frozen copies
    cache.stats.hits += 1
    assert obs.snapshot()["groups"]["cache"] == cache.stats.as_dict()
    text = obs.render_prometheus()
    assert "repro_engine_classified" in text
    assert "repro_cache_hits" in text


def test_registry_counters_and_heartbeats():
    obs.registry.inc("x.calls")
    obs.registry.inc("x.calls", 4)
    obs.registry.heartbeat("loop")
    # labeled counters: two label sets of one family
    obs.registry.counter("x.responses", code=200).inc(2)
    obs.registry.counter("x.responses", code=400).inc()
    snap = obs.snapshot()
    assert snap["counters"] == {
        "x.calls": 5,
        'x.responses{code="200"}': 2,
        'x.responses{code="400"}': 1,
    }
    assert snap["heartbeats"]["loop"] >= 0.0
    text = obs.render_prometheus()
    assert "repro_obs_x_calls_total 5" in text
    assert 'repro_obs_heartbeat_age_seconds{name="loop"}' in text
    assert text.count("# TYPE repro_obs_x_responses_total counter") == 1
    assert 'repro_obs_x_responses_total{code="200"} 2\n' in text
    assert 'repro_obs_x_responses_total{code="400"} 1\n' in text


def test_registry_loads_no_service_module():
    """The registry is the Prometheus encoder on its own: using every
    instrument and both exports in a fresh process imports no
    ``repro.service`` module."""
    code = (
        "import sys\n"
        "from repro.obs import MetricsRegistry, parse_prometheus_text\n"
        "r = MetricsRegistry()\n"
        "r.register_group('g', lambda: {'a': 1})\n"
        "r.inc('c')\n"
        "r.heartbeat('h')\n"
        "r.observe('lat', 0.01)\n"
        "parse_prometheus_text(r.render_prometheus())\n"
        "r.snapshot()\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    ).stdout
    assert out.strip() == "[]"


# ----------------------------------------------------------------------
# census progress events: each shard starts and finishes once
# ----------------------------------------------------------------------
def test_census_emits_shard_started_and_finished(tmp_path):
    cfgs = random_config_batch(18, base_seed=11)
    tracer = obs.enable(trace_path=str(tmp_path / "census.jsonl"))
    sharded_census(cfgs, num_shards=3, cache=ResultCache())
    obs.disable()
    names = [e["name"] for e in tracer.events if e["kind"] == "event"]
    assert names.count("shard.started") == 3
    assert names.count("shard.finished") == 3


def test_traced_census_summary_has_shard_rows(tmp_path):
    path = tmp_path / "census.jsonl"
    obs.enable(trace_path=str(path))
    sharded_census(
        random_config_batch(16, base_seed=3), num_shards=4,
        cache=ResultCache(),
    )
    obs.disable()
    summary = summarize_file(str(path))
    assert len(summary.shard_rows) == 4
    for row in summary.shard_rows:
        assert row["status"] == "finished"
        assert row["wall"] >= 0.0
        assert 0.0 <= row["hit_rate"] <= 1.0
    rendered = summary.render()
    assert "census shards" in rendered and "hit rate" in rendered
    # hot-path counters landed in the process registry
    counters = obs.snapshot()["counters"]
    assert counters["census.runs"] == 1
    assert counters["engine.batches"] == 4
    assert counters["engine.items"] == 16


def test_trace_events_survive_json_reload(tmp_path):
    """The on-disk lines equal the in-memory event list, byte-for-value."""
    path = tmp_path / "t.jsonl"
    tracer = obs.enable(trace_path=str(path))
    with obs.span("a", n=1):
        obs.event("tick")
    obs.disable()
    on_disk = [json.loads(line) for line in path.read_text().splitlines()]
    assert on_disk == tracer.events


# ----------------------------------------------------------------------
# batched writes: when lines reach the log, and what a crash leaves
# ----------------------------------------------------------------------
def test_events_are_written_at_root_span_start_and_close(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = obs.enable(trace_path=str(path))
    with obs.span("root"):
        on_disk = read_events(str(path))  # written when the root started
        assert [e["kind"] for e in on_disk] == ["run.start", "span.start"]
        with obs.span("child"):
            obs.event("tick")
    assert len(read_events(str(path))) == 2  # nothing written at root end
    obs.disable()
    assert read_events(str(path)) == tracer.events


def test_pending_events_are_written_in_batches(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = obs.enable(trace_path=str(path))
    with obs.span("root"):
        for i in range(WRITE_BATCH):
            obs.event("tick", i=i)
        assert len(read_events(str(path))) >= WRITE_BATCH
    obs.disable()
    assert read_events(str(path)) == tracer.events


def test_torn_final_trace_line_is_skipped(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.enable(trace_path=str(path))
    with obs.span("work"):
        obs.event("tick")
    obs.disable()
    whole = read_events(str(path), validate=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "span.start", "run": "ab')  # crash mid-write
    assert read_events(str(path), validate=True) == whole
    summary = summarize_file(str(path))
    assert summary.span_total == 1 and "work" in summary.render()


def test_appending_after_a_torn_line_keeps_every_whole_line(tmp_path):
    """The log is shared: a writer that died mid-batch leaves a torn line
    that the next batch, from this run or a later one, ends and marks."""
    path = tmp_path / "t.jsonl"
    first = obs.enable(trace_path=str(path))
    with obs.span("a"):
        pass
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "event", "run": "ab')  # a forked worker killed
    with obs.span("b"):
        obs.event("tick")
    obs.disable()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "span.end", "dur": 0.')  # a whole run killed
    second = obs.enable(trace_path=str(path))
    with obs.span("c"):
        pass
    obs.disable()
    assert read_events(str(path), validate=True) == first.events + second.events


def test_tracer_writes_to_a_pipe(tmp_path):
    """The log need not be seekable: ``--trace`` may name a FIFO."""
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    lines, opened = [], threading.Event()

    def read():
        with open(fifo, encoding="utf-8") as fh:
            opened.set()
            lines.extend(fh)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    tracer = Tracer(path=str(fifo))
    assert opened.wait(10)
    with tracer.span("work"):
        tracer.event("tick")
    tracer.close()
    reader.join(10)
    assert [json.loads(line) for line in lines] == tracer.events


@pytest.mark.parametrize("where", ["middle", "final line with newline"])
def test_malformed_trace_line_elsewhere_still_raises(tmp_path, where):
    path = tmp_path / "t.jsonl"
    obs.enable(trace_path=str(path))
    with obs.span("work"):
        pass
    obs.disable()
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if where == "middle":
        lines.insert(1, '{"kind": "span.start", "run": "ab\n')
    else:
        lines.append('{"kind": "span.start", "run": "ab\n')
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(EventSchemaError, match="not valid JSON"):
        read_events(str(path))


def test_traced_distributed_census_writes_each_event_once(tmp_path):
    """Forked queue workers write their own events, never the parent's
    pending ones, and every pending event is on disk by ``disable()``."""
    path = tmp_path / "t.jsonl"
    tracer = obs.enable(trace_path=str(path))
    obs.event("before.fork")  # pending in the parent when it forks
    run = distributed_census(
        RandomGnpWorkload([5, 6], span=2, p=0.3, samples=6, seed=3),
        str(tmp_path / "census.sqlite"),
        num_workers=2,
        num_shards=4,
    )
    obs.disable()
    assert run.stats.total_configs == 12
    events = read_events(str(path), validate=True)
    kinds = Counter(e["kind"] for e in events)
    assert kinds["run.start"] == kinds["run.end"] == 1
    assert kinds["span.start"] == kinds["span.end"] > 0
    shard_ends = [
        e for e in events if e["kind"] == "span.end" and e["name"] == "census.shard"
    ]
    assert len(shard_ends) == 4  # every worker wrote its shards
    assert [e for e in events if e["name"] == "before.fork"] == [
        e for e in tracer.events if e["name"] == "before.fork"
    ]
    assert all(e in events for e in tracer.events)  # the parent's, all written


def test_traced_distributed_campaign_writes_each_event_once(tmp_path):
    """The campaign queue worker writes its events before it returns."""
    spec = CampaignSpec(
        name="traced", seed=7, trials=12, n_values=(4, 5), span=2,
        strategies=({"strategy": "none", "weight": 1.0},),
    )
    path = tmp_path / "t.jsonl"
    obs.enable(trace_path=str(path))
    run = distributed_campaign(
        spec, str(tmp_path / "campaign.sqlite"), num_workers=2, num_shards=4
    )
    obs.disable()
    assert len(run.results) == 12
    events = read_events(str(path), validate=True)
    kinds = Counter(e["kind"] for e in events)
    assert kinds["run.start"] == kinds["run.end"] == 1
    assert kinds["span.start"] == kinds["span.end"] > 0
    shard_ends = [
        e for e in events if e["kind"] == "span.end" and e["name"] == "campaign.shard"
    ]
    assert len(shard_ends) == 4
