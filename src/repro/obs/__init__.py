"""Unified tracing + runtime telemetry for the whole stack.

``repro.obs`` is the repo's zero-dependency observability layer:
hierarchical trace spans with a validated JSONL run-event log
(:mod:`~repro.obs.tracing`, :mod:`~repro.obs.events`), the
counter/histogram registry that absorbs the legacy per-component
stats surfaces and is the repo's one Prometheus text encoder and
reader (:mod:`~repro.obs.registry`; the server's ``/metrics`` is two
registries rendered), and a span-tree/hotspot summarizer
behind ``repro-radio trace summarize`` (:mod:`~repro.obs.summary`).

Design rule: **disabled is the default and costs one attribute
check** — instrumented hot paths guard on ``STATE.enabled``
(:mod:`~repro.obs.runtime`), and ``benchmarks/bench_e26_obs_overhead.py``
gates the overhead both ways (disabled within 5% of pre-instrumentation
wall time, enabled tracing ≤ 15%). See ``docs/observability.md`` for
the event schema and span naming conventions.
"""

from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EventSchemaError,
    iter_events,
    read_events,
    sanitize_attrs,
    validate_event,
    validate_events,
)
from .registry import (
    METRICS_CONTENT_TYPE,
    Counter,
    MetricsRegistry,
    parse_prometheus_text,
)
from .runtime import (
    STATE,
    ObsState,
    current_span_id,
    disable,
    enable,
    event,
    flush,
    registry,
    render_prometheus,
    snapshot,
    span,
)
from .summary import (
    SpanNode,
    TraceSummary,
    summarize_events,
    summarize_file,
)
from .tracing import NOOP_SPAN, Span, Tracer

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "EventSchemaError",
    "Counter",
    "METRICS_CONTENT_TYPE",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ObsState",
    "STATE",
    "Span",
    "SpanNode",
    "TraceSummary",
    "Tracer",
    "current_span_id",
    "disable",
    "enable",
    "event",
    "flush",
    "iter_events",
    "parse_prometheus_text",
    "read_events",
    "registry",
    "render_prometheus",
    "sanitize_attrs",
    "snapshot",
    "span",
    "summarize_events",
    "summarize_file",
    "validate_event",
    "validate_events",
]
