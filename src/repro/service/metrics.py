"""Observability for the serving layer: Prometheus text exposition.

The async HTTP server (:mod:`repro.service.server`) exports its
accounting at ``GET /metrics`` in the Prometheus text format
(``text/plain; version=0.0.4``), so any scraper — Prometheus itself,
``curl`` + ``grep``, or the E25 load benchmark — can watch the service
without parsing log lines. Three groups of series are exported:

* **Classifier counters** — the existing
  :class:`~repro.service.batcher.ServiceStats` /
  :class:`~repro.engine.pipeline.EngineStats` /
  :class:`~repro.engine.cache.CacheStats` counters, exposed verbatim
  (value for value with their ``as_dict()`` payloads) under
  ``repro_service_*``, ``repro_engine_*`` and ``repro_cache_*``.
* **HTTP counters** — requests served, split by status code, plus
  admission rejections and connection-limit rejections.
* **Histograms** — request latency (``repro_http_request_latency_
  seconds``) observed once per HTTP request, and classification batch
  size (``repro_service_batch_size``) observed once per dispatcher
  batch via the :class:`~repro.service.batcher.BatchClassifier`
  ``on_batch`` hook. Bucket counts are cumulative (standard Prometheus
  ``le`` semantics) and always sum to ``_count``.

Everything here is stdlib-only and loop-agnostic: observations are
single ``int``/``float`` updates, all made on the one event loop the
server and the dispatcher share, and rendering takes a
consistent-enough snapshot for monitoring purposes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Content-Type of the ``/metrics`` exposition.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default request-latency buckets (seconds) — tuned for an in-process
#: classifier: sub-millisecond warm hits up to multi-second cold elects.
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default batch-size buckets — powers of two up to the usual
#: ``max_batch`` ceiling.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _format_value(value: object) -> str:
    """Render one sample value the Prometheus way (ints stay ints)."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class Histogram:
    """A fixed-bucket Prometheus histogram (cumulative ``le`` buckets).

    ``observe`` is O(#buckets); ``render`` emits the standard
    ``_bucket``/``_sum``/``_count`` series including the ``+Inf``
    bucket. Not a general metrics client — exactly what the service
    needs and nothing more.
    """

    def __init__(
        self, name: str, help_text: str, buckets: Sequence[float]
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help_text = help_text
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (per-bucket counts stay non-cumulative
        internally; rendering accumulates them)."""
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def render(self) -> List[str]:
        """The exposition lines for this histogram."""
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} histogram",
        ]
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_format_value(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


def render_gauge_group(
    prefix: str, counters: Dict[str, object], help_text: str
) -> List[str]:
    """Expose a flat ``as_dict()``-style counter dict as gauges.

    Each key becomes ``<prefix>_<key>`` carrying exactly the dict's
    value — the bit-for-bit bridge between ``/metrics`` and the
    ``ServiceStats``/``EngineStats``/``CacheStats`` accounting (pinned
    by ``tests/test_service_metrics.py``).
    """
    lines: List[str] = []
    for key, value in counters.items():
        name = f"{prefix}_{key}"
        lines.append(f"# HELP {name} {help_text} ({key})")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")
    return lines


class ServiceMetrics:
    """The server's metric registry: HTTP counters plus two histograms.

    One instance lives on each
    :class:`~repro.service.server.ClassificationServer`; the server
    calls :meth:`observe_request` once per HTTP request (any route) and
    wires :meth:`observe_batch` into the classifier's ``on_batch``
    hook, so batch sizes are recorded no matter which client path
    (HTTP or library) filled the batch.
    """

    def __init__(
        self,
        latency_buckets: Sequence[float] = LATENCY_BUCKETS,
        batch_buckets: Sequence[float] = BATCH_SIZE_BUCKETS,
    ) -> None:
        self.request_latency = Histogram(
            "repro_http_request_latency_seconds",
            "Wall time from request head parsed to response written.",
            latency_buckets,
        )
        self.batch_size = Histogram(
            "repro_service_batch_size",
            "Items per dispatcher classification batch.",
            batch_buckets,
        )
        self.requests_total = 0
        self.responses_by_status: Dict[int, int] = {}
        self.rejected_saturated = 0  #: 429s issued by admission control
        self.rejected_connections = 0  #: connections refused at the cap
        self.deadline_hits = 0  #: requests that hit the per-request deadline

    def observe_request(self, status: int, seconds: float) -> None:
        """Record one completed HTTP request (called before the response
        bytes go out, so a ``/metrics`` scrape counts itself)."""
        self.requests_total += 1
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        self.request_latency.observe(seconds)
        if status == 429:
            self.rejected_saturated += 1

    def observe_batch(self, size: int) -> None:
        """Record one dispatcher batch (the classifier's ``on_batch``
        hook points here)."""
        self.batch_size.observe(float(size))

    def render(self, classifier_meta: Optional[Dict] = None) -> str:
        """The full ``/metrics`` payload.

        ``classifier_meta`` is
        :meth:`~repro.service.batcher.BatchClassifier.meta` — the
        nested ``service``/``engine``/``cache`` counter groups; when
        given, each group is exposed verbatim as gauges.
        """
        lines: List[str] = []
        if classifier_meta:
            groups = (
                ("repro_service", "service", "Batch classifier counter"),
                ("repro_engine", "engine", "Census engine counter"),
                ("repro_cache", "cache", "Result cache counter"),
            )
            for prefix, group, help_text in groups:
                counters = classifier_meta.get(group, {})
                lines.extend(render_gauge_group(prefix, counters, help_text))
        lines.append(
            "# HELP repro_http_requests_total HTTP requests handled "
            "(all routes)."
        )
        lines.append("# TYPE repro_http_requests_total counter")
        lines.append(f"repro_http_requests_total {self.requests_total}")
        lines.append(
            "# HELP repro_http_responses_total HTTP responses by status code."
        )
        lines.append("# TYPE repro_http_responses_total counter")
        for status in sorted(self.responses_by_status):
            lines.append(
                f'repro_http_responses_total{{code="{status}"}} '
                f"{self.responses_by_status[status]}"
            )
        for name, value in (
            ("repro_http_rejected_saturated_total", self.rejected_saturated),
            ("repro_http_rejected_connections_total", self.rejected_connections),
            ("repro_http_deadline_hits_total", self.deadline_hits),
        ):
            lines.append(f"# HELP {name} Admission/limit rejection counter.")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        lines.extend(self.request_latency.render())
        lines.extend(self.batch_size.render())
        return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a Prometheus text exposition into ``{series: value}``.

    The key is the sample name including its label set verbatim
    (e.g. ``repro_http_responses_total{code="200"}``). Comment and
    blank lines are skipped; malformed sample lines raise
    ``ValueError``. This is the reading half of :meth:`ServiceMetrics.
    render` — handy for tests and for the E25 benchmark, not a full
    client library.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"malformed metrics line: {line!r}")
        out[name] = float(value)
    return out
