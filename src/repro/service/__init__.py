"""Batch classification service: serve ``decide``/``elect`` at scale.

The service layer turns the library's one-shot entry points into a
request-serving system. Many :class:`~repro.core.configuration.
Configuration` requests — submitted from threads, HTTP connections, or a
tight loop — are coalesced up to tag-preserving isomorphism
(:mod:`repro.engine.keys`), answered from the census engine's
canonical-form cache when warm, and classified in bounded batches
through the engine's batch-lookup hook when cold. Responses are
bit-for-bit equal to serial :func:`repro.core.feasibility.decide` /
``elect`` reports, independent of batching, caching, and concurrency.

Three modules:

* :mod:`repro.service.schema` — the JSON wire format (requests,
  responses, the serial-reference oracle);
* :mod:`repro.service.batcher` — the asyncio batch core (bounded queue,
  backpressure, coalescing) behind the sync
  :class:`~repro.service.batcher.BatchClassifier` facade;
* :mod:`repro.service.server` — the pure-asyncio HTTP endpoint behind
  ``repro-radio serve`` (connection limits, per-request deadlines,
  429 admission control, graceful drain, ``GET /metrics`` rendered from
  :class:`repro.obs.MetricsRegistry`).

Quickstart::

    >>> from repro import Configuration
    >>> from repro.service import BatchClassifier
    >>> with BatchClassifier() as svc:
    ...     t = svc.submit(Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0}))
    ...     t.report()
    {'feasible': True, 'decision': 'Yes', 'iterations': 1}

See ``docs/service.md`` for the wire format and batching semantics, and
``docs/api.md`` for the curated API reference.
"""

from ..obs.registry import METRICS_CONTENT_TYPE, parse_prometheus_text
from .batcher import (
    BatchClassifier,
    ServiceClosedError,
    ServiceSaturatedError,
    ServiceStats,
    ServiceUnresponsiveError,
    Ticket,
)
from .schema import (
    MODES,
    RequestError,
    ServiceRequest,
    config_from_json,
    config_to_json,
    error_response,
    parse_request,
    record_to_report,
    requests_from_body,
    response_for,
    serial_report,
)
from .server import (
    MAX_BODY_BYTES,
    ClassificationServer,
    make_server,
    run_server,
    serve,
)

__all__ = [
    "BatchClassifier",
    "ClassificationServer",
    "MAX_BODY_BYTES",
    "METRICS_CONTENT_TYPE",
    "MODES",
    "RequestError",
    "ServiceClosedError",
    "ServiceRequest",
    "ServiceSaturatedError",
    "ServiceStats",
    "ServiceUnresponsiveError",
    "Ticket",
    "config_from_json",
    "config_to_json",
    "error_response",
    "make_server",
    "parse_prometheus_text",
    "parse_request",
    "record_to_report",
    "requests_from_body",
    "response_for",
    "run_server",
    "serial_report",
    "serve",
]
