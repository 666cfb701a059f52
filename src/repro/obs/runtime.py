"""Process-wide observability state: the one-attribute-check fast path.

Hot paths are instrumented like this::

    from ..obs.runtime import STATE as _OBS
    ...
    if _OBS.enabled:
        _OBS.tracer.event("shard.finished", shard=i)

Disabled (the default), the guard costs one attribute load on a
slotted singleton — the E26 benchmark proves the whole census pipeline
stays within 5% of its pre-instrumentation wall time. For spans, the
convenience :func:`span` returns the shared
:data:`~repro.obs.tracing.NOOP_SPAN` when disabled so ``with
obs.span(...)`` reads identically either way.

The module also owns the process-wide :data:`registry`
(:class:`~repro.obs.registry.MetricsRegistry`). Low-frequency
instruments (dispatcher heartbeats, cancelled-ticket counts) write to
it unconditionally — that is how they reach ``/metrics`` without the
tracer being on; only per-item hot-path counters hide behind the
enabled guard.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .registry import MetricsRegistry
from .tracing import NOOP_SPAN, Tracer


class ObsState:
    """The global enabled flag plus the active tracer (slotted: the
    disabled-path guard is a single attribute load)."""

    __slots__ = ("enabled", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Optional[Tracer] = None


#: The singleton instrumented call sites check.
STATE = ObsState()

#: The process-wide metrics registry (always live, even when tracing
#: is off — the server and ``census --stats-json`` read it directly).
registry = MetricsRegistry()


def enable(
    trace_path: Optional[str] = None, run_id: Optional[str] = None
) -> Tracer:
    """Turn tracing on, returning the new active :class:`Tracer`.

    ``trace_path`` appends the run's JSONL event log there
    (``--trace PATH``); without it the run is in-memory only
    (``--obs`` / ``--profile``). An already-active tracer is closed
    first, so re-enabling is safe.
    """
    if STATE.tracer is not None:
        STATE.tracer.close()
    STATE.tracer = Tracer(path=trace_path, run_id=run_id)
    STATE.enabled = True
    return STATE.tracer


def disable() -> Optional[Tracer]:
    """Turn tracing off; returns the closed tracer (for summaries).

    The returned tracer's in-memory tree and event list stay readable —
    ``classify --profile`` and ``trace summarize`` of a live run use
    exactly this.
    """
    tracer, STATE.tracer = STATE.tracer, None
    STATE.enabled = False
    if tracer is not None:
        tracer.close()
    return tracer


def flush() -> None:
    """Write the active tracer's pending events to its log now.

    It runs before every ``os.fork``, so a forked child starts with
    nothing pending and never writes its parent's events. Queue workers
    call it before returning, because a forked worker exits without
    closing the tracer.
    """
    tracer = STATE.tracer
    if tracer is not None:
        tracer.flush()


os.register_at_fork(before=flush)


def span(name: str, /, **attrs):
    """A span under the active tracer — or :data:`NOOP_SPAN` when off.

    ``name`` is positional-only, so ``attrs`` may carry a key called
    ``name``. The instrumentation idiom for timed regions::

        with obs.span("census.shard", shard=i) as sp:
            ...
            sp.add("rows", len(rows))
    """
    if STATE.enabled:
        return STATE.tracer.span(name, **attrs)
    return NOOP_SPAN


def event(name: str, /, **attrs) -> None:
    """Emit a point-in-time event (no-op while tracing is off)."""
    if STATE.enabled:
        STATE.tracer.event(name, **attrs)


def current_span_id() -> Optional[int]:
    """The innermost live span's id for this task, or None.

    The serving layer stamps this into its structured request logs so
    log lines correlate to trace spans.
    """
    if not STATE.enabled:
        return None
    from .tracing import _SPAN_STACK

    stack = _SPAN_STACK.get()
    return stack[-1].span_id if stack else None


def snapshot() -> Dict:
    """The process registry's full snapshot (see
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot`)."""
    return registry.snapshot()


def render_prometheus() -> str:
    """The process registry as Prometheus text (see
    :meth:`~repro.obs.registry.MetricsRegistry.render_prometheus`)."""
    return registry.render_prometheus()
