"""Hierarchical trace spans and the JSONL run-event tracer.

A :class:`Span` is a context manager: entering it records the start,
exiting records wall time, span-local counters, and — when the body
raised — the exception (``status: "error"`` plus a one-line ``error``
string; the exception always propagates). Nesting is tracked through a
:class:`contextvars.ContextVar` holding an *immutable* span tuple, so
parent ids are correct per ``asyncio`` task as well as per thread — the
serving layer opens request spans on the event-loop thread where a
``threading.local`` stack would interleave concurrent connections.

A :class:`Tracer` owns one *run*: a random run id, a monotonic clock
zeroed at construction, a strictly increasing sequence number, a capped
in-memory event list for same-process summaries, and (optionally) an
append-only JSONL event log following :mod:`repro.obs.events`'
validated schema, written in batches of whole lines. It keeps no span
objects: a closed span lives on only as its events. Instrumented
call sites never touch these classes directly — they go through
:mod:`repro.obs.runtime`, whose disabled fast path hands out the
shared :data:`NOOP_SPAN` at the cost of a single attribute check.
"""

from __future__ import annotations

import contextvars
import json
import os
import secrets
import threading
import time
from typing import Dict, List, Optional, TextIO

from .events import EVENT_SCHEMA_VERSION, sanitize_attrs

#: In-memory event-list cap per run; beyond it events still go to the
#: JSONL log but only a drop counter is kept in memory.
DEFAULT_MAX_EVENTS = 100_000

#: Pending events that trigger writing them to the log as one batch.
WRITE_BATCH = 1_000

_ENCODER = json.JSONEncoder(sort_keys=True)

_SPAN_STACK: "contextvars.ContextVar[tuple]" = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


class Span:
    """One timed, nested unit of work (use as a context manager).

    Created by :meth:`Tracer.span`; ``with tracer.span("census.shard",
    shard=3) as sp:`` assigns the span an id and a parent (the
    innermost live span of the current task, if any), emits
    ``span.start``, and on exit emits ``span.end`` carrying duration,
    status, span-local counters, and the stringified exception when the
    body raised. Exceptions are never swallowed.
    """

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id",
        "start", "duration", "status", "error", "counters", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = sanitize_attrs(attrs)
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start: Optional[float] = None
        self.duration: Optional[float] = None
        self.status: Optional[str] = None
        self.error: Optional[str] = None
        self.counters: Dict[str, float] = {}
        self._token = None

    def add(self, counter: str, n: float = 1) -> None:
        """Bump a span-local counter (lands in this span's ``span.end``)."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def __enter__(self) -> "Span":
        """Open the span: assign ids, push onto the task-local stack."""
        stack = _SPAN_STACK.get()
        parent = stack[-1] if stack else None
        self.parent_id = parent.span_id if parent is not None else None
        self.tracer._open(self, parent)
        self._token = _SPAN_STACK.set(stack + (self,))
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span: record duration/status, pop the stack."""
        self.duration = time.perf_counter() - self.start
        if exc_type is None:
            self.status = "ok"
        else:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        _SPAN_STACK.reset(self._token)
        self.tracer._close(self)
        return False


class _NoopSpan:
    """The disabled-mode span: every operation is a cheap no-op.

    A single shared instance (:data:`NOOP_SPAN`) is handed to every
    call site while tracing is off, so instrumented code runs the same
    ``with`` statement either way.
    """

    __slots__ = ()

    #: Mirrors :class:`Span` so duration reads are safe either way.
    duration = None
    span_id = None
    status = None

    def add(self, counter: str, n: float = 1) -> None:
        """Discard the counter bump."""

    def __enter__(self) -> "_NoopSpan":
        """Return self; nothing is recorded."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Propagate any exception; nothing is recorded."""
        return False


#: The shared disabled-mode span.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """One traced run: id, clock, event list, and optional JSONL log.

    ``path=None`` keeps the run purely in memory (``classify
    --profile`` works this way). With a path, events are appended as
    whole JSON lines, one ``write`` + ``flush`` per batch: when a root
    span starts, once :data:`WRITE_BATCH` are pending, on
    :meth:`flush`, and at :meth:`close`. A crashed run therefore leaves
    a parseable log that lacks only its unwritten tail. All
    bookkeeping happens under one lock. The E26 benchmark bounds the
    cost paid inside a traced run at ≤ 15%: building each event, and
    writing the batches that fall inside it.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        run_id: Optional[str] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.run_id = run_id or secrets.token_hex(8)
        self.path = path
        self.t0 = time.perf_counter()
        self.max_events = max_events
        self.events: "List[Dict]" = []
        self.dropped_events = 0
        self.span_count = 0
        self.event_count = 0
        self.closed = False
        self._seq = 0
        self._next_span_id = 1
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = None
        self._pending: "List[Dict]" = []  # emitted, not yet in the log
        if path is not None:
            # opened for reading too, so _write can read the last byte
            fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            self._fh = os.fdopen(fd, "a", encoding="utf-8")
        self._emit(
            "run.start", name="run", extra={"schema": EVENT_SCHEMA_VERSION}
        )

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit(
        self, kind: str, name: str, extra: Dict, write: bool = False
    ) -> None:
        with self._lock:
            obj = {
                "run": self.run_id,
                "seq": self._seq,
                "ts": round(time.perf_counter() - self.t0, 6),
                "kind": kind,
                "name": name,
            }
            obj.update(extra)
            self._seq += 1
            if len(self.events) < self.max_events:
                self.events.append(obj)
            else:
                self.dropped_events += 1
            if self._fh is not None:
                self._pending.append(obj)
                if write or len(self._pending) >= WRITE_BATCH:
                    self._write()

    def _write(self) -> None:
        """Append the pending events to the log as whole lines, in one
        write (lock held).

        The log is shared by forked workers and later runs, so it may
        end in a line another writer left torn. The batch then starts
        with a newline that ends that line and a blank line that marks
        it torn, which :func:`~repro.obs.events.iter_events` skips.
        """
        if not self._pending:
            return
        text = "".join([_ENCODER.encode(obj) + "\n" for obj in self._pending])
        self._pending = []
        fd = self._fh.fileno()
        end = os.fstat(fd).st_size
        if end and os.pread(fd, 1, end - 1) != b"\n":
            text = "\n\n" + text
        self._fh.write(text)
        self._fh.flush()

    def flush(self) -> None:
        """Write the pending events to the log now (no-op without one)."""
        with self._lock:
            self._write()

    def span(self, name: str, /, **attrs) -> Span:
        """A new (not yet entered) span named ``name`` with ``attrs``.

        ``name`` is positional-only so an attribute may itself be
        called ``name`` without colliding with the parameter.
        """
        return Span(self, name, attrs)

    def event(self, name: str, /, **attrs) -> None:
        """Emit a point-in-time event inside the current span (if any)."""
        stack = _SPAN_STACK.get()
        span_id = stack[-1].span_id if stack else None
        extra: Dict = {"span": span_id}
        if attrs:
            extra["attrs"] = sanitize_attrs(attrs)
        self.event_count += 1
        self._emit("event", name=name, extra=extra)

    def _open(self, span: Span, parent: Optional[Span]) -> None:
        with self._lock:
            span.span_id = self._next_span_id
            self._next_span_id += 1
            self.span_count += 1
        extra: Dict = {"span": span.span_id, "parent": span.parent_id}
        if span.attrs:
            extra["attrs"] = span.attrs
        # a root span writes what is pending; its end writes nothing,
        # so a timed root span does not pay for its own log
        self._emit(
            "span.start", name=span.name, extra=extra, write=parent is None
        )

    def _close(self, span: Span) -> None:
        extra: Dict = {
            "span": span.span_id,
            "parent": span.parent_id,
            "dur": round(span.duration, 6),
            "status": span.status,
        }
        if span.error is not None:
            extra["error"] = span.error
        if span.counters:
            extra["counters"] = {
                k: span.counters[k] for k in sorted(span.counters)
            }
        self._emit("span.end", name=span.name, extra=extra)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Emit ``run.end`` (totals), write every pending event, and
        release the log handle.

        Idempotent — only the first call emits.
        """
        if self.closed:
            return
        self.closed = True
        self._emit(
            "run.end",
            name="run",
            extra={
                "dur": round(time.perf_counter() - self.t0, 6),
                "spans": self.span_count,
                "events": self.event_count,
            },
            write=True,
        )
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
