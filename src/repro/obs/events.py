"""The run-event log: a stable, validated JSONL schema.

Every traced run (:mod:`repro.obs.tracing`) appends its events to one
JSON-lines file — one event object per line, in emission order. The
schema is deliberately small and **closed**: every event kind has an
exact field set, and :func:`validate_event` rejects unknown fields, so
the log format cannot drift silently (CI runs a traced census and
validates every emitted line against this module).

Schema (``"schema": 1``). All events carry the common fields

=========  =======================================================
``run``    run id (hex string; constant for one tracer lifetime)
``seq``    0-based emission index (strictly increasing per run)
``ts``     seconds since the run started (monotonic clock, float)
``kind``   one of :data:`EVENT_KINDS`
``name``   span/event name (dotted, e.g. ``census.shard``)
=========  =======================================================

plus per-kind fields:

==============  =====================================================
``run.start``   ``schema`` (int); optional ``attrs``
``span.start``  ``span`` (id), ``parent`` (id or null); opt. ``attrs``
``span.end``    ``span``, ``parent``, ``dur`` (seconds), ``status``
                (``"ok"``/``"error"``); optional ``error`` (string),
                ``counters`` (name → number)
``event``       ``span`` (enclosing span id or null); opt. ``attrs``
``run.end``     ``dur``, ``spans``, ``events`` (totals for the run)
==============  =====================================================

``attrs`` values are JSON scalars (string / int / float / bool /
null) — the tracer stringifies anything richer at emission time, so a
reader never needs application types. The full schema table, with
examples, is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List

#: Version stamped into every ``run.start`` event.
EVENT_SCHEMA_VERSION = 1

#: The closed set of event kinds.
EVENT_KINDS = ("run.start", "span.start", "span.end", "event", "run.end")

_COMMON = frozenset({"run", "seq", "ts", "kind", "name"})

#: Required fields per kind (beyond these, only the optional set below
#: may appear; anything else fails validation).
REQUIRED_FIELDS: Dict[str, frozenset] = {
    "run.start": _COMMON | {"schema"},
    "span.start": _COMMON | {"span", "parent"},
    "span.end": _COMMON | {"span", "parent", "dur", "status"},
    "event": _COMMON | {"span"},
    "run.end": _COMMON | {"dur", "spans", "events"},
}

#: Optional fields per kind.
OPTIONAL_FIELDS: Dict[str, frozenset] = {
    "run.start": frozenset({"attrs"}),
    "span.start": frozenset({"attrs"}),
    "span.end": frozenset({"error", "counters"}),
    "event": frozenset({"attrs"}),
    "run.end": frozenset(),
}

#: JSON scalar types allowed as ``attrs`` values.
SCALAR_TYPES = (str, int, float, bool, type(None))


class EventSchemaError(ValueError):
    """An event violates the documented run-event schema."""


def _fail(msg: str, obj: object) -> None:
    raise EventSchemaError(f"{msg}: {obj!r}")


def validate_event(obj: object) -> Dict:
    """Validate one decoded event against the schema; returns it.

    Raises :class:`EventSchemaError` on a non-dict, an unknown
    ``kind``, a missing required field, an **unknown field** (the
    schema is closed), or a mistyped value. This is the honesty gate
    CI runs over real traced censuses.
    """
    if not isinstance(obj, dict):
        _fail("event is not an object", obj)
    kind = obj.get("kind")
    if kind not in REQUIRED_FIELDS:
        _fail(f"unknown event kind {kind!r}", obj)
    required = REQUIRED_FIELDS[kind]
    allowed = required | OPTIONAL_FIELDS[kind]
    missing = required - obj.keys()
    if missing:
        _fail(f"missing field(s) {sorted(missing)}", obj)
    unknown = obj.keys() - allowed
    if unknown:
        _fail(f"unknown field(s) {sorted(unknown)}", obj)
    if not isinstance(obj["run"], str):
        _fail("run must be a string", obj)
    if not isinstance(obj["seq"], int) or isinstance(obj["seq"], bool):
        _fail("seq must be an integer", obj)
    if not isinstance(obj["ts"], (int, float)) or isinstance(obj["ts"], bool):
        _fail("ts must be a number", obj)
    if not isinstance(obj["name"], str):
        _fail("name must be a string", obj)
    if "span" in obj:
        span = obj["span"]
        # an "event" outside any span carries span=null; span.start/end
        # always belong to a real span and must carry its integer id
        span_ok = isinstance(span, int) and not isinstance(span, bool)
        if kind == "event":
            span_ok = span_ok or span is None
        if not span_ok:
            _fail("span must be an integer id", obj)
    if "parent" in obj and obj["parent"] is not None and not (
        isinstance(obj["parent"], int) and not isinstance(obj["parent"], bool)
    ):
        _fail("parent must be an integer id or null", obj)
    if "dur" in obj and (
        not isinstance(obj["dur"], (int, float)) or isinstance(obj["dur"], bool)
    ):
        _fail("dur must be a number", obj)
    if "status" in obj and obj["status"] not in ("ok", "error"):
        _fail('status must be "ok" or "error"', obj)
    if "error" in obj and not isinstance(obj["error"], str):
        _fail("error must be a string", obj)
    if "counters" in obj:
        counters = obj["counters"]
        if not isinstance(counters, dict) or not all(
            isinstance(k, str)
            and isinstance(v, (int, float))
            and not isinstance(v, bool)
            for k, v in counters.items()
        ):
            _fail("counters must map names to numbers", obj)
    if "attrs" in obj:
        attrs = obj["attrs"]
        if not isinstance(attrs, dict) or not all(
            isinstance(k, str) and isinstance(v, SCALAR_TYPES)
            for k, v in attrs.items()
        ):
            _fail("attrs must map strings to JSON scalars", obj)
    return obj


def sanitize_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce attribute values to JSON scalars (``repr`` for the rest).

    The write-side half of the schema's scalar rule: whatever callers
    attach to a span, what lands in the log always validates.
    """
    return {
        str(k): (v if isinstance(v, SCALAR_TYPES) else repr(v))
        for k, v in attrs.items()
    }


def iter_events(path: str, *, validate: bool = True) -> Iterator[Dict]:
    """Stream events from a JSONL log, validating each by default.

    Blank lines are skipped, and so is a line a writer left torn when it
    died mid-write: a final line that lacks its newline and does not
    parse, or an unparseable line followed by a blank line (the mark a
    :class:`~repro.obs.tracing.Tracer` leaves when it appends after a
    torn line). The events around it stand. Any other line that is not
    valid JSON, or (with ``validate``) an event violating the schema,
    raises :class:`EventSchemaError` naming its line number.
    """
    torn = None  # an unparseable line's error, judged by what follows it
    raw = ""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                torn = None
                continue
            if torn is not None:
                raise torn
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                torn = EventSchemaError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                )
                continue
            if validate:
                try:
                    validate_event(obj)
                except EventSchemaError as exc:
                    raise EventSchemaError(f"{path}:{lineno}: {exc}") from None
            yield obj
    if torn is not None and raw.endswith("\n"):
        raise torn


def read_events(path: str, *, validate: bool = True) -> List[Dict]:
    """All events of a JSONL log as a list (see :func:`iter_events`)."""
    return list(iter_events(path, validate=validate))


def validate_events(events: Iterable[Dict]) -> int:
    """Validate a decoded event stream; returns the number checked."""
    count = 0
    for obj in events:
        validate_event(obj)
        count += 1
    return count
