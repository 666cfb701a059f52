"""Counter/histogram registry behind one snapshot, and its Prometheus text.

The repo grew several per-instance accounting surfaces —
:class:`~repro.engine.cache.CacheStats`,
:class:`~repro.engine.pipeline.EngineStats`,
:class:`~repro.service.batcher.ServiceStats`, the classifier's
``OpCounter`` — each with its own ``as_dict()``. The registry absorbs
them behind one :meth:`MetricsRegistry.snapshot`: components register
their ``as_dict`` as a *group provider* (read live at snapshot time, so
the numbers are always the instance's own — equality with the legacy
surfaces is pinned by ``tests/test_obs.py``), while instrumented code
paths increment flat counters directly.

This is the repo's only Prometheus text encoder (and, in
:func:`parse_prometheus_text`, its reader). The process registry
(:data:`repro.obs.runtime.registry`) renders for ``census --stats-json``
and ``trace summarize``; each HTTP server keeps a registry of its own
with ``prefix="repro"`` for its request counts, and ``GET /metrics``
is that registry's rendering followed by the process registry's.
Group gauges render as ``repro_<group>_<key>``; native series carry
the registry's prefix (``repro_obs_*`` for the process registry).

Everything is stdlib-only. Counter updates are single ``int`` adds —
atomic enough under the GIL for the threads involved (the service's
event loop and its classification worker, main thread).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Content-Type of a Prometheus text exposition (``GET /metrics``).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets (seconds): sub-millisecond warm service
#: hits up to multi-second cold elects.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


def _sanitize(name: str) -> str:
    """Dots (the registry's namespace separator) become underscores."""
    return name.replace(".", "_").replace("-", "_")


def _format_value(value: object) -> str:
    """Render one sample value the Prometheus way (ints stay ints)."""
    if isinstance(value, int):  # bool included: True renders as 1
        return str(int(value))
    return repr(float(value))


def _family(series: str, kind: str, help_text: str) -> List[str]:
    """The ``# HELP``/``# TYPE`` pair that opens a series family."""
    return [f"# HELP {series} {help_text}", f"# TYPE {series} {kind}"]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1)."""
        self.value += n


class Histogram:
    """A fixed-bucket histogram (cumulative ``le`` buckets on export).

    ``counts`` holds one non-cumulative count per bucket plus a last
    slot for observations above every bound (the ``+Inf`` bucket).
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(bound, observations <= bound)`` for each finite bucket."""
        out, total = [], 0
        for bound, n in zip(self.buckets, self.counts):
            total += n
            out.append((bound, total))
        return out


class MetricsRegistry:
    """Counters, histograms, heartbeats, and group providers.

    One module-level instance (:data:`repro.obs.runtime.registry`)
    serves the whole process; each HTTP server and each test builds
    its own. Names are dotted (``engine.cache_hits``); creation is on
    first use. ``prefix`` starts the names of the native series: a
    counter renders as ``<prefix>_<name>_total``, a histogram as
    ``<prefix>_<name>_bucket|sum|count`` and heartbeats as
    ``<prefix>_heartbeat_age_seconds``.
    """

    def __init__(self, prefix: str = "repro_obs") -> None:
        self.prefix = prefix
        self._counters: "Dict[str, Counter]" = {}
        self._histograms: "Dict[str, Histogram]" = {}
        self._heartbeats: Dict[str, float] = {}
        self._groups: "Dict[str, Callable[[], Dict]]" = {}

    # ------------------------------------------------------------------
    # native instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, /, **labels: object) -> Counter:
        """The counter named ``name``, created at zero on first use.

        Each label set is a counter of its own, keyed
        ``name{code="200"}``; the label sets of one name render as one
        family. ``name`` is positional-only, so a label may be called
        ``name``.
        """
        if labels:
            name += "{" + ",".join(
                f'{k}="{v}"' for k, v in sorted(labels.items())
            ) + "}"
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def inc(self, name: str, n: int = 1) -> None:
        """Increment the unlabeled counter ``name`` by ``n``."""
        c = self._counters.get(name)
        if c is None:
            c = self.counter(name)
        c.value += n

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name``; bucket bounds (default
        :data:`DEFAULT_BUCKETS`) are fixed at first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                DEFAULT_BUCKETS if buckets is None else buckets
            )
        return h

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one observation into histogram ``name``."""
        self.histogram(name, buckets).observe(value)

    def heartbeat(self, name: str) -> None:
        """Record that component ``name`` is alive *now* (monotonic)."""
        self._heartbeats[name] = time.monotonic()

    def heartbeat_age(self, name: str) -> Optional[float]:
        """Seconds since ``name`` last heartbeat, or None if it never has."""
        last = self._heartbeats.get(name)
        return None if last is None else max(0.0, time.monotonic() - last)

    # ------------------------------------------------------------------
    # group providers (the legacy as_dict surfaces)
    # ------------------------------------------------------------------
    def register_group(
        self, group: str, provider: Callable[[], Dict]
    ) -> None:
        """Attach a live counter-dict provider under ``group``.

        ``provider`` is called at every snapshot/render (typically a
        stats object's ``as_dict``), so the group always reflects the
        instance's current numbers. Re-registering a group replaces it.
        """
        self._groups[group] = provider

    def unregister_group(self, group: str) -> None:
        """Detach a group provider (missing groups are a no-op)."""
        self._groups.pop(group, None)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """One JSON-ready dict of everything the registry knows.

        Shape: ``{"counters": {...}, "histograms": {name: {"count",
        "sum", "buckets"}}, "heartbeats": {name: age_seconds},
        "groups": {group: provider()}}`` — keys sorted,
        values plain scalars. ``census --stats-json`` prints exactly
        this.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": round(h.sum, 9),
                    "buckets": {repr(b): n for b, n in h.cumulative()},
                }
                for name, h in sorted(self._histograms.items())
            },
            "heartbeats": {
                name: round(self.heartbeat_age(name), 3)
                for name in sorted(self._heartbeats)
            },
            "groups": {
                group: dict(provider())
                for group, provider in sorted(self._groups.items())
            },
        }

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition.

        Each key of a group provider renders as the gauge
        ``repro_<group>_<key>``, carrying exactly the provider's value;
        the native series render under :attr:`prefix` (see the class
        docstring), heartbeats as
        ``<prefix>_heartbeat_age_seconds{name="..."}``.
        """
        lines: List[str] = []
        for group, provider in sorted(self._groups.items()):
            for key, value in provider().items():
                series = f"repro_{_sanitize(group)}_{key}"
                lines += _family(series, "gauge", f"{group} counter ({key}).")
                lines.append(f"{series} {_format_value(value)}")
        families: "Dict[str, List[Counter]]" = {}
        for key in sorted(self._counters):
            families.setdefault(key.partition("{")[0], []).append(
                self._counters[key]
            )
        for family, counters in sorted(families.items()):
            series = f"{self.prefix}_{_sanitize(family)}_total"
            lines += _family(series, "counter", f"Counter ({family}).")
            for c in counters:
                lines.append(f"{series}{c.name[len(family):]} {c.value}")
        if self._heartbeats:
            series = f"{self.prefix}_heartbeat_age_seconds"
            lines += _family(
                series, "gauge", "Seconds since a component's last heartbeat."
            )
            for name in sorted(self._heartbeats):
                age = self.heartbeat_age(name)
                lines.append(f'{series}{{name="{name}"}} {_format_value(age)}')
        for name, h in sorted(self._histograms.items()):
            series = f"{self.prefix}_{_sanitize(name)}"
            lines += _family(series, "histogram", f"Histogram ({name}).")
            for bound, n in h.cumulative():
                le = _format_value(bound)
                lines.append(f'{series}_bucket{{le="{le}"}} {n}')
            lines.append(f'{series}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{series}_sum {_format_value(h.sum)}")
            lines.append(f"{series}_count {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument, heartbeat, and group (test isolation)."""
        self._counters.clear()
        self._histograms.clear()
        self._heartbeats.clear()
        self._groups.clear()


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a Prometheus text exposition into ``{series: value}``.

    The key is the sample name including its label set verbatim
    (e.g. ``repro_http_responses_total{code="200"}``). Comment and
    blank lines are skipped; malformed sample lines raise
    ``ValueError``. This is the reading half of
    :meth:`MetricsRegistry.render_prometheus` — handy for tests and
    scripts, not a full client library.
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
