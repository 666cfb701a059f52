"""Process-wide counter/histogram registry behind one snapshot.

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

Rendering reuses :mod:`repro.service.metrics`'s Prometheus text
encoder, so a CLI run (``census --stats-json`` /
``trace summarize``) and the HTTP server's ``/metrics`` route export
the exact same format — group gauges under ``repro_<group>_*`` (the
server's existing names) and registry-native series under
``repro_obs_*``.

Everything is stdlib-only. Counter updates are single ``int`` adds —
atomic enough under the GIL for the threads involved (the service's
event loop and its classification worker, main thread), same as the
serving metrics.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

#: Default histogram buckets (seconds) for registry histograms.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


def _sanitize(name: str) -> str:
    """Dots (the registry's namespace separator) become underscores."""
    return name.replace(".", "_").replace("-", "_")


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1)."""
        self.value += n


class MetricsRegistry:
    """Counters, histograms, heartbeats, and group providers.

    One module-level instance (:data:`repro.obs.runtime.registry`)
    serves the whole process; tests build private ones. Names are
    dotted (``engine.cache_hits``); creation is on first use.
    """

    def __init__(self) -> None:
        self._counters: "Dict[str, Counter]" = {}
        self._histograms: Dict[str, object] = {}
        self._heartbeats: Dict[str, float] = {}
        self._groups: "Dict[str, Callable[[], Dict]]" = {}

    # ------------------------------------------------------------------
    # native instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created at zero on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counter(name).inc(n)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None):
        """The histogram named ``name`` (reuses the service encoder's
        :class:`~repro.service.metrics.Histogram`); bucket bounds are
        fixed at first use."""
        h = self._histograms.get(name)
        if h is None:
            # imported lazily: repro.obs must stay import-light so the
            # engine/service import graph has no cycle through it
            from ..service.metrics import Histogram

            h = self._histograms[name] = Histogram(
                f"repro_obs_{_sanitize(name)}",
                f"Observability histogram ({name}).",
                tuple(buckets) if buckets else DEFAULT_BUCKETS,
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
        histograms = {}
        for name in sorted(self._histograms):
            h = self._histograms[name]
            cumulative, counts = 0, {}
            for bound, count in zip(h.buckets, h.counts):
                cumulative += count
                counts[repr(float(bound))] = cumulative
            histograms[name] = {
                "count": h.count,
                "sum": round(h.sum, 9),
                "buckets": counts,
            }
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": histograms,
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

        Group providers render exactly like the server's gauge groups
        (``repro_<group>_<key>``, via
        :func:`repro.service.metrics.render_gauge_group`); native
        counters render under ``repro_obs_*``; heartbeats render
        as ``repro_obs_heartbeat_age_seconds{name="..."}``. The server
        appends this to its ``/metrics`` payload, so the classic series
        stay bit-for-bit and the registry is a strict superset.
        """
        from ..service.metrics import _format_value, render_gauge_group

        lines: List[str] = []
        for group, provider in sorted(self._groups.items()):
            lines.extend(
                render_gauge_group(
                    f"repro_{_sanitize(group)}",
                    provider(),
                    f"Observability group counter ({group})",
                )
            )
        for name in sorted(self._counters):
            series = f"repro_obs_{_sanitize(name)}_total"
            lines.append(f"# HELP {series} Observability counter ({name}).")
            lines.append(f"# TYPE {series} counter")
            lines.append(f"{series} {self._counters[name].value}")
        if self._heartbeats:
            series = "repro_obs_heartbeat_age_seconds"
            lines.append(
                f"# HELP {series} Seconds since a component's last heartbeat."
            )
            lines.append(f"# TYPE {series} gauge")
            for name in sorted(self._heartbeats):
                age = self.heartbeat_age(name)
                lines.append(
                    f'{series}{{name="{name}"}} {_format_value(age)}'
                )
        for name in sorted(self._histograms):
            lines.extend(self._histograms[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument, heartbeat, and group (test isolation)."""
        self._counters.clear()
        self._histograms.clear()
        self._heartbeats.clear()
        self._groups.clear()
