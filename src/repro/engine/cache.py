"""Classification result cache: in-memory LRU plus optional JSONL store.

The cache maps canonical keys (:mod:`repro.engine.keys`) to small
JSON-serializable record dicts holding isomorphism-invariant
classification facts. For the census pipeline the record shape is::

    {"feasible": bool, "iterations": int, "rounds": int | None}

but the cache itself is record-agnostic, so other evaluators (e.g. the
cross-model verdicts of E11 or the wired contrast of E14) can reuse it —
one cache instance (and one disk file) per evaluator, since keys carry no
evaluator namespace.

Persistence is append-only JSON lines: one ``{"key": ..., "record": ...}``
object per line. Appending is crash-tolerant (a truncated final line is
ignored on load, and the next writer ends it before appending),
re-opening a file replays it into memory, and two runs appending the
same key are harmless — the last line wins. This is what makes repeated
and resumed censuses near-free: the second run's lookups hit either the
LRU or the replayed file and skip classification entirely.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    loaded: int = 0  #: entries replayed from the on-disk store at open
    compacted: int = 0  #: superseded JSONL lines dropped by :meth:`ResultCache.compact`

    @property
    def lookups(self) -> int:
        """Total number of :meth:`ResultCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict:
        """JSON-ready counter dict (census ``--stats`` and service
        response ``meta`` print/ship exactly this)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "loaded": self.loaded,
            "compacted": self.compacted,
        }


class ResultCache:
    """LRU cache of classification records, optionally JSONL-backed.

    Parameters
    ----------
    path:
        optional JSON-lines file. Existing entries are replayed into
        memory on construction; every :meth:`put` appends one line.
    max_entries:
        in-memory LRU capacity; ``None`` means unbounded. Eviction only
        drops the in-memory copy — evicted entries persist on disk and
        are *not* transparently reloaded (the engine treats the file as
        a replay log, not a random-access store).
    """

    def __init__(
        self, path: Optional[str] = None, *, max_entries: Optional[int] = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.path = path
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict]" = OrderedDict()
        self._fd: Optional[int] = None  #: lazily-opened O_APPEND store fd
        if path and os.path.exists(path):
            self._replay(path)

    def _replay(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated trailing line from a crashed run
                if isinstance(obj, dict) and "key" in obj and "record" in obj:
                    self._store(obj["key"], obj["record"])
        self.stats.loaded = len(self._entries)

    def _store(self, key: str, record: Dict) -> None:
        if key in self._entries:
            self._entries.pop(key)
        self._entries[key] = record
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        """Number of in-memory entries."""
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership test that does not touch the stats counters."""
        return key in self._entries

    def peek(self, key: str) -> Optional[Dict]:
        """The record for ``key`` without touching LRU order or stats."""
        return self._entries.get(key)

    def get(self, key: str) -> Optional[Dict]:
        """The record for ``key``, refreshing its LRU position; None on miss."""
        record = self._entries.get(key)
        if record is None:
            self.stats.misses += 1
            if _OBS.enabled:  # per-lookup: guarded, one attribute check
                _registry.inc("cache.misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if _OBS.enabled:
            _registry.inc("cache.hits")
        return record

    def put(self, key: str, record: Dict) -> None:
        """Insert (or overwrite) a record; appends to the JSONL store.

        Each record is appended as exactly one ``write(2)`` on an
        ``O_APPEND`` descriptor, so concurrent writers — e.g. the worker
        processes of a distributed census sharing one cache file — never
        interleave inside a line: the kernel serializes whole-line
        appends, and records are deterministic, so whichever duplicate
        lands last is bit-for-bit the same. A crash mid-write leaves at
        most one truncated trailing line (which :meth:`_replay` skips);
        the first put after opening the store ends such a line with a
        newline, so the record it appends is not glued onto the torn
        one. Two openers racing here add at most a blank line, which
        replay skips.
        """
        self._store(key, record)
        if _OBS.enabled:
            _registry.inc("cache.puts")
        if self.path:
            if self._fd is None:
                self._fd = os.open(
                    self.path,
                    os.O_RDWR | os.O_APPEND | os.O_CREAT,
                    0o644,
                )
                end = os.lseek(self._fd, 0, os.SEEK_END)
                if end and os.pread(self._fd, 1, end - 1) != b"\n":
                    os.write(self._fd, b"\n")
            line = (
                json.dumps(
                    {"key": key, "record": record},
                    separators=(",", ":"),
                    sort_keys=True,
                )
                + "\n"
            )
            os.write(self._fd, line.encode("utf-8"))

    def compact(self) -> int:
        """Atomically rewrite the JSONL store, dropping superseded lines.

        The append-only store accumulates one line per :meth:`put`, so a
        key overwritten k times (the census "rounds upgrade", repeated
        runs appending the same population) occupies k lines of which
        only the last matters. Compaction replays the *file* (not the
        in-memory LRU, which may have evicted entries the disk still
        holds), writes one line per live key — in first-appearance
        order, each with its last-written record — to a temp file, and
        atomically replaces the store (``os.replace``), so a crash
        mid-compaction leaves the original intact. Unparseable lines
        (crashed half-appends) are dropped too.

        Returns the number of lines dropped (also accumulated in
        ``stats.compacted``). A cache with no store is a no-op.
        """
        if not self.path or not os.path.exists(self.path):
            return 0
        live: "OrderedDict[str, Dict]" = OrderedDict()
        lines = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                lines += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict) and "key" in obj and "record" in obj:
                    # dict insertion order keeps first appearance, the
                    # overwrite keeps the last record — exactly replay's
                    # last-line-wins semantics
                    live[obj["key"]] = obj["record"]
        self.close()  # the stale append handle must not outlive the rewrite
        # per-pid temp name: two processes compacting the same store race
        # on the rename (last one wins, both outcomes valid), never on
        # the temp file's contents
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            for key, record in live.items():
                fh.write(
                    json.dumps(
                        {"key": key, "record": record},
                        separators=(",", ":"),
                        sort_keys=True,
                    )
                    + "\n"
                )
        os.replace(tmp, self.path)
        dropped = lines - len(live)
        self.stats.compacted += dropped
        return dropped

    def close(self) -> None:
        """Close the JSONL store descriptor (reopened lazily on next put)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self):
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter-shutdown noise
            pass

    def describe(self) -> str:
        """One-line human summary (used by the CLI's stats footer)."""
        s = self.stats
        return (
            f"cache: {len(self)} entries, {s.hits} hits / {s.misses} misses "
            f"(hit rate {s.hit_rate:.1%})"
            + (f", {s.loaded} loaded from {self.path}" if self.path else "")
        )
