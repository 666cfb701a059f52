"""Classification result cache: an in-memory dict plus an optional SQLite store.

The cache maps canonical keys (:mod:`repro.engine.keys`) to small
JSON-serializable record dicts holding isomorphism-invariant
classification facts. For the census pipeline the record shape is::

    {"feasible": bool, "iterations": int, "rounds": int | None}

but the cache itself is record-agnostic, so other evaluators (e.g. the
cross-model verdicts of E11 or the wired contrast of E14) can reuse it —
one cache instance (and one store file) per evaluator, since keys carry
no evaluator namespace.

The store is one SQLite file with one table, ``records(key TEXT PRIMARY
KEY, record TEXT NOT NULL)``, opened like the work queue's file
(:func:`repro.engine.queue.connect`). Opening a cache loads every row;
:meth:`put` replaces its key's row, so the store holds one row per key
(the census "rounds upgrade" rewrites a key). SQLite serializes the
writes of several processes, e.g. a distributed census's workers. This
is what makes repeated and resumed censuses near-free: the second run's
lookups hit the loaded rows and skip classification entirely.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry
from .queue import connect


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    loaded: int = 0  #: records loaded from the store at open

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
            "loaded": self.loaded,
        }


class ResultCache:
    """Dict of classification records, optionally backed by a SQLite store.

    Parameters
    ----------
    path:
        optional store file. An existing store is loaded into memory on
        construction; the file is created at the first :meth:`put`, so
        a cache that is never written leaves no file behind. A file that
        is not a store raises ``ValueError`` and is left unchanged; a
        path whose directory does not exist raises ``ValueError`` too.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.stats = CacheStats()
        self._entries: Dict[str, Dict] = {}
        self._conn: Optional[sqlite3.Connection] = None  #: opened at first put
        if path and os.path.exists(path):
            self._load(path)
        elif path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(
                f"cannot create result cache {path!r}: directory "
                f"{os.path.dirname(path)!r} does not exist"
            )

    def _load(self, path: str) -> None:
        # a plain connection that only reads: the store's WAL setup would
        # rewrite a foreign SQLite file's header before this could refuse it
        conn = sqlite3.connect(path)
        try:
            tables = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
            if tables:  # none at all: a store another process is creating
                for key, record in conn.execute("SELECT key, record FROM records"):
                    self._entries[key] = json.loads(record)
        except sqlite3.DatabaseError as exc:
            raise ValueError(f"{path!r} is not a result cache ({exc})") from None
        finally:
            conn.close()
        self.stats.loaded = len(self._entries)

    def __len__(self) -> int:
        """Number of in-memory entries."""
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership test that does not touch the stats counters."""
        return key in self._entries

    def peek(self, key: str) -> Optional[Dict]:
        """The record for ``key`` without touching the stats; None on miss."""
        return self._entries.get(key)

    def get(self, key: str) -> Optional[Dict]:
        """The record for ``key``, counted as a hit or miss; None on miss."""
        record = self._entries.get(key)
        if record is None:
            self.stats.misses += 1
            if _OBS.enabled:  # per-lookup: guarded, one attribute check
                _registry.inc("cache.misses")
            return None
        self.stats.hits += 1
        if _OBS.enabled:
            _registry.inc("cache.hits")
        return record

    def _store(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = connect(self.path)
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS records "
                "(key TEXT PRIMARY KEY, record TEXT NOT NULL)"
            )
        return self._conn

    def put(self, key: str, record: Dict) -> None:
        """Insert (or overwrite) a record; outside :meth:`put_many` its
        store row is committed at once."""
        self._entries[key] = record
        if _OBS.enabled:
            _registry.inc("cache.puts")
        if self.path:
            self._store().execute(
                "INSERT OR REPLACE INTO records (key, record) VALUES (?, ?)",
                (key, json.dumps(record, separators=(",", ":"), sort_keys=True)),
            )

    def put_many(self, pairs: Sequence[Tuple[str, Dict]]) -> None:
        """:meth:`put` every ``(key, record)`` pair, in one store transaction."""
        if not (self.path and pairs):
            for key, record in pairs:
                self.put(key, record)
            return
        conn = self._store()
        conn.execute("BEGIN IMMEDIATE")
        with conn:  # commits, or rolls back if a put raises
            for key, record in pairs:
                self.put(key, record)

    def close(self) -> None:
        """Close the store connection (reopened by the next put)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def describe(self) -> str:
        """One-line human summary (used by the CLI's stats footer)."""
        s = self.stats
        return (
            f"cache: {len(self)} entries, {s.hits} hits / {s.misses} misses "
            f"(hit rate {s.hit_rate:.1%})"
            + (f", {s.loaded} loaded from {self.path}" if self.path else "")
        )
