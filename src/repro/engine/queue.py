"""Durable SQLite-backed work queue for distributed censuses and campaigns.

One coordinator enumerates a job into shard tasks; N independent
worker *processes* — or machines sharing a filesystem — lease shards,
run them, and commit results. The queue is a single SQLite file in
WAL mode, so it needs no server, survives any worker dying, and gives
the one primitive the whole design rests on: an atomic
read-modify-write transaction (``BEGIN IMMEDIATE``) for leasing.

Lifecycle of a shard row::

    pending --lease--> leased --commit--> done
       ^                 |
       |   lease expired |--fail/expire (attempts < cap)
       +-----------------+
                         |--fail/expire (attempts >= cap)--> failed

* **Lease** — the costliest pending shard (ties: lowest index) is
  atomically marked ``leased`` with an owner id and a deadline
  ``lease_expires``. Within one transaction at most one worker can win
  a shard, so double classification of a live shard is impossible by
  construction.
* **Heartbeat** — the owner periodically pushes ``lease_expires``
  forward. A worker that is merely slow keeps its lease; a worker that
  was SIGKILL'd stops heartbeating and its lease expires.
* **Reclaim** — every lease call first sweeps expired leases back to
  ``pending`` (or to ``failed`` once ``attempts`` reaches the retry
  cap), so a dead worker loses at most its one in-flight shard and the
  shard is retried by whoever leases next.
* **Commit** — results are stored in the row itself, guarded by the
  owner id: a stale worker whose lease was reclaimed cannot overwrite
  the retry's result, and committing an already-``done`` shard is a
  no-op. Merging (:func:`collect_queue`) reads each ``done`` row
  exactly once, so the merge is idempotent.

Lease traffic is counted in the process observability registry
(``queue.leases`` / ``queue.reclaimed`` / ``queue.retried`` counters;
queue depth is :meth:`WorkQueue.counts`) and, when tracing is enabled,
``shard.leased`` / ``shard.reclaimed`` events join the run-event log.

The queue is record-agnostic about *what* a shard computes: it stores
opaque JSON payloads plus a metadata dict written at creation time.
What a job does is named by ``meta["queue"]`` and looked up in the
closed :data:`JOB_KINDS` table (census, campaign), so one worker loop
(:func:`queue_worker`), one collect step (:func:`collect_queue`) and
one process fan-out (:func:`drain_with_local_workers`) serve every
kind.
"""

from __future__ import annotations

import importlib
import json
import os
import socket
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.runtime import STATE as _OBS
from ..obs.runtime import event as _obs_event
from ..obs.runtime import flush as _obs_flush
from ..obs.runtime import registry as _registry
from ..obs.runtime import span as _obs_span

#: Version stamped into the queue's meta table; opening a queue written
#: by a different schema version fails loudly instead of misbehaving.
QUEUE_SCHEMA_VERSION = 2

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL = 30.0

#: Default attempts before a shard is marked ``failed`` (poison cap).
DEFAULT_MAX_ATTEMPTS = 3

#: The closed set of shard states.
SHARD_STATES = ("pending", "leased", "done", "failed")


class QueueError(RuntimeError):
    """A work-queue operation failed (schema/fingerprint mismatch, ...)."""


@dataclass(frozen=True)
class Lease:
    """A successfully leased shard: the worker's ticket to work on it.

    ``attempt`` is 1-based (first execution is attempt 1); ``expires``
    is the wall-clock deadline the owner must heartbeat before.
    """

    index: int
    start: int
    stop: int
    cost: float
    owner: str
    attempt: int
    expires: float

    @property
    def size(self) -> int:
        """Number of workload items in the leased shard."""
        return self.stop - self.start


def default_owner() -> str:
    """Stable per-process owner id: ``hostname:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def connect(path: str) -> sqlite3.Connection:
    """Open the SQLite file of a work queue or a result store
    (:mod:`repro.engine.cache`), which several processes share; the
    connection must not cross a fork."""
    conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
    # manual transaction control: single mutations autocommit, a
    # read-modify-write wraps itself in BEGIN IMMEDIATE
    conn.isolation_level = None
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
    except sqlite3.DatabaseError:  # e.g. "file is not a database"
        conn.close()
        raise
    return conn


@contextmanager
def heartbeat_guard(queue: "WorkQueue", lease: Lease):
    """Keep ``lease`` alive for the duration of a ``with`` block.

    A daemon thread extends the lease every ``lease_ttl / 4`` seconds
    (stopping early if the lease was reclaimed — the commit will be
    rejected anyway) and is joined on exit, however the block ends. This
    is the worker-side idiom of :func:`queue_worker`: long work under an
    active lease is never reclaimed from a live worker.
    """
    stop = threading.Event()

    def _beat() -> None:
        interval = max(0.05, queue.lease_ttl / 4.0)
        while not stop.wait(interval):
            if not queue.heartbeat(lease):
                return

    thread = threading.Thread(target=_beat, daemon=True)
    thread.start()
    try:
        yield lease
    finally:
        stop.set()
        thread.join()


class WorkQueue:
    """The durable shard queue (one SQLite file, WAL mode).

    Open an existing queue with ``WorkQueue(path)``; create (or resume)
    one with :meth:`create`. Instances are safe to share between the
    threads of one process (a lock serializes the connection); separate
    processes each open their own instance on the same path.
    """

    def __init__(
        self,
        path: str,
        *,
        lease_ttl: Optional[float] = None,
        max_attempts: Optional[int] = None,
    ) -> None:
        if not os.path.exists(path):
            raise QueueError(f"no work queue at {path!r} (create one first)")
        self.path = path
        self._lock = threading.RLock()
        try:
            self._conn = connect(path)
        except sqlite3.DatabaseError as exc:
            raise QueueError(f"{path!r} is not a work queue ({exc})") from None
        try:
            stored = self.meta()
        except sqlite3.DatabaseError as exc:  # e.g. no meta table (yet)
            self._conn.close()
            raise QueueError(f"{path!r} is not a work queue ({exc})") from None
        if stored.get("schema") != QUEUE_SCHEMA_VERSION:
            self._conn.close()
            raise QueueError(
                f"queue {path!r} has schema {stored.get('schema')!r}, "
                f"this build speaks {QUEUE_SCHEMA_VERSION}"
            )
        self.lease_ttl = (
            float(lease_ttl)
            if lease_ttl is not None
            else float(stored.get("lease_ttl", DEFAULT_LEASE_TTL))
        )
        self.max_attempts = (
            int(max_attempts)
            if max_attempts is not None
            else int(stored.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        shards: Sequence[Tuple[int, int, int, float]],
        meta: Dict[str, object],
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> "WorkQueue":
        """Create a queue, or resume one whose fingerprint matches.

        ``shards`` is a sequence of ``(index, start, stop, cost)``
        tuples; :meth:`lease` hands out the largest ``cost`` first.
        ``meta`` is a JSON-able dict describing the run (the pipeline
        stores the workload spec, census options, and cache path
        there). Creation is idempotent: if ``path`` already holds
        a queue whose meta matches ``meta`` key for key, the existing
        queue is opened untouched — a restarted coordinator resumes a
        half-finished run instead of double-enqueueing. A *mismatched*
        existing queue raises :class:`QueueError` (point different runs
        at different paths).
        """
        if os.path.exists(path):
            queue = cls(path, lease_ttl=lease_ttl, max_attempts=max_attempts)
            stored = queue.meta()
            mismatch = {
                k: (stored.get(k), v)
                for k, v in meta.items()
                if stored.get(k) != v
            }
            if mismatch:
                queue.close()
                raise QueueError(
                    f"queue {path!r} holds a different run; "
                    f"mismatched meta: {sorted(mismatch)}"
                )
            return queue
        conn = connect(path)
        try:
            try:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute(
                    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"
                )
                conn.execute(
                    """
                    CREATE TABLE shards (
                        idx INTEGER PRIMARY KEY,
                        start INTEGER NOT NULL,
                        stop INTEGER NOT NULL,
                        cost REAL NOT NULL,
                        status TEXT NOT NULL DEFAULT 'pending',
                        attempts INTEGER NOT NULL DEFAULT 0,
                        owner TEXT,
                        lease_expires REAL,
                        rows TEXT,
                        stats TEXT,
                        error TEXT
                    )
                    """
                )
                # the lease query reads its first entry (no sort); the
                # status prefix serves every other status filter
                conn.execute(
                    "CREATE INDEX shards_lease ON shards (status, cost DESC, idx)"
                )
                payload = dict(meta)
                payload.setdefault("schema", QUEUE_SCHEMA_VERSION)
                payload.setdefault("lease_ttl", lease_ttl)
                payload.setdefault("max_attempts", max_attempts)
                conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [(k, json.dumps(v)) for k, v in payload.items()],
                )
                conn.executemany(
                    "INSERT INTO shards (idx, start, stop, cost)"
                    " VALUES (?, ?, ?, ?)",
                    shards,
                )
                conn.execute("COMMIT")
            except sqlite3.OperationalError:
                # raced with another coordinator creating the same queue:
                # retry through the open-and-verify path above
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.OperationalError:
                    pass
                conn.close()
                if not os.path.exists(path):
                    raise
                return cls.create(
                    path,
                    shards,
                    meta,
                    lease_ttl=lease_ttl,
                    max_attempts=max_attempts,
                )
        finally:
            conn.close()
        return cls(path, lease_ttl=lease_ttl, max_attempts=max_attempts)

    # ------------------------------------------------------------------
    # metadata / accounting
    # ------------------------------------------------------------------
    def meta(self) -> Dict[str, object]:
        """The queue's metadata dict (decoded from the meta table)."""
        with self._lock:
            rows = self._conn.execute("SELECT key, value FROM meta").fetchall()
        return {k: json.loads(v) for k, v in rows}

    def _counter(self, key: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (f"counter.{key}",)
        ).fetchone()
        return int(json.loads(row[0])) if row else 0

    def _bump_counter(self, key: str, n: int = 1) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = ?",
            (f"counter.{key}", json.dumps(n), json.dumps(self._counter(key) + n)),
        )

    def counts(self) -> Dict[str, int]:
        """Shard-state counts plus cumulative retry accounting.

        ``{"total", "pending", "leased", "done", "failed", "retried",
        "reclaimed"}`` — ``retried`` counts re-executions granted
        (leases beyond a shard's first), ``reclaimed`` counts expired
        leases swept back. This dict is what ``census --stats-json``
        ships as the ``queue`` group and ``queue status`` prints.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM shards GROUP BY status"
            ).fetchall()
            out = {state: 0 for state in SHARD_STATES}
            out.update(dict(rows))
            out["total"] = sum(out[state] for state in SHARD_STATES)
            out["retried"] = self._counter("retried")
            out["reclaimed"] = self._counter("reclaimed")
        return out

    # ------------------------------------------------------------------
    # the lease protocol
    # ------------------------------------------------------------------
    def _reclaim_expired(self, now: float) -> int:
        """Sweep expired leases (caller holds the write transaction)."""
        expired = self._conn.execute(
            "SELECT idx, attempts, owner FROM shards "
            "WHERE status = 'leased' AND lease_expires < ?",
            (now,),
        ).fetchall()
        for idx, attempts, owner in expired:
            exhausted = attempts >= self.max_attempts
            self._conn.execute(
                "UPDATE shards SET status = ?, owner = NULL, "
                "lease_expires = NULL, error = ? WHERE idx = ?",
                (
                    "failed" if exhausted else "pending",
                    f"lease by {owner!r} expired (attempt {attempts})"
                    if exhausted
                    else None,
                    idx,
                ),
            )
            self._bump_counter("reclaimed")
            _registry.inc("queue.reclaimed")
            if _OBS.enabled:
                _obs_event(
                    "shard.reclaimed",
                    shard=idx,
                    owner=owner,
                    attempt=attempts,
                    failed=exhausted,
                )
        return len(expired)

    def lease(
        self, owner: Optional[str] = None, *, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Atomically claim the costliest pending shard; None when none is.

        One ``BEGIN IMMEDIATE`` transaction sweeps expired leases, picks
        the pending shard with the largest cost (ties: lowest index)
        through the ``shards_lease`` index, and marks it ``leased`` for
        this owner. ``None`` means no shard is *currently* leasable —
        the queue may still hold live leases owned by other workers, so
        callers poll :meth:`finished` before giving up.
        """
        owner = owner or default_owner()
        now = time.time() if now is None else now
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._reclaim_expired(now)
                row = self._conn.execute(
                    "SELECT idx, start, stop, cost, attempts FROM shards "
                    "WHERE status = 'pending' "
                    "ORDER BY cost DESC, idx LIMIT 1"
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                idx, start, stop, cost, attempts = row
                expires = now + self.lease_ttl
                self._conn.execute(
                    "UPDATE shards SET status = 'leased', owner = ?, "
                    "lease_expires = ?, attempts = attempts + 1 "
                    "WHERE idx = ?",
                    (owner, expires, idx),
                )
                if attempts > 0:
                    self._bump_counter("retried")
                    _registry.inc("queue.retried")
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        _registry.inc("queue.leases")
        if _OBS.enabled:
            _obs_event(
                "shard.leased", shard=idx, owner=owner, attempt=attempts + 1
            )
        return Lease(
            index=idx,
            start=start,
            stop=stop,
            cost=cost,
            owner=owner,
            attempt=attempts + 1,
            expires=expires,
        )

    def heartbeat(
        self, lease: Lease, *, now: Optional[float] = None
    ) -> bool:
        """Extend a live lease; False means the lease was lost.

        A lease is lost when it expired and was reclaimed (possibly
        already re-leased to another owner) — the caller should abandon
        the shard; its commit would be rejected anyway.
        """
        now = time.time() if now is None else now
        with self._lock:
            cur = self._conn.execute(
                "UPDATE shards SET lease_expires = ? "
                "WHERE idx = ? AND status = 'leased' AND owner = ?",
                (now + self.lease_ttl, lease.index, lease.owner),
            )
            self._conn.commit()
        return cur.rowcount == 1

    def commit(
        self,
        lease: Lease,
        rows: List[Dict],
        stats: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Store a shard's result and mark it ``done``; owner-guarded.

        Returns False (storing nothing) when the lease was lost to a
        reclaim — the retry's commit, not this stale one, wins. A shard
        that is already ``done`` is left untouched, which together with
        the owner guard makes result merging idempotent: every done
        shard carries exactly one result, written exactly once.
        """
        with self._lock:
            cur = self._conn.execute(
                "UPDATE shards SET status = 'done', rows = ?, stats = ?, "
                "owner = NULL, lease_expires = NULL, error = NULL "
                "WHERE idx = ? AND status = 'leased' AND owner = ?",
                (
                    json.dumps(rows, separators=(",", ":"), sort_keys=True),
                    json.dumps(
                        stats or {}, separators=(",", ":"), sort_keys=True
                    ),
                    lease.index,
                    lease.owner,
                ),
            )
            self._conn.commit()
        return cur.rowcount == 1

    def fail(self, lease: Lease, error: str) -> bool:
        """Report a shard execution error; owner-guarded like commit.

        Below the attempt cap the shard returns to ``pending`` for a
        retry; at the cap it is marked ``failed`` permanently (a poison
        shard must not stall the rest of the run — the queue keeps
        draining and the coordinator reports the failure at collect
        time).
        """
        with self._lock:
            exhausted = lease.attempt >= self.max_attempts
            cur = self._conn.execute(
                "UPDATE shards SET status = ?, owner = NULL, "
                "lease_expires = NULL, error = ? "
                "WHERE idx = ? AND status = 'leased' AND owner = ?",
                (
                    "failed" if exhausted else "pending",
                    f"{error} (attempt {lease.attempt})",
                    lease.index,
                    lease.owner,
                ),
            )
            self._conn.commit()
        return cur.rowcount == 1

    # ------------------------------------------------------------------
    # inspection / recovery
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        """True when no shard can make further progress.

        Every shard is ``done`` or ``failed`` — nothing pending, no
        live lease. Workers use this to decide between waiting (a peer
        may still die and surrender its shard) and exiting.
        """
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def results(self) -> Iterator[Tuple[int, List[Dict], Dict]]:
        """Yield ``(index, rows, stats)`` for every done shard, in
        shard order. Each done shard appears exactly once."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx, rows, stats FROM shards "
                "WHERE status = 'done' ORDER BY idx"
            ).fetchall()
        for idx, payload, stats in rows:
            yield idx, json.loads(payload), json.loads(stats or "{}")

    def failures(self) -> List[Tuple[int, str]]:
        """``(index, error)`` for every permanently failed shard."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx, error FROM shards "
                "WHERE status = 'failed' ORDER BY idx"
            ).fetchall()
        return [(idx, err or "") for idx, err in rows]

    def shard_states(self) -> List[Dict[str, object]]:
        """Per-shard status rows for ``queue status`` (operator view)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx, start, stop, cost, status, attempts, owner, "
                "lease_expires, error FROM shards ORDER BY idx"
            ).fetchall()
        keys = (
            "index", "start", "stop", "cost", "status", "attempts",
            "owner", "lease_expires", "error",
        )
        return [dict(zip(keys, row)) for row in rows]

    def requeue(self, *, include_failed: bool = False) -> int:
        """Force leased (and optionally failed) shards back to pending.

        An operator tool for a queue whose workers are known dead: live
        leases are *not* distinguished from stale ones, so run it only
        when no worker is active. Requeued failed shards get a fresh
        attempt budget. Returns the number of shards reset.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                states = ("leased", "failed") if include_failed else ("leased",)
                marks = ",".join("?" for _ in states)
                cur = self._conn.execute(
                    f"UPDATE shards SET status = 'pending', owner = NULL, "
                    f"lease_expires = NULL, error = NULL, attempts = 0 "
                    f"WHERE status IN ({marks})",
                    states,
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return cur.rowcount

    def close(self) -> None:
        """Close the SQLite connection (the file keeps all state)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "WorkQueue":
        """Context-manager entry: the queue itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    def describe(self) -> str:
        """One-line status summary for CLI footers and logs."""
        c = self.counts()
        return (
            f"queue: {c['total']} shard(s) — {c['pending']} pending, "
            f"{c['leased']} leased, {c['done']} done, {c['failed']} failed "
            f"({c['retried']} retried, {c['reclaimed']} reclaimed)"
        )


# ----------------------------------------------------------------------
# job kinds: the one worker loop, collect step and fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobKind:
    """What the queue needs to know about one kind of job.

    ``queue`` is the name stored in the queue's meta. ``open(meta)`` is
    a context manager that sets one worker up from the meta (and tears
    it down) and yields ``run(start, stop) -> (rows, stats)`` for its
    shards; :meth:`WorkQueue.commit` stores what ``run`` returns.
    ``merge(queue)`` turns a settled queue into the job's result.
    """

    queue: str
    open: Callable[[Dict], ContextManager]
    merge: Callable[["WorkQueue"], object]


#: The closed table of job kinds: ``meta["queue"]`` -> ``module:name``
#: of its :class:`JobKind`, imported on first use. :mod:`repro.engine`
#: loads no campaign code, yet a process that imports only it can drain
#: any kind.
JOB_KINDS = {
    "census": "repro.engine.pipeline:CENSUS_JOB",
    "campaign": "repro.campaigns.runner:CAMPAIGN_JOB",
}


def job_kind(meta: Dict[str, object]) -> JobKind:
    """The :class:`JobKind` a queue's meta names.

    Raises :class:`QueueError` for a queue of any other kind, before a
    worker leases anything from it.
    """
    name = meta.get("queue")
    try:
        target = JOB_KINDS[name]
    except (KeyError, TypeError):
        raise QueueError(
            f"queue holds an unknown job kind {name!r} "
            f"(known: {', '.join(sorted(JOB_KINDS))})"
        ) from None
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


def queue_worker(
    queue_path: str,
    *,
    owner: Optional[str] = None,
    max_shards: Optional[int] = None,
    wait: bool = True,
    poll: float = 0.5,
    lease_ttl: Optional[float] = None,
) -> Dict[str, int]:
    """Drain shards from a queue of any job kind until it is finished.

    Opens the queue at ``queue_path``, sets up the job kind its meta
    names (:func:`job_kind`), and loops lease → run → commit. Each shard
    runs under :func:`heartbeat_guard`, so a slow shard is never
    reclaimed from a live worker, and inside a ``<kind>.shard`` span. An
    exception fails the shard back to the queue (retried elsewhere up to
    the attempt cap) and the worker moves on.

    With ``wait=True`` (the default) the worker polls every ``poll``
    seconds while peers hold live leases — if a peer dies, its shard
    expires and this worker picks it up — and returns once every shard
    is ``done`` or ``failed``. ``wait=False`` returns as soon as nothing
    is leasable. ``max_shards`` bounds how many shards this call
    commits; ``lease_ttl`` overrides the queue's stored one.

    Returns this worker's own accounting: ``shards`` and ``items``
    committed, plus the sum of those shards' stats. Safe to run many
    of these concurrently — in processes, threads, or across machines
    sharing the queue file's filesystem. Before returning, the worker
    writes its pending trace events (:func:`repro.obs.flush`): a forked
    worker exits without closing the tracer.
    """
    queue = WorkQueue(queue_path, lease_ttl=lease_ttl)
    totals = {"shards": 0, "items": 0}
    try:
        meta = queue.meta()
        kind = job_kind(meta)
        owner = owner or default_owner()
        with kind.open(meta) as run:
            while True:
                lease = queue.lease(owner)
                if lease is None:
                    if not wait or queue.finished():
                        break
                    time.sleep(poll)
                    continue
                try:
                    with heartbeat_guard(queue, lease), _obs_span(
                        f"{kind.queue}.shard", shard=lease.index, size=lease.size
                    ):
                        rows, stats = run(lease.start, lease.stop)
                except Exception as exc:
                    queue.fail(lease, f"{type(exc).__name__}: {exc}")
                    continue
                queue.commit(lease, rows, stats)
                totals["shards"] += 1
                totals["items"] += lease.size
                for key, value in stats.items():
                    totals[key] = totals.get(key, 0) + value
                if max_shards is not None and totals["shards"] >= max_shards:
                    break
    finally:
        queue.close()
        _obs_flush()
    return totals


def collect_queue(
    queue_or_path,
    *,
    wait: bool = True,
    poll: float = 0.5,
    timeout: Optional[float] = None,
    strict: bool = True,
):
    """Merge a queue's committed shards into its job's result.

    Opens a path (or borrows an open :class:`WorkQueue`) and returns
    what its job kind's merge makes of it: a
    :class:`~repro.engine.pipeline.CensusRun` or a
    :class:`~repro.campaigns.runner.CampaignRun`. With ``wait=True``
    (the default), polls every ``poll`` seconds until the queue is
    finished (every shard ``done`` or ``failed``), raising
    :class:`QueueError` after ``timeout`` seconds. ``strict=True``
    raises if any shard failed permanently; ``strict=False`` merges the
    done shards and leaves the failures to the caller (inspect
    :meth:`WorkQueue.failures`).

    Each done shard is read exactly once and every merge is independent
    of shard order, so the result equals the in-process run regardless
    of which worker computed which shard.
    """
    own = isinstance(queue_or_path, str)
    queue = WorkQueue(queue_or_path) if own else queue_or_path
    try:
        kind = job_kind(queue.meta())
        deadline = time.monotonic() + timeout if timeout is not None else None
        while wait and not queue.finished():
            if deadline is not None and time.monotonic() > deadline:
                raise QueueError(
                    f"queue {queue.path!r} not finished after {timeout}s: "
                    + queue.describe()
                )
            time.sleep(poll)
        failures = queue.failures()
        if failures and strict:
            detail = "; ".join(
                f"shard {idx}: {err}" for idx, err in failures[:5]
            )
            raise QueueError(
                f"{len(failures)} shard(s) failed permanently ({detail})"
            )
        return kind.merge(queue)
    finally:
        if own:
            queue.close()


def drain_with_local_workers(
    queue_path: str, worker, *, num_workers: int, poll: float
) -> None:
    """Run ``worker(queue_path, wait=False)`` in ``num_workers`` forks.

    Each worker exits once nothing is leasable. After joining them, the
    drain guard repeats the call in-process every ``poll`` seconds until
    the queue is finished, so a dead worker's shard is done here once
    its lease expires. A healthy run never sleeps.
    """
    import multiprocessing

    kwargs = {"wait": False}
    procs = [
        multiprocessing.Process(
            target=worker, args=(queue_path,), kwargs=kwargs, daemon=True
        )
        for _ in range(num_workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    with WorkQueue(queue_path) as check:
        while not check.finished():
            worker(queue_path, **kwargs)
            if not check.finished():
                time.sleep(poll)
