"""Batch classification core: one event loop, one classification worker.

The service turns many independent ``decide``/``elect`` requests into
few engine calls:

1. **Warm hits** — every submitted configuration is normalized and keyed
   (:mod:`repro.engine.keys`); if the shared
   :class:`~repro.engine.cache.ResultCache` already holds a sufficient
   record the ticket resolves immediately, with no queueing or
   classification.
2. **Batching** — cold misses enter a *bounded* :class:`asyncio.Queue`.
   A single dispatcher coroutine takes whatever is queued when it runs
   (up to ``max_batch`` items; there is no straggler timer) and looks
   the batch up through the engine's
   :class:`~repro.engine.pipeline.BatchLookup` — which coalesces
   duplicate keys inside the batch and answers records cached since
   submission. Only the unique remainder leaves the loop: one worker
   thread classifies it while the loop keeps admitting requests and
   answering warm hits, and the records are written back to the cache
   on the loop for every later request. Requests that arrive while a
   batch classifies form the next batch.
3. **Backpressure** — when the queue holds ``max_pending`` items,
   ``submit`` blocks (the async core awaits; the sync facade's
   ``submit`` call does not return) until the dispatcher drains. Memory
   is bounded by ``max_pending`` plus one in-flight batch; producers are
   slowed instead of the process growing without bound.

The loop runs on the facade's daemon thread, and the HTTP server
(:mod:`repro.service.server`) serves on the same loop, awaiting the
core's admission directly. Keys, cache reads and writes, counters,
``on_batch`` and ticket resolution all stay on that thread, so the
cache and the counters need no lock.

Determinism: record values come from :func:`repro.engine.census_record`
via the cache, so a response is a pure function of the configuration and
mode — independent of batch composition, arrival order, cache warmth,
and worker count — and bit-for-bit equal to serial
:func:`repro.core.feasibility.decide` / ``elect`` reports
(:func:`repro.service.schema.serial_report`).

    >>> from repro.core.configuration import Configuration
    >>> from repro.service import BatchClassifier
    >>> with BatchClassifier() as svc:
    ...     tickets = [svc.submit(Configuration([(0, 1)], {0: 0, 1: s}))
    ...                for s in (1, 2, 3)]
    ...     [t.result()["feasible"] for t in tickets]
    [True, True, True]
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.classifier import resolve_algorithm
from ..core.configuration import Configuration
from ..engine.cache import ResultCache
from ..engine.keys import Keyer, default_keyer
from ..engine.pipeline import BatchLookup, EngineStats, record_sufficient
from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry
from ..obs.runtime import span as _obs_span
from .schema import MODES, record_to_report

#: Registry heartbeat name of the dispatcher loop (see ``/metrics``).
DISPATCHER_HEARTBEAT = "service.dispatcher"


def keys_digest(keys: Sequence[str]) -> str:
    """Short stable digest of a request/batch key set (12 hex chars).

    The correlation token between the server's request spans and the
    dispatcher's ``service.batch`` spans: both sides stamp the digest of
    the keys they carry into their span attrs and structured logs, so a
    request can be matched to the batch that classified it without the
    two sharing any in-process state. Order-insensitive (keys are
    sorted first).
    """
    h = hashlib.sha256("\n".join(sorted(keys)).encode("utf-8"))
    return h.hexdigest()[:12]


class ServiceClosedError(RuntimeError):
    """Submit was called on a closed :class:`BatchClassifier`."""


class ServiceSaturatedError(RuntimeError):
    """Admission was refused: the cold-miss queue cannot take the batch.

    Raised by the non-blocking admission path (the batch core's
    ``admit_many``, which the HTTP server awaits) when a request batch
    holds more cache misses than the bounded queue has free slots. Where the
    blocking ``submit`` path would *stall* the caller (backpressure),
    admission converts saturation into an immediate, explicit error the
    HTTP server maps to ``429 Too Many Requests`` + ``Retry-After``.
    """

    def __init__(
        self, pending: int, capacity: int, needed: int, retry_after: float = 1.0
    ) -> None:
        super().__init__(
            f"queue saturated: {needed} cold item(s) will not fit "
            f"({pending}/{capacity} pending); retry in {retry_after:g}s"
        )
        self.pending = pending  #: queued cold misses at refusal time
        self.capacity = capacity  #: the queue bound (``max_pending``)
        self.needed = needed  #: cold slots the refused batch required
        self.retry_after = retry_after  #: suggested client backoff, seconds


class ServiceUnresponsiveError(RuntimeError):
    """A timed wait on the dispatcher expired (or its loop is dead).

    Distinguishes "the service is busy" from "the service will never
    answer": the message carries the event loop thread's liveness and
    the queue state at the moment of the timeout, so a hung caller gets
    a diagnosis instead of an opaque ``TimeoutError`` — or, worse, the
    pre-fix behavior of blocking forever on a dead event loop.
    """


@dataclass
class ServiceStats:
    """Accounting for one classifier instance.

    ``engine`` carries the cache/coalescing counters
    (:class:`~repro.engine.pipeline.EngineStats`); the remaining fields
    count service-level events.
    """

    engine: EngineStats = field(default_factory=EngineStats)
    submitted: int = 0  #: tickets issued
    fast_hits: int = 0  #: resolved at submit time, bypassing the queue
    batches: int = 0  #: dispatcher batches executed
    largest_batch: int = 0  #: most items ever drained into one batch
    rejected: int = 0  #: requests refused by saturation admission control
    cancelled: int = 0  #: queued items abandoned before classification

    def describe(self) -> str:
        """One-line summary for CLI footers and ``/stats``."""
        e = self.engine
        return (
            f"service: {self.submitted} requests, {self.fast_hits} fast hits, "
            f"{self.batches} batch(es) (largest {self.largest_batch}), "
            f"{e.classified} classified, {e.cache_hits} cache hits, "
            f"{e.deduped} coalesced"
        )

    def as_dict(self) -> Dict:
        """JSON-ready service-level counters (nested under ``service``
        in response ``meta``)."""
        return {
            "submitted": self.submitted,
            "fast_hits": self.fast_hits,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
        }


@dataclass(frozen=True)
class Ticket:
    """Handle for one submitted request (submit/gather semantics)."""

    mode: str
    key: str
    future: Future  #: resolves to the engine record dict

    def result(self, timeout: Optional[float] = None) -> Dict:
        """Block until classified; returns the engine record.

        The record is a *copy*: the cache's entry is shared by every
        coalesced request (and by census runs against the same file),
        so callers get a dict they may freely mutate without poisoning
        anyone else's responses.
        """
        return dict(self.future.result(timeout))

    def report(self, timeout: Optional[float] = None) -> Dict:
        """Block until classified; returns the mode-shaped wire report."""
        return record_to_report(self.result(timeout), self.mode)

    def done(self) -> bool:
        """True once the record is available (or the request failed)."""
        return self.future.done()

    def cancel(self) -> bool:
        """Abandon a still-pending request (deadline/disconnect unwind).

        Returns True when the underlying future was cancelled before
        the dispatcher resolved it. A cancelled item that is still in
        the queue is dropped by the dispatcher without being classified
        — this is how the HTTP server's per-request deadline frees its
        batcher slots. Cancelling an already-resolved ticket is a
        harmless no-op (returns False).
        """
        return self.future.cancel()


@dataclass(frozen=True)
class _Item:
    """One queued cold miss."""

    config: Configuration  #: normalized
    key: str
    measure_rounds: bool
    future: Future


class _AsyncBatchCore:
    """The asyncio side: bounded queue, dispatcher, classification worker.

    Runs on one event loop (the facade hosts it on a daemon thread, and
    the HTTP server serves on the same loop). Keys, cache reads and
    writes, counters, ``on_batch`` and ticket resolution all run on that
    loop's thread; only the classification of a batch's unique misses
    runs on the worker thread. Results travel through thread-safe
    :class:`concurrent.futures.Future` objects so synchronous callers
    can wait on them directly; async callers can wrap a ticket's future
    with :func:`asyncio.wrap_future`.
    """

    def __init__(
        self,
        cache: ResultCache,
        stats: ServiceStats,
        *,
        keyer: Keyer,
        max_batch: int,
        max_pending: int,
        algorithm: str,
        on_batch: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.cache = cache
        self.stats = stats
        self.keyer = keyer
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.algorithm = algorithm
        self.on_batch = on_batch
        # Created lazily on the loop thread (see _ensure_queue): on
        # Python 3.9 an asyncio.Queue binds the *constructing* thread's
        # event loop, so building it here — on the facade's caller
        # thread — would wire it to the wrong loop (or none at all).
        self.queue: "Optional[asyncio.Queue[Optional[_Item]]]" = None
        self.closing = False  #: set by :meth:`stop`; admission refuses
        self._stop_requested = False
        # Enqueue coroutines currently executing (possibly suspended on
        # a full queue). The dispatcher only exits when a requested stop
        # finds no in-flight producer and an empty queue: a sentinel can
        # overtake the later puts of a backpressure-suspended
        # enqueue_many (each re-await joins the waiter FIFO behind it),
        # so "saw the sentinel" alone must never terminate the loop.
        self._inflight = 0
        #: ``(monotonic start, count)`` of the misses on the worker thread
        #: (set on the loop thread; read by timeout diagnoses)
        self.classifying: Optional[Tuple[float, int]] = None
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-classify"
        )

    @contextmanager
    def _track_inflight(self):
        """Count a producer as in-flight for the scope, releasing the
        shutdown wake-up sentinel when the last one finishes.

        This is the subtle half of the drained-shutdown contract (see
        :meth:`run`): the dispatcher may be parked in ``queue.get()``
        waiting for in-flight producers to finish, so the last one out
        must wake it.
        """
        self._inflight += 1
        try:
            yield
        finally:
            self._inflight -= 1
            if self._stop_requested and self._inflight == 0:
                try:
                    self._ensure_queue().put_nowait(None)
                except asyncio.QueueFull:
                    pass  # dispatcher is mid-drain and will re-check

    def _ensure_queue(self) -> "asyncio.Queue[Optional[_Item]]":
        """The pending queue, created on first use.

        Only ever called from coroutines running on the dispatcher's
        loop, so the queue always binds that loop regardless of which
        thread built the facade (and of the Python version's Queue
        loop-binding behavior).
        """
        if self.queue is None:
            self.queue = asyncio.Queue(maxsize=self.max_pending)
        return self.queue

    def _lookup(self, config: Configuration, measure_rounds: bool):
        """``(normalized, key, sufficient cached record or None)``."""
        normalized = config.normalize()
        key = self.keyer(normalized)
        record = self.cache.get(key)
        if not record_sufficient(record, measure_rounds):
            record = None
        return normalized, key, record

    def _make_ticket(self, mode: str, normalized, key: str, record):
        """A ticket, already resolved for a warm hit, and the cold
        miss's queue item (None for a warm hit)."""
        future: Future = Future()
        self.stats.submitted += 1
        item = None
        if record is not None:
            self.stats.fast_hits += 1
            self.stats.engine.cache_hits += 1
            future.set_result(record)
        else:
            item = _Item(normalized, key, mode == "elect", future)
        return Ticket(mode=mode, key=key, future=future), item

    async def enqueue_many(
        self, configs: Sequence[Configuration], mode: str
    ) -> List[Ticket]:
        """Key requests; resolve warm hits inline, queue cold misses.

        Suspends only on a full queue, exerting backpressure on the
        submitter; while the queue has room the call never yields to
        the loop, so its misses land in one batch. Holds the in-flight
        guard for the whole call: a concurrent shutdown must not
        conclude that no producer is mid-batch.
        """
        measure_rounds = mode == "elect"
        queue = self._ensure_queue()
        tickets: List[Ticket] = []
        with self._track_inflight():
            for config in configs:
                ticket, item = self._make_ticket(
                    mode, *self._lookup(config, measure_rounds)
                )
                if item is not None:
                    await queue.put(item)  # suspends only when full
                tickets.append(ticket)
        return tickets

    async def admit_many(
        self,
        configs: Sequence[Configuration],
        mode: str,
        retry_after: float = 1.0,
    ) -> List[Ticket]:
        """Admission-controlled :meth:`enqueue_many`: never suspends.

        Where :meth:`enqueue_many` *awaits* a full queue (backpressure),
        this path refuses outright: the whole batch is keyed and looked
        up first, and if its cold misses exceed the queue's free slots a
        :class:`ServiceSaturatedError` is raised — before any item is
        queued or any ticket made, so a refused batch leaves no
        partial state behind. It never yields to the loop, which makes
        check-then-admit race-free and lands the admitted misses in one
        batch. The HTTP server's handlers await it directly; after
        :meth:`stop` it raises :class:`ServiceClosedError`.
        """
        if self.closing:
            raise ServiceClosedError("BatchClassifier is closed")
        measure_rounds = mode == "elect"
        prepared = [self._lookup(config, measure_rounds) for config in configs]
        queue = self._ensure_queue()
        cold = sum(1 for _, _, record in prepared if record is None)
        if cold > self.max_pending - queue.qsize():
            self.stats.rejected += len(prepared)
            raise ServiceSaturatedError(
                pending=queue.qsize(),
                capacity=self.max_pending,
                needed=cold,
                retry_after=retry_after,
            )
        tickets: List[Ticket] = []
        for normalized, key, record in prepared:
            ticket, item = self._make_ticket(mode, normalized, key, record)
            if item is not None:
                queue.put_nowait(item)
            tickets.append(ticket)
        return tickets

    async def stop(self) -> None:
        """Refuse further admissions; queue the shutdown sentinel behind
        every pending item."""
        self.closing = True
        await self._ensure_queue().put(None)

    def _drain_batch(self, first: _Item) -> List[_Item]:
        """``first`` plus whatever is queued now, up to ``max_batch``.

        There is no straggler timer: requests that arrive while this
        batch classifies form the next one.
        """
        batch = [first]
        queue = self._ensure_queue()
        while len(batch) < self.max_batch and not queue.empty():
            item = queue.get_nowait()
            if item is None:  # shutdown sentinel mid-drain: note and finish
                self._stop_requested = True
                break
            batch.append(item)
        return batch

    async def _classify(self, batch: Sequence[_Item]) -> None:
        """Classify one drained batch and resolve its futures.

        ``decide`` and ``elect`` items are classified in separate
        sub-batches so a cheap decision request never pays for another
        request's election simulation. The elect sub-batch runs first:
        a rounds-bearing record satisfies a later decide lookup of the
        same key, while the reverse order would classify such a key
        twice (once without rounds, once upgrading). Only the
        classification of the unique misses leaves the loop.
        """
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        if self.on_batch is not None:
            self.on_batch(len(batch))
        # Items cancelled while queued (request deadline, client
        # disconnect) are dropped here: their queue slot was freed by
        # the drain, and skipping them keeps abandoned work from
        # occupying the classifier. The registry counter is
        # unconditional (low-frequency) so /metrics sees abandonment
        # without tracing being on.
        live = [it for it in batch if not it.future.cancelled()]
        dropped = len(batch) - len(live)
        self.stats.cancelled += dropped
        if dropped:
            _registry.inc("service.cancelled_tickets", dropped)
        digest = keys_digest([it.key for it in live]) if _OBS.enabled else None
        loop = asyncio.get_running_loop()
        with _obs_span(
            "service.batch", items=len(batch), keys_digest=digest
        ) as sp:
            for measure_rounds in (True, False):
                group = [
                    it for it in live if it.measure_rounds is measure_rounds
                ]
                if not group:
                    continue
                try:
                    # configs were normalized and keyed at submit time
                    lookup = BatchLookup(
                        [it.config for it in group],
                        self.cache,
                        measure_rounds=measure_rounds,
                        stats=self.stats.engine,
                        precomputed_keys=[it.key for it in group],
                    )
                    classified: List[Dict] = []
                    if lookup.misses:
                        sp.add("classified", len(lookup.misses))
                        started = time.monotonic()
                        self.classifying = (started, len(lookup.misses))
                        try:
                            # in a copy of this task's context, as
                            # asyncio.to_thread does: the worker's spans
                            # (batch.kernel) nest under service.batch
                            classified = await loop.run_in_executor(
                                self._worker,
                                contextvars.copy_context().run,
                                lookup.classify,
                                self.algorithm,
                            )
                        finally:
                            self.classifying = None
                    records = lookup.complete(classified)
                except Exception as exc:  # classification bug: fail the group
                    sp.add("failed", len(group))
                    for it in group:
                        if not it.future.done():
                            it.future.set_exception(exc)
                    continue
                for it, record in zip(group, records):
                    # a future can be cancelled between the drain filter
                    # and here; set_running_or_notify_cancel claims it
                    # exactly once (False = the submitter walked away)
                    if it.future.set_running_or_notify_cancel():
                        it.future.set_result(record)
                    else:
                        self.stats.cancelled += 1
                        _registry.inc("service.cancelled_tickets")

    async def run(self) -> None:
        """Dispatcher loop: drain, classify, repeat until drained shutdown.

        A consumed sentinel only *requests* the stop; the loop exits
        when the request coincides with an empty queue and no in-flight
        enqueue — so a producer suspended on a full queue (whose later
        puts the sentinel can overtake) always gets drained and every
        ticket handed out resolves. One batch classifies at a time: that is
        the backpressure contract.
        """
        queue = self._ensure_queue()
        _registry.heartbeat(DISPATCHER_HEARTBEAT)
        try:
            while True:
                first = await queue.get()
                # One heartbeat per loop wake-up (per batch, not per
                # item): cheap enough to run unconditionally, and it
                # gives timeout diagnoses and /metrics a liveness signal
                # even untraced.
                _registry.heartbeat(DISPATCHER_HEARTBEAT)
                if first is not None:
                    await self._classify(self._drain_batch(first))
                else:
                    self._stop_requested = True
                if self._stop_requested and not self._inflight and queue.empty():
                    break
        finally:
            self._worker.shutdown(wait=False)


class BatchClassifier:
    """Synchronous facade over the asyncio batch core.

    Owns a daemon thread running the event loop, a shared
    :class:`~repro.engine.cache.ResultCache` (pass one to persist or
    share with a census), the dispatcher and its classification worker
    thread. Thread-safe: any number of threads may ``submit``
    concurrently, and their requests coalesce into common batches. The
    HTTP server (:mod:`repro.service.server`) serves on the same loop
    and admits its requests there directly.

    Parameters
    ----------
    cache:
        shared result cache; a private in-memory one is created when
        omitted. Use a JSONL-backed cache to persist across restarts —
        the records are the same shape the census pipeline writes, so a
        census run pre-warms the service and vice versa.
    max_batch:
        most requests classified in one engine call. A batch is
        whatever is queued when the dispatcher runs, up to this bound.
    max_pending:
        bound of the cold-miss queue; submits beyond it block
        (backpressure) until the dispatcher catches up.
    keyer:
        request coalescing granularity; the default collapses
        tag-preserving isomorphs at any size via the refinement
        canonizer (:mod:`repro.canon`), whose memo makes repeat keying
        of warm traffic O(n + m).
    algorithm:
        classifier implementation for cold misses (see
        :func:`repro.core.classifier.classify`); responses are
        bit-for-bit identical for every choice, so the knob is a pure
        throughput decision. ``auto`` (the default) resolves per
        cold miss-batch to the vectorized batch kernel when numpy is
        importable, and to the compiled core otherwise (see
        :func:`repro.engine.batch_records`).
    on_batch:
        optional observer called with each executed batch's size (on
        the loop thread). A server left with ``None`` here wires in the
        ``service.batch_size`` histogram of its own registry.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        max_batch: int = 64,
        max_pending: int = 1024,
        keyer: Keyer = default_keyer,
        algorithm: str = "auto",
        on_batch: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        # Validate at build time, but keep the raw knob: the lookup
        # resolves "auto" per miss-batch (vectorized kernel when numpy is
        # available, compiled core otherwise), so collapsing it here would
        # pin the service to the single-configuration default.
        resolve_algorithm(algorithm)
        self.cache = cache if cache is not None else ResultCache()
        self.stats = ServiceStats()
        self._closed = False
        # Serializes submits against close(): a submit that passed the
        # closed check must finish scheduling before the sentinel can be
        # queued, or its coroutine could land on a stopped loop and its
        # ticket would never resolve.
        self._submit_lock = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._core = _AsyncBatchCore(
            self.cache,
            self.stats,
            keyer=keyer,
            max_batch=max_batch,
            max_pending=max_pending,
            algorithm=algorithm,
            on_batch=on_batch,
        )
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._core.run())
        except RuntimeError:
            # the loop was stopped out from under the dispatcher; the
            # thread dies quietly and submit() diagnoses it
            # (ServiceUnresponsiveError) instead of a daemon-thread
            # traceback racing the diagnosis
            pass
        # reap what is left (the dispatcher after an external stop, a
        # server's tasks when the classifier closes under it)
        try:
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
        except RuntimeError:  # pragma: no cover - stopped again
            pass

    # ------------------------------------------------------------------
    # submit / gather
    # ------------------------------------------------------------------
    def _schedule(self, mode: str, coro) -> "Future":
        """Validate the mode, guard against close, schedule ``coro``.

        The lock covers only closed-check + scheduling, NOT the result
        wait: call_soon_threadsafe is FIFO (and queue waiters are
        FIFO), so an enqueue scheduled before close()'s sentinel lands
        ahead of it, while a backpressure-blocked submit never stalls
        other submitters or close(). The returned handle's ``result()``
        blocks while the pending queue is full — that is the
        backpressure surface of :meth:`submit`/:meth:`submit_many`.
        """
        if mode not in MODES:
            coro.close()
            raise ValueError(f'unknown mode {mode!r} (choose "decide" or "elect")')
        with self._submit_lock:
            if self._closed:
                coro.close()
                raise ServiceClosedError("BatchClassifier is closed")
            if not self._thread.is_alive():
                coro.close()
                raise ServiceUnresponsiveError(
                    "event loop thread is dead (the loop crashed or was "
                    "stopped externally); the classifier cannot accept work"
                )
            return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def _diagnosis(self) -> str:
        """One-line dispatcher state for timeout errors.

        The heartbeat is beaten once per dispatcher wake-up, so while
        one long batch classifies it ages exactly as on a wedged loop.
        The batch in flight tells the two apart: "classifying N item(s)
        for X s" is a busy worker thread; "no batch in flight" with an
        old heartbeat and pending requests is a wedged loop.
        """
        queue = self._core.queue
        age = _registry.heartbeat_age(DISPATCHER_HEARTBEAT)
        heartbeat = "never" if age is None else f"{age:.3f}s ago"
        classifying = self._core.classifying
        batch = (
            "no batch in flight"
            if classifying is None
            else f"classifying {classifying[1]} item(s) for "
            f"{time.monotonic() - classifying[0]:.3f}s"
        )
        return (
            f"event loop thread alive={self._thread.is_alive()}, "
            f"closed={self._closed}, "
            f"pending={queue.qsize() if queue is not None else 0}"
            f"/{self._core.max_pending}, "
            f"last heartbeat {heartbeat}, {batch}"
        )

    def _await_handle(self, handle: "Future", timeout: Optional[float]):
        """Wait for a scheduled coroutine's handle, converting an opaque
        timeout into a diagnostic :class:`ServiceUnresponsiveError`."""
        try:
            return handle.result(timeout)
        except FuturesTimeoutError:
            handle.cancel()
            raise ServiceUnresponsiveError(
                f"dispatcher did not accept the request within {timeout}s "
                f"({self._diagnosis()}); either the queue is saturated "
                "(backpressure) or the event loop is wedged"
            ) from None

    def submit(
        self,
        config: Configuration,
        *,
        mode: str = "decide",
        timeout: Optional[float] = None,
    ) -> Ticket:
        """Submit one configuration; returns a :class:`Ticket`.

        Returns as soon as the request is keyed and either resolved
        (warm hit) or enqueued — blocking only when the pending queue is
        full. ``mode`` is ``"decide"`` or ``"elect"``. ``timeout``
        bounds that blocking: when the dispatcher has not accepted the
        request in time (saturated queue, wedged loop), a
        :class:`ServiceUnresponsiveError` is raised instead of waiting
        forever; a dispatcher whose loop has *died* is diagnosed
        immediately, whatever the timeout.
        """
        return self.submit_many([config], mode=mode, timeout=timeout)[0]

    def submit_many(
        self,
        configs: Iterable[Configuration],
        *,
        mode: str = "decide",
        timeout: Optional[float] = None,
    ) -> List[Ticket]:
        """Submit a whole batch with one loop round-trip.

        Semantically identical to calling :meth:`submit` per item, but
        the keying/lookup loop runs on the dispatcher's event loop in
        one hop, and its cold misses land in one batch while the queue
        has room — this is the high-throughput path for warm
        duplicate-heavy workloads, where per-request thread handoff
        would otherwise dominate (the E20 benchmark measures exactly
        this). Blocks while the pending queue is full, like
        :meth:`submit`, and honors the same ``timeout`` diagnostics.
        """
        configs = list(configs)
        return self._await_handle(
            self._schedule(mode, self._core.enqueue_many(configs, mode)),
            timeout,
        )

    def gather(self, tickets: Iterable[Ticket], timeout: Optional[float] = None
               ) -> List[Dict]:
        """Engine records for ``tickets``, in ticket order (blocking).

        ``timeout`` applies per ticket; an expiry raises
        :class:`ServiceUnresponsiveError` carrying the offending
        ticket's key and the dispatcher's state, so a wedged or dead
        loop is diagnosed instead of blocking callers forever.
        """
        records = []
        for t in tickets:
            try:
                records.append(t.result(timeout))
            except FuturesTimeoutError:
                raise ServiceUnresponsiveError(
                    f"ticket for key {t.key!r} ({t.mode}) unresolved after "
                    f"{timeout}s ({self._diagnosis()})"
                ) from None
        return records

    def classify_many(
        self,
        configs: Iterable[Configuration],
        *,
        mode: str = "decide",
        timeout: Optional[float] = None,
    ) -> List[Dict]:
        """Submit a whole batch and gather its records, in input order."""
        return self.gather(self.submit_many(configs, mode=mode), timeout)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, drain the dispatcher, join the thread.

        Idempotent. Already-submitted tickets still resolve — the
        shutdown sentinel queues *behind* pending items (the submit
        lock guarantees no submit is mid-schedule when it is sent, so
        no ticket can land behind the sentinel and hang). With the
        default ``timeout=None`` the call blocks until the drain is
        complete; with a finite timeout it may return while the
        dispatcher is still draining — the dispatcher is never aborted
        mid-drain, so pending tickets still resolve, but the (daemon)
        loop thread is then left to finish on its own and its loop is
        not closed. A server still serving on the loop stops with it:
        shut the server down first.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        if not self._thread.is_alive():
            # the dispatcher already died (externally stopped/crashed
            # loop): there is nothing left to drain — just free the loop
            if not self._loop.is_closed():
                self._loop.close()
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._core.stop(), self._loop
            ).result(timeout)
        except FuturesTimeoutError:
            pass  # the put stays scheduled; the dispatcher will see it
        self._thread.join(timeout)
        if not self._thread.is_alive():
            self._loop.close()

    @property
    def on_batch(self) -> Optional[Callable[[int], None]]:
        """The per-batch size observer (settable after construction, so
        the HTTP server can attach its histogram to a classifier built
        by the CLI)."""
        return self._core.on_batch

    @on_batch.setter
    def on_batch(self, observer: Optional[Callable[[int], None]]) -> None:
        self._core.on_batch = observer

    def __enter__(self) -> "BatchClassifier":
        """Context-manager entry: the classifier itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    def describe(self) -> str:
        """One-line stats summary (service + cache)."""
        return f"{self.stats.describe()}; {self.cache.describe()}"

    def meta(self) -> Dict:
        """The hit/miss/collapse accounting shipped in response ``meta``.

        Three nested counter groups: ``service`` (requests, fast hits,
        batches), ``engine`` (classifications, cache hits, isomorphism
        coalescing), and ``cache`` (the shared
        :class:`~repro.engine.cache.CacheStats` counters plus the
        current entry count). Values are cumulative for this classifier
        instance — a snapshot taken when the response is assembled, so
        clients can watch their own traffic turn into cache hits.
        """
        cache = dict(self.cache.stats.as_dict(), entries=len(self.cache))
        return {
            "service": self.stats.as_dict(),
            "engine": self.stats.engine.as_dict(),
            "cache": cache,
        }
