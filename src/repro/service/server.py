"""``repro-radio serve``: a pure-asyncio HTTP front end for real traffic.

The server is built directly on :func:`asyncio.start_server` (stdlib
only, no third-party dependencies) and serves on the event loop of its
:class:`~repro.service.batcher.BatchClassifier`: HTTP handlers await the
batch core's admission directly on that loop, and only the
classification of a batch's cold misses leaves it, for one worker
thread. Warm hits, deadlines, ``/healthz`` and ``/metrics`` keep
answering while a batch classifies, and one saturated client can never
wedge the accept loop. Saturation and slowness have *defined* behavior:

* **Connection limit** — at most ``max_connections`` concurrent
  connections; extras receive an immediate ``503`` and are closed.
* **Request deadline** — every request (including reading its body)
  must finish within ``request_timeout`` seconds. A slow-loris body
  gets ``408``; a deadline hit during classification gets ``503`` and
  the request's pending batcher tickets are *cancelled*, freeing their
  queue slots instead of leaking them.
* **Admission control** — when a batch's cold misses exceed the
  bounded queue's free capacity, the server answers ``429 Too Many
  Requests`` with a parseable ``Retry-After`` header (the library
  ``submit`` path keeps its blocking-backpressure contract; HTTP
  callers get the fail-fast contract).
* **Graceful drain** — shutdown stops accepting, cuts idle keep-alive
  connections, and gives in-flight requests ``drain_timeout`` seconds
  to complete before cancelling stragglers; no response is dropped.
* **Observability** — ``GET /metrics`` renders the server's own
  :class:`~repro.obs.registry.MetricsRegistry` (HTTP counters, the
  classifier's counter groups, latency/batch-size histograms) and then
  the process registry in Prometheus text format, and every request
  emits one structured JSON log line to stderr (suppressed by ``quiet``).

Routes:

* ``POST /classify`` — body is one request object or
  ``{"requests": [...]}`` (see :mod:`repro.service.schema`); responds
  with one response object or ``{"ok": true, "responses": [...]}``.
  Item-level failures (malformed configuration) become per-item
  ``{"ok": false, ...}`` entries — one bad request never fails a batch.
  Successful responses carry a ``meta`` object with the classifier's
  cumulative hit/miss/collapse counters
  (:meth:`~repro.service.batcher.BatchClassifier.meta`).
* ``GET /healthz`` — liveness: ``{"ok": true, "service": ...}``.
* ``GET /stats`` — the service/cache accounting counters as JSON.
* ``GET /metrics`` — Prometheus text exposition.

Walkthroughs (curl and a Python client) live in ``docs/service.md``;
the E25 load benchmark (``benchmarks/bench_e25_service_load.py``) gates
sustained RPS, tail latency, and 429-on-saturation.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import sys
import time
from concurrent.futures import CancelledError as FuturesCancelledError
from typing import Dict, List, Optional, Tuple

from ..obs.registry import METRICS_CONTENT_TYPE, MetricsRegistry
from ..obs.runtime import STATE as _OBS
from ..obs.runtime import current_span_id as _obs_current_span_id
from ..obs.runtime import event as _obs_event
from ..obs.runtime import registry as _registry
from ..obs.runtime import span as _obs_span
from .batcher import (
    BatchClassifier,
    ServiceClosedError,
    ServiceSaturatedError,
    Ticket,
    keys_digest,
)
from .schema import (
    MODES,
    RequestError,
    error_response,
    parse_request,
    requests_from_body,
    response_for,
)

#: Largest accepted POST body, in bytes (8 MiB): bounds per-connection
#: memory the same way ``max_pending`` bounds the classification queue.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Server identity served by ``/healthz`` and the ``Server`` header.
SERVER_VERSION = "repro-radio-serve/2.0"

#: Default concurrent-connection cap (``--max-connections``).
DEFAULT_MAX_CONNECTIONS = 128

#: Default per-request deadline, seconds (``--request-timeout``).
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default graceful-drain budget, seconds (``--drain-timeout``).
DEFAULT_DRAIN_TIMEOUT = 5.0

#: Buckets of the ``service.batch_size`` histogram: powers of two up to
#: the usual ``max_batch`` ceiling.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _ConnState:
    """Mutable per-connection bookkeeping for the drain protocol."""

    __slots__ = ("busy", "peer")

    def __init__(self, peer: str) -> None:
        self.busy = False  #: a request is mid-flight on this connection
        self.peer = peer  #: "host:port" of the client, for log lines


class _RequestAborted(Exception):
    """Internal: the request cannot proceed; a response was (or will
    be) written and the connection must close."""

    def __init__(self, status: int, payload: Dict, respond: bool = True):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.respond = respond


class ClassificationServer:
    """Asyncio HTTP server on its classifier's event loop.

    The constructor binds the listening socket immediately (``port=0``
    picks a free port; ``server_address`` is the bound address), but
    accepting starts in :meth:`serve_forever`, which blocks until
    :meth:`shutdown` (thread-safe) completes the graceful drain. Call
    it on any thread: the handlers run on the classifier's loop thread
    either way. :meth:`server_close` releases the listening socket. The
    surface deliberately mirrors ``socketserver``, so callers written
    against it work unchanged.

    :attr:`metrics` is a ``MetricsRegistry(prefix="repro")`` that
    belongs to this server alone, so its counts start at zero.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        classifier: BatchClassifier,
        *,
        quiet: bool = False,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        self.classifier = classifier
        self.quiet = quiet
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.metrics = m = MetricsRegistry(prefix="repro")
        m.register_group("service", classifier.stats.as_dict)
        m.register_group("engine", classifier.stats.engine.as_dict)
        cache = classifier.cache
        m.register_group(
            "cache", lambda: dict(cache.stats.as_dict(), entries=len(cache))
        )
        for name in ("requests", "rejected_saturated",
                     "rejected_connections", "deadline_hits"):
            m.counter(f"http.{name}")  # listed from the first scrape on
        m.histogram("http.request_latency_seconds")
        batch_sizes = m.histogram("service.batch_size", BATCH_SIZE_BUCKETS)
        # batch sizes are recorded on the loop thread; attach the
        # histogram unless the caller wired an observer already
        if classifier.on_batch is None:
            classifier.on_batch = batch_sizes.observe
        self._connections: Dict["asyncio.Task", _ConnState] = {}
        self._draining = False
        self._loop = classifier._loop

        async def _bind() -> "asyncio.AbstractServer":
            # built on the loop: a 3.9 asyncio.Event binds the
            # constructing thread's loop
            self._drained = asyncio.Event()
            return await asyncio.start_server(
                self._handle_connection, sock=sock, start_serving=False
            )

        # Listening from here on, like socketserver; connections wait in
        # the backlog until serve_forever() starts accepting. The explicit
        # IPPROTO_TCP lets asyncio set TCP_NODELAY on accepted sockets.
        family = socket.AF_INET6 if ":" in address[0] else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM, socket.IPPROTO_TCP)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(address)
            sock.listen(100)
            self._server = self._call(_bind())
        except BaseException:
            sock.close()
            raise
        self.server_address = sock.getsockname()[:2]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _call(self, coro):
        """Run ``coro`` on the classifier's loop and return its result."""
        if not self.classifier._thread.is_alive():
            coro.close()
            raise ServiceClosedError("the classifier's event loop has stopped")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`shutdown` completes the graceful
        drain. Blocking; run it on a thread to serve in the background
        (the tests and docs do exactly that). Returns at once after a
        shutdown, or when the classifier is closed under the server."""
        try:
            self._call(self._serve())
        except (ServiceClosedError, FuturesCancelledError):
            pass  # the classifier closed; its loop reaped the serve task

    async def _serve(self) -> None:
        if not self._draining:
            await self._server.start_serving()
        await self._drained.wait()

    def shutdown(self) -> None:
        """Drain gracefully and wait for serving to stop.

        Thread-safe and idempotent. In-flight requests get
        ``drain_timeout`` seconds to finish; idle keep-alive
        connections are closed immediately; new connections are
        refused. The drain runs on the classifier's loop whether or not
        :meth:`serve_forever` ever ran.
        """
        try:
            self._call(self._drain())
        except ServiceClosedError:
            pass  # the loop is gone, and its connections with it

    def server_close(self) -> None:
        """Release the listening socket if :meth:`shutdown` has not (the
        loop belongs to the classifier, which its owner closes)."""
        if self.classifier._thread.is_alive():
            self._loop.call_soon_threadsafe(self._server.close)

    @property
    def connection_count(self) -> int:
        """Currently-open client connections (the limit's measure)."""
        return len(self._connections)

    async def _drain(self) -> None:
        """Stop accepting, cut idle connections, wait out busy ones (a
        second call waits for the first one's drain)."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        for task, state in list(self._connections.items()):
            if not state.busy:
                task.cancel()
        tasks = [t for t in list(self._connections) if not t.done()]
        abandoned = 0
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=self.drain_timeout)
            abandoned = len(pending)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        self._log(event="drain", abandoned=abandoned)
        self._drained.set()

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _log(self, **fields: object) -> None:
        """One structured JSON log line to stderr (unless quiet).

        When tracing is on, the enclosing request span's id is added as
        ``span`` — the hook that correlates log lines with the run-event
        log (and, via each batch span's ``keys_digest`` attr, with the
        dispatcher batch that served the request).
        """
        if self.quiet:
            return
        record = {"ts": round(time.time(), 3), "service": SERVER_VERSION}
        if _OBS.enabled:
            span_id = _obs_current_span_id()
            if span_id is not None:
                record["span"] = span_id
        record.update({k: v for k, v in fields.items() if v is not None})
        print(json.dumps(record, separators=(",", ":")), file=sys.stderr)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        task = asyncio.current_task()
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        state = _ConnState(peer)
        self._connections[task] = state
        try:
            if self._draining:
                return
            if len(self._connections) > self.max_connections:
                self.metrics.inc("http.rejected_connections")
                await self._respond(
                    writer,
                    state,
                    503,
                    error_response(
                        f"connection limit ({self.max_connections}) reached"
                    ),
                    close=True,
                    started=None,
                    method=None,
                    path=None,
                )
                return
            await self._connection_loop(reader, writer, state)
        except asyncio.CancelledError:
            pass  # drain cancelled an idle or straggling connection
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away mid-read/write; nothing to salvage
        finally:
            self._connections.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(self, reader, writer, state) -> None:
        """Serve requests on one (possibly keep-alive) connection."""
        while not self._draining:
            state.busy = False
            try:
                head = await asyncio.wait_for(
                    self._read_head(reader), self.request_timeout
                )
            except asyncio.TimeoutError:
                # slow-loris head, or an idle keep-alive connection: an
                # explicit 408-and-close either way
                state.busy = True
                self.metrics.inc("http.deadline_hits")
                await self._respond(
                    writer,
                    state,
                    408,
                    error_response("request head not received in time"),
                    close=True,
                    started=None,
                    method=None,
                    path=None,
                )
                return
            except (ValueError, asyncio.IncompleteReadError):
                state.busy = True
                await self._respond(
                    writer,
                    state,
                    400,
                    error_response("malformed request head"),
                    close=True,
                    started=None,
                    method=None,
                    path=None,
                )
                return
            if head is None:
                return  # clean EOF between requests
            state.busy = True
            method, path, version, headers = head
            started = self._loop.time()
            phase = {"name": "read"}
            try:
                with _obs_span(
                    "service.request",
                    method=method,
                    path=path,
                    client=state.peer,
                ):
                    keep_alive = await asyncio.wait_for(
                        self._dispatch(
                            method, path, version, headers, reader, writer,
                            state, started, phase,
                        ),
                        self.request_timeout,
                    )
            except asyncio.TimeoutError:
                # Deadline. During body read: the client is too slow
                # (408). During classification: the service is (503) —
                # and the awaited tickets were cancelled by the
                # wait_for unwind, freeing their batcher slots.
                self.metrics.inc("http.deadline_hits")
                slow_read = phase["name"] == "read"
                await self._respond(
                    writer,
                    state,
                    408 if slow_read else 503,
                    error_response(
                        "request body not received in time"
                        if slow_read
                        else f"deadline exceeded ({self.request_timeout:g}s)"
                    ),
                    close=True,
                    started=started,
                    method=method,
                    path=path,
                )
                return
            except _RequestAborted as abort:
                if abort.respond:
                    await self._respond(
                        writer,
                        state,
                        abort.status,
                        abort.payload,
                        close=True,
                        started=started,
                        method=method,
                        path=path,
                    )
                return
            if not keep_alive:
                return

    async def _read_head(self, reader):
        """Read and parse one request head; None on clean EOF."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").rstrip("\r\n").split()
        if len(parts) != 3:
            raise ValueError("bad request line")
        method, path, version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return method, path, version, headers

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer,
        state,
        status: int,
        payload: Optional[Dict],
        *,
        close: bool,
        started: Optional[float],
        method: Optional[str],
        path: Optional[str],
        items: Optional[int] = None,
        content: Optional[bytes] = None,
        content_type: str = "application/json",
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        """Write one response (JSON ``payload`` or raw ``content``),
        record metrics, and emit the structured request log line."""
        body = (
            content
            if content is not None
            else json.dumps(payload).encode("utf-8")
        )
        elapsed = (
            self._loop.time() - started if started is not None else 0.0
        )
        m = self.metrics
        m.inc("http.requests")
        m.counter("http.responses", code=status).inc()
        m.observe("http.request_latency_seconds", elapsed)
        if status == 429:
            m.inc("http.rejected_saturated")
        self._log(
            event="request",
            client=state.peer,
            method=method,
            path=path,
            status=status,
            ms=round(elapsed * 1000, 3),
            items=items,
        )
        reason = _REASONS.get(status, "")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Server: {SERVER_VERSION}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        head.extend(f"{k}: {v}" for k, v in extra_headers)
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method, path, version, headers, reader, writer, state,
        started, phase,
    ) -> bool:
        """Route one parsed request; returns whether to keep the
        connection alive afterwards."""
        connection = headers.get("connection", "").lower()
        keep_alive = (
            version == "HTTP/1.1" and "close" not in connection
        ) or "keep-alive" in connection
        if self._draining:
            keep_alive = False

        async def respond(status, payload, *, items=None, content=None,
                          content_type="application/json", extra=()):
            await self._respond(
                writer, state, status, payload,
                close=not keep_alive, started=started, method=method,
                path=path, items=items, content=content,
                content_type=content_type, extra_headers=extra,
            )
            return keep_alive

        if method == "GET":
            if path == "/healthz":
                return await respond(
                    200, {"ok": True, "service": SERVER_VERSION}
                )
            if path == "/stats":
                return await respond(200, self._stats_payload())
            if path == "/metrics":
                # this server's series, then the process registry's
                text = (
                    self.metrics.render_prometheus()
                    + _registry.render_prometheus()
                )
                return await respond(
                    200, None, content=text.encode("utf-8"),
                    content_type=METRICS_CONTENT_TYPE,
                )
            return await respond(404, error_response(f"no route {path!r}"))
        if method != "POST":
            return await respond(
                405, error_response(f"method {method} not allowed")
            )
        raw = await self._read_body(headers, reader)
        phase["name"] = "classify"
        if path != "/classify":
            return await respond(404, error_response(f"no route {path!r}"))
        status, payload, items, extra = await self._classify(raw)
        return await respond(status, payload, items=items, extra=extra)

    def _stats_payload(self) -> Dict:
        svc = self.classifier
        e = svc.stats.engine
        return {
            "ok": True,
            "requests": svc.stats.submitted,
            "fast_hits": svc.stats.fast_hits,
            "batches": svc.stats.batches,
            "largest_batch": svc.stats.largest_batch,
            "rejected": svc.stats.rejected,
            "classified": e.classified,
            "cache_hits": e.cache_hits,
            "coalesced": e.deduped,
            "cache_entries": len(svc.cache),
            "connections": self.connection_count,
            "summary": svc.describe(),
        }

    async def _read_body(self, headers, reader) -> bytes:
        """Read the request body, policing size before a byte is read."""
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise _RequestAborted(
                400, error_response("bad Content-Length")
            )
        if length > MAX_BODY_BYTES:
            raise _RequestAborted(
                413, error_response(f"body exceeds {MAX_BODY_BYTES} bytes")
            )
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _RequestAborted(
                400, error_response("body shorter than Content-Length"),
                respond=False,  # the client is gone; nobody to answer
            )

    async def _classify(
        self, raw: bytes
    ) -> Tuple[int, Dict, Optional[int], Tuple]:
        """The ``POST /classify`` route: parse, admit, await, assemble.

        Returns ``(status, payload, item_count, extra_headers)``.
        Mirrors the PR-2 semantics exactly (per-item errors, batched vs
        single shapes, 400-vs-500 attribution) with two new outcomes:
        ``429`` on admission refusal and ticket cancellation when the
        caller's deadline unwinds this coroutine.
        """
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, error_response(f"invalid JSON: {exc}"), None, ()
        try:
            items = requests_from_body(body)
        except RequestError as exc:
            return 400, error_response(str(exc)), None, ()
        batched = isinstance(body, dict) and "requests" in body

        parsed: List[Optional[object]] = []  # ServiceRequest | None
        responses: List[Optional[Dict]] = []
        for obj in items:
            try:
                parsed.append(parse_request(obj))
                responses.append(None)  # filled from the ticket below
            except (RequestError, ValueError) as exc:
                parsed.append(None)
                responses.append(error_response(str(exc)))

        # Admit each mode's well-formed items in one call that never
        # suspends, so they land in one batch; saturation refuses the
        # whole request with 429 (cancelling any tickets the other mode
        # group already got).
        tickets: Dict[int, Ticket] = {}
        try:
            for mode in MODES:
                index = [
                    i
                    for i, request in enumerate(parsed)
                    if request is not None and request.mode == mode
                ]
                if not index:
                    continue
                batch = await self.classifier._core.admit_many(
                    [parsed[i].config for i in index], mode
                )
                tickets.update(zip(index, batch))
                if _OBS.enabled:
                    # same digest function the dispatcher stamps into
                    # its service.batch span: the correlation token
                    _obs_event(
                        "request.admitted",
                        mode=mode,
                        items=len(batch),
                        keys_digest=keys_digest([t.key for t in batch]),
                    )
        except ServiceSaturatedError as exc:
            for ticket in tickets.values():
                ticket.cancel()
            retry_after = max(1, math.ceil(exc.retry_after))
            payload = dict(
                error_response(f"saturated: {exc}"), retry_after=retry_after
            )
            return 429, payload, len(items), (
                ("Retry-After", str(retry_after)),
            )
        except ServiceClosedError:
            return (
                503,
                error_response("service is shutting down"),
                len(items),
                (),
            )

        # warm hits resolved at admission; only cold tickets are awaited
        waiting = [
            asyncio.wrap_future(t.future) for t in tickets.values() if not t.done()
        ]
        try:
            if waiting:
                await asyncio.wait(waiting)
        except asyncio.CancelledError:
            # deadline unwind: abandon every pending ticket so the
            # dispatcher drops (never classifies) the queued work
            for ticket in tickets.values():
                ticket.cancel()
            raise
        server_faults = set()  # indices whose failure is ours, not the client's
        for i in sorted(tickets):
            future = tickets[i].future
            exc = future.exception()
            if exc is not None:
                responses[i] = error_response(f"classification failed: {exc}")
                server_faults.add(i)
                continue
            record = dict(future.result())
            responses[i] = response_for(parsed[i], tickets[i].key, record)

        # hit/miss/collapse accounting rides on every successful
        # response (snapshot at assembly time; see BatchClassifier.meta)
        meta = self.classifier.meta()
        if batched:
            payload = {"ok": True, "responses": responses, "meta": meta}
            return 200, payload, len(items), ()
        if responses and responses[0].get("ok"):
            return 200, dict(responses[0], meta=meta), 1, ()
        if responses:
            # a classification fault is the server's failure (500); a
            # request the parser rejected is the client's (400)
            status = 500 if 0 in server_faults else 400
            return status, responses[0], 1, ()
        return 400, error_response("empty request"), 0, ()


def make_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    classifier: Optional[BatchClassifier] = None,
    *,
    quiet: bool = False,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
) -> ClassificationServer:
    """Bind a :class:`ClassificationServer` (``port=0`` picks a free port).

    The caller drives it: ``serve_forever()`` to run, ``shutdown()`` +
    ``server_close()`` to stop (and close the classifier).
    """
    if classifier is None:
        classifier = BatchClassifier()
    return ClassificationServer(
        (host, port),
        classifier,
        quiet=quiet,
        max_connections=max_connections,
        request_timeout=request_timeout,
        drain_timeout=drain_timeout,
    )


def run_server(server: ClassificationServer) -> None:
    """Serve a bound :class:`ClassificationServer` until Ctrl-C, with
    banner and graceful teardown (separate from :func:`make_server` so
    callers can distinguish bind failures from serving failures)."""
    bound_host, bound_port = server.server_address[:2]
    print(f"repro-radio serve: listening on http://{bound_host}:{bound_port}")
    print(
        "  POST /classify   GET /healthz   GET /stats   GET /metrics"
        "   (Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining in-flight requests)")
    finally:
        server.shutdown()
        server.server_close()
        server.classifier.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    classifier: Optional[BatchClassifier] = None,
) -> None:
    """Blocking convenience entry point: bind and serve until Ctrl-C."""
    run_server(make_server(host, port, classifier))
