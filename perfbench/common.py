"""Shared pieces of the end-to-end benchmark: the layer ledger and helpers.

The per-layer numbers come from timing calls into each layer's public
functions from outside the program. Where an API accepts a hook
(``keyer=``, ``cache=``, a wrapping ``Workload``, ``group_by=``,
``on_batch=``) the benchmark passes a timed one in; where it does not, a
public function is wrapped in place for the traced pass only
(:meth:`Ledger.patched`) and restored afterwards.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List

from repro.engine import ResultCache, Workload

from hostclock import HostClock, scale

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every layer operation the traced run reports (``<op>.s`` busy self
#: seconds and ``<op>.calls``), named ``<layer>.<op>`` after the module
#: that owns it. Operations a workload does not reach report zero.
OPS = (
    "workloads.generate",
    "normalize.normalize",
    "keys.canonical",
    "cache.load",
    "cache.get",
    "cache.put",
    "classify.batch",
    "simulate.trial",
    "simulate.replay",
    "queue.create",
    "queue.lease",
    "queue.commit",
    "queue.idle",
    "queue.collect",
    "aggregate.group",
    "aggregate.metrics",
    "aggregate.bundle",
    "service.parse",
    "service.serialize",
    "service.http",
)

#: Operations that enclose other layers' work on another thread; they are
#: reported but left out of the coverage sum.
ENVELOPES = ("service.http",)

#: How often set-up is repeated in one run (``setup_s`` is the median).
SETUP_REPEATS = 5


class Ledger:
    """Busy seconds, call counts and worst single call per layer operation.

    Spans nest per thread and record *self* time: a span's duration minus
    the part of it covered by spans opened inside it, so layer seconds add
    up without double counting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (a forked worker starts clean)."""
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.max_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def span(self, op: str) -> Iterator[None]:
        """Time the enclosed block as one call of ``op``."""
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            inner = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.seconds[op] += elapsed - inner
                self.calls[op] += 1
                self.max_s[op] = max(self.max_s[op], elapsed)

    def timed(self, op: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call is a span of ``op``."""

        def wrapper(*args, **kwargs):
            with self.span(op):
                return fn(*args, **kwargs)

        return wrapper

    def patched(self, owner: object, attr: str, op: str):
        """Time ``owner.attr`` as ``op`` inside the block, then restore it."""
        return swapped(owner, attr, self.timed(op, getattr(owner, attr)))

    def sample(self, name: str, value: float) -> None:
        """Record a free-form observation (e.g. a batch size)."""
        with self._lock:
            self.samples[name].append(value)

    def covered_s(self) -> float:
        """Self seconds of every operation that is not an envelope."""
        return sum(s for op, s in self.seconds.items() if op not in ENVELOPES)

    def to_dict(self) -> Dict:
        """JSON-ready dump (forked workers ship their ledger this way)."""
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "max_s": dict(self.max_s),
            "samples": dict(self.samples),
        }

    def merge(self, data: Dict) -> None:
        """Add a dump from :meth:`to_dict` (another process's ledger)."""
        for op, s in data["seconds"].items():
            self.seconds[op] += s
        for op, n in data["calls"].items():
            self.calls[op] += n
        for op, s in data["max_s"].items():
            self.max_s[op] = max(self.max_s[op], s)
        for name, values in data["samples"].items():
            self.samples[name].extend(values)


@contextmanager
def swapped(owner: object, attr: str, value: object) -> Iterator[None]:
    """Set ``owner.attr`` to ``value`` inside the block, then restore it."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class TimedCache(ResultCache):
    """A :class:`ResultCache` whose load, get and put are ledger spans."""

    def __init__(self, ledger: Ledger, path: str = None) -> None:
        self.ledger = ledger
        with ledger.span("cache.load"):
            super().__init__(path)

    def get(self, key):
        with self.ledger.span("cache.get"):
            return super().get(key)

    def put(self, key, record) -> None:
        with self.ledger.span("cache.put"):
            super().put(key, record)


class TimedWorkload(Workload):
    """A workload whose item generation is timed as ``workloads.generate``."""

    def __init__(self, inner: Workload, ledger: Ledger) -> None:
        self.inner = inner
        self.ledger = ledger

    def __len__(self) -> int:
        return len(self.inner)

    def generate(self, start: int, stop: int):
        items = self.inner.generate(start, stop)
        while True:
            with self.ledger.span("workloads.generate"):
                item = next(items, None)
            if item is None:
                return
            yield item


def layer_metrics(
    ledger: Ledger, *, busy_s: float, overhead: float, extra: Dict
) -> Dict[str, float]:
    """The per-layer metric dict of a traced run.

    ``busy_s`` is the time the layers should account for (the
    denominator of ``coverage``); ``overhead`` is the traced pass's cost
    over the untraced pass's. ``extra`` carries the ratio metrics only the
    workload can compute.
    """
    metrics: Dict[str, float] = {}
    for op in OPS:
        metrics[f"{op}.s"] = ledger.seconds.get(op, 0.0)
        metrics[f"{op}.calls"] = ledger.calls.get(op, 0)
    covered = ledger.covered_s()
    metrics["keys.canonical.max_ms"] = ledger.max_s.get("keys.canonical", 0.0) * 1e3
    sizes = ledger.samples.get("service.batch.size", [])
    metrics["service.batch.size"] = statistics.mean(sizes) if sizes else 0.0
    metrics["unattributed.s"] = busy_s - covered
    metrics["coverage"] = covered / busy_s
    metrics["trace_overhead"] = overhead
    metrics.update(extra)
    return metrics


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q=0.99`` of 3 values is the maximum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def midmean(values) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def tail(values) -> float:
    """The highest percentile, up to p99, with ten samples beyond it.

    With 1,000 or more samples this is the p99; with 20 or fewer it is
    the median, since no higher percentile can be told from noise.
    """
    values = list(values)
    return percentile(values, min(0.99, max(0.5, 1 - 10 / len(values))))


def timed_setups(setup: Callable[[], object], clock: HostClock):
    """Run ``setup`` :data:`SETUP_REPEATS` times; keep the last state.

    Each set-up is timed between two samples of ``clock`` and scaled to
    the nominal host speed. Returns ``(state, median scaled seconds)``.
    """
    walls = []
    before = clock.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup()
        wall = time.perf_counter() - t0
        after = clock.sample()
        walls.append(wall * scale(before, after))
        before = after
    return state, statistics.median(walls)


@contextmanager
def scratch_dir() -> Iterator[str]:
    """A fresh directory under ``.perfbench_tmp/`` in the checkout."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` in the checkout only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
