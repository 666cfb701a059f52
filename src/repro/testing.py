"""Test-support utilities shared by the test and benchmark harnesses.

Hosts four things every differential suite wants but none should own:

* **the differential assertions** — :func:`assert_trace_equal` and
  :func:`assert_execution_equal` pinpoint the *first* divergence between
  two classifier traces / simulation results (which iteration, which
  field, which node) instead of dumping two multi-kilobyte reprs, so a
  kernel regression reads as ``iteration 3, field labels, node 2`` and
  not as a wall of text. The classifier benchmarks (E23/E24) gate on the
  same assertions the test suite uses;
* **workload generators** — the exhaustive :func:`sweep_configurations`
  small-``n`` sweep, :func:`random_census_configs` (the random census's
  population, generated without the engine), :func:`random_relabel`,
  and the hypothesis
  strategies :func:`configurations` / :func:`diverse_configurations`
  (guarded — hypothesis is an optional extra);
* **the isomorphism-class oracle** — :func:`bruteforce_canonical_form`
  enumerates relabelings, and :func:`class_partition` /
  :func:`assert_oracle_classes` compare any canonizer with it by the
  partition into classes it induces;
* **re-exports** of the seeded workload builders of
  :mod:`repro.engine.workloads`, so both ``tests/conftest.py`` and
  ``benchmarks/conftest.py`` can expose one implementation under
  identical names instead of shadowing each other when pytest collects
  both directories in a single run.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core.configuration import Configuration
from .engine.workloads import (  # noqa: F401  (re-exported)
    feasible_batch,
    make_random_config,
    random_config_batch,
    seeded_config,
)

# ----------------------------------------------------------------------
# differential assertions
# ----------------------------------------------------------------------


def _fail(context: str, where: str, actual: object, expected: object) -> None:
    prefix = f"{context}: " if context else ""
    raise AssertionError(
        f"{prefix}first divergence at {where}:\n"
        f"  actual:   {actual!r}\n"
        f"  expected: {expected!r}"
    )


def _assert_mapping_equal(
    actual: dict, expected: dict, context: str, where: str
) -> None:
    """Per-key comparison so the failure names the diverging node."""
    if actual.keys() != expected.keys():
        _fail(
            context,
            f"{where} (key sets)",
            sorted(actual.keys(), key=repr),
            sorted(expected.keys(), key=repr),
        )
    for key in expected:
        if actual[key] != expected[key]:
            _fail(context, f"{where}, node {key!r}", actual[key], expected[key])


def assert_trace_equal(actual, expected, *, context: str = "") -> None:
    """Assert bit-for-bit :class:`~repro.core.trace.ClassifierTrace`
    equality, failing with first-divergence diagnostics.

    The comparison follows :func:`repro.core.trace.traces_equal`
    — every field except op metering (``total_ops``), which backends
    legitimately differ on — but walks iterations in order and mappings
    per node, so the error message names the exact iteration, field and
    node where the traces part ways. ``context`` is prepended to the
    failure (e.g. a description of the workload instance).
    """
    if actual.config != expected.config:
        _fail(context, "config", actual.config, expected.config)
    if actual.sigma != expected.sigma:
        _fail(context, "sigma", actual.sigma, expected.sigma)
    _assert_mapping_equal(
        actual.initial_classes, expected.initial_classes, context,
        "initial_classes",
    )
    if actual.initial_reps != expected.initial_reps:
        _fail(context, "initial_reps", actual.initial_reps, expected.initial_reps)
    for ra, rb in zip(actual.iterations, expected.iterations):
        it = f"iteration {rb.index}"
        if ra.index != rb.index:
            _fail(context, f"{it}, field index", ra.index, rb.index)
        _assert_mapping_equal(ra.labels, rb.labels, context, f"{it}, field labels")
        _assert_mapping_equal(
            ra.classes_after, rb.classes_after, context,
            f"{it}, field classes_after",
        )
        if ra.reps_after != rb.reps_after:
            _fail(context, f"{it}, field reps_after", ra.reps_after, rb.reps_after)
        if ra.num_classes_after != rb.num_classes_after:
            _fail(
                context,
                f"{it}, field num_classes_after",
                ra.num_classes_after,
                rb.num_classes_after,
            )
    if len(actual.iterations) != len(expected.iterations):
        _fail(
            context,
            "number of iterations",
            len(actual.iterations),
            len(expected.iterations),
        )
    for name in ("decision", "decided_at", "leader_class", "leader"):
        a, b = getattr(actual, name), getattr(expected, name)
        if a != b:
            _fail(context, name, a, b)


def assert_execution_equal(actual, expected, *, context: str = "") -> None:
    """Assert bit-for-bit simulation-result equality, failing with
    first-divergence diagnostics.

    Compares the :class:`~repro.radio.events.ExecutionResult` equality
    contract — ``histories``, ``wake_rounds``, ``wake_kinds``,
    ``done_local``, ``rounds_elapsed`` and the recorded ``trace``;
    ``backend_stats`` is excluded, backends legitimately differ there —
    naming the node (and for histories, the local round) where the two
    executions part ways.
    """
    for name in ("wake_rounds", "wake_kinds", "done_local"):
        _assert_mapping_equal(
            getattr(actual, name), getattr(expected, name), context, name
        )
    if actual.histories.keys() != expected.histories.keys():
        _fail(
            context,
            "histories (key sets)",
            sorted(actual.histories.keys(), key=repr),
            sorted(expected.histories.keys(), key=repr),
        )
    for v in expected.histories:
        ha, hb = actual.histories[v], expected.histories[v]
        if ha != hb:
            for r, (ea, eb) in enumerate(zip(ha, hb)):
                if ea != eb:
                    _fail(
                        context,
                        f"histories, node {v!r}, local round {r}", ea, eb,
                    )
            _fail(context, f"histories, node {v!r} (length)", len(ha), len(hb))
    if actual.rounds_elapsed != expected.rounds_elapsed:
        _fail(
            context, "rounds_elapsed",
            actual.rounds_elapsed, expected.rounds_elapsed,
        )
    if actual.trace != expected.trace:
        ta, tb = actual.trace or [], expected.trace or []
        for i, (ra, rb) in enumerate(zip(ta, tb)):
            if ra != rb:
                _fail(context, f"trace, round record {i}", ra, rb)
        _fail(context, "trace (length)", len(ta), len(tb))


# ----------------------------------------------------------------------
# workload generators
# ----------------------------------------------------------------------

#: ``(n, max_tag)`` cells of the exhaustive small-n sweep: every
#: configuration shape with every tag vector, the grid the canon oracle
#: tests and the E24 equality gate share. ``(5, 1)`` keeps the largest
#: cell's tag space binary so the whole sweep stays a few thousand
#: configurations.
SMALL_SWEEP_GRID: Tuple[Tuple[int, int], ...] = (
    (1, 2), (2, 2), (3, 2), (4, 2), (5, 1),
)


def sweep_configurations(
    grid: Iterable[Tuple[int, int]] = SMALL_SWEEP_GRID,
) -> Iterator[Configuration]:
    """Yield every configuration of every ``(n, max_tag)`` grid cell.

    Wraps :func:`repro.graphs.enumeration.enumerate_configurations` —
    connected shape representatives crossed with all tag vectors — so
    exhaustive differential sweeps share one definition of "all small
    configurations" instead of each suite hard-coding its own grid.
    """
    from .graphs.enumeration import enumerate_configurations

    for n, max_tag in grid:
        yield from enumerate_configurations(n, max_tag)


def random_census_configs(
    n_values: Iterable[int], span: int, p: float, samples: int, seed: int
) -> Iterator[Configuration]:
    """The random census's population, generated without the engine.

    ``samples`` seeded G(n, p) configurations per entry of ``n_values``,
    n-major, seeded exactly as
    :class:`~repro.engine.workloads.RandomGnpWorkload` seeds them but
    written out independently of it, so ``census(random_census_configs(
    ...), group_by=group_by_n)`` is the oracle for an engine census
    (:func:`repro.engine.sharded_census`) over that workload.
    """
    from .graphs.generators import build, random_connected_gnp_edges
    from .graphs.tags import uniform_random

    for n in n_values:
        for s in range(samples):
            base = seed + 7919 * s + 104729 * n
            edges = random_connected_gnp_edges(n, p, base)
            tags = uniform_random(range(n), span, base + 1)
            yield build(edges, tags, n=n)


def random_relabel(cfg: Configuration, seed: int) -> Configuration:
    """A uniformly shuffled relabeling of ``cfg`` (same node-id set)."""
    nodes = list(cfg.nodes)
    shuffled = list(nodes)
    random.Random(seed).shuffle(shuffled)
    return cfg.relabel(dict(zip(nodes, shuffled)))


# ----------------------------------------------------------------------
# the isomorphism-class oracle
# ----------------------------------------------------------------------


def bruteforce_canonical_form(cfg: Configuration) -> Tuple:
    """Reference canonical form: the lexicographic minimum, over every
    relabeling to ``0..n−1`` that keeps the sorted ``(tag, degree)``
    profile layout, of the normalized ``(n, tag vector, edge set)``.

    Equal for two configurations iff they are tag-preserving isomorphic,
    by exhaustion — exponential in the largest profile class, so keep it
    to small ``n``. Its tuple is the one unprefixed (pre-``c2:``)
    canonical keys digest; it differs from :mod:`repro.canon`'s, so only
    the partition into classes is comparable (:func:`class_partition`).
    """
    cfg = cfg.normalize()
    groups: Dict[Tuple[int, int], List[object]] = {}
    for v in cfg.nodes:
        groups.setdefault((cfg.tag(v), cfg.degree(v)), []).append(v)
    layout = [groups[p] for p in sorted(groups)]
    tagvec = tuple(cfg.tag(v) for members in layout for v in members)
    best: Optional[Tuple] = None
    # a relabeling is one permutation of slots per profile class
    for perms in product(*(permutations(members) for members in layout)):
        slot = {v: i for i, v in enumerate(v for perm in perms for v in perm)}
        edges = tuple(
            sorted((min(slot[u], slot[v]), max(slot[u], slot[v])) for u, v in cfg.edges)
        )
        if best is None or edges < best:
            best = edges
    return (cfg.n, tagvec, best)


def class_partition(items: Sequence, key: Callable) -> List[List[int]]:
    """Indices of ``items`` grouped by equal ``key``, in first-seen order.

    Two keys that are both "equal iff isomorphic" give the same list, so
    comparing against :func:`bruteforce_canonical_form` checks a
    canonizer's contract without pinning its tuples.
    """
    groups: Dict[object, List[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return list(groups.values())


def assert_oracle_classes(configs: Iterable[Configuration], key: Callable) -> int:
    """Assert that ``key`` splits ``configs``, plus a relabeled copy of
    each, into exactly the oracle's isomorphism classes; returns the size
    of that population. A failure names the first class (as population
    indices) that differs."""
    population = list(configs)
    population += [random_relabel(c, i) for i, c in enumerate(population)]
    got = class_partition(population, key)
    want = class_partition(population, bruteforce_canonical_form)
    for a, b in zip(got, want):
        if a != b:
            _fail("", f"the class of item {min(a[0], b[0])}", a, b)
    if len(got) != len(want):
        _fail("", "number of classes", len(got), len(want))
    return len(population)


try:
    from hypothesis import strategies as st

    @st.composite
    def configurations(draw, max_n: int = 8, max_span: int = 3):
        """Random connected tagged graphs: a random spanning tree plus a
        random subset of extra edges, with uniform tags."""
        n = draw(st.integers(min_value=1, max_value=max_n))
        # random spanning tree: attach node i to a uniform earlier node
        edges = set()
        for i in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=i - 1))
            edges.add((parent, i))
        # optional extra edges
        if n >= 3:
            extras = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=n,
                )
            )
            for u, v in extras:
                if u != v:
                    edges.add((min(u, v), max(u, v)))
        tags = {
            i: draw(st.integers(min_value=0, max_value=max_span))
            for i in range(n)
        }
        return Configuration(sorted(edges), tags)

    @st.composite
    def diverse_configurations(draw, max_n: int = 8, max_span: int = 3):
        """:func:`configurations` plus the representation hazards every
        implementation must be transparent to: an optional uniform tag
        shift (normalization must undo it identically) and an optional
        relabeling to string node names (indexing must not assume
        integer ids)."""
        cfg = draw(configurations(max_n=max_n, max_span=max_span))
        shift = draw(st.integers(min_value=0, max_value=4))
        if shift:
            cfg = cfg.shift_tags(shift)
        if draw(st.booleans()):
            cfg = cfg.relabel({v: f"node-{v:03d}" for v in cfg.nodes})
        return cfg

except ImportError:  # pragma: no cover - hypothesis is an install extra
    configurations = None
    diverse_configurations = None
