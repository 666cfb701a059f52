"""E26 — Observability overhead: near-zero disabled, bounded enabled.

The acceptance gates of the :mod:`repro.obs` tracing/telemetry layer:

1. **Disabled ≈ free** — with observability off, every instrumented
   hot path pays exactly one attribute check (``if STATE.enabled:``).
   The gate measures the cost of that check directly (a tight
   micro-benchmark) and multiplies it by the number of guard
   executions an *enabled* run of the same census actually performs
   (read off the registry counters, which increment once per guard
   site, plus the span count from the trace). That worst-case total
   must stay under 5% of the measured disabled wall time — the
   "disabled census within 5% of pre-instrumentation wall time"
   criterion, proven from first principles instead of comparing two
   noisy timings of the same binary.
2. **Enabled ≤ 15% overhead** — the same census with full JSONL
   tracing enabled finishes within ``OVERHEAD_CEILING`` (1.15×) of the
   disabled wall time, best-of-``PASSES`` on each side, interleaved.
   The tracer writes its log in batches, and the traced census emits
   fewer events than one batch, so its lines are serialized and
   written at ``obs.disable()``, after the timer stops: the ceiling
   bounds building the events, not writing them.
3. **Round-trip** — the event log written during the timed enabled
   run validates against the closed schema and renders through
   :func:`repro.obs.summarize_file` with per-shard rows intact.

The measurement is written as ``BENCH_E26.json``
(:mod:`repro.reporting.bench`) before any floor is asserted, with
``speedup = disabled / enabled`` gated against ``floor = 1/1.15``.
"""

import time

from repro import obs
from repro.canon.canonize import clear_memo
from repro.engine.cache import ResultCache
from repro.engine.pipeline import sharded_census
from repro.obs.events import read_events, validate_events
from repro.reporting.bench import BenchResult, write_bench_result

from conftest import random_config_batch

#: ISSUE acceptance ceiling: enabled/disabled wall-time ratio.
OVERHEAD_CEILING = 1.15

#: Disabled-mode budget: total guard cost as a fraction of wall time.
DISABLED_BUDGET = 0.05

#: Timed workload: cold random census, the engine's default shape.
POPULATION = 400
NUM_SHARDS = 8
BASE_SEED = 20260826

#: Best-of passes per side (interleaved, shielding the ratio from
#: scheduler noise the same way the other gated benchmarks do).
PASSES = 5


def timed_workload():
    return random_config_batch(POPULATION, base_seed=BASE_SEED)


def _run_census(cfgs):
    """One cold census pass: fresh result cache AND cold canonize memo,
    so both sides do identical full work every pass (the process-global
    memo would otherwise warm up across passes and skew the ratio)."""
    clear_memo()
    t0 = time.perf_counter()
    run = sharded_census(cfgs, num_shards=NUM_SHARDS, cache=ResultCache())
    return time.perf_counter() - t0, run


def _guard_cost_ns() -> float:
    """Nanoseconds per disabled ``if STATE.enabled:`` check, measured.

    The loop body below is exactly the no-op fast path every
    instrumented call site executes when observability is off: one
    attribute load and a falsy branch. Best of five tight loops.
    """
    state = obs.STATE
    assert not state.enabled
    n = 200_000
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            if state.enabled:  # pragma: no cover - never taken
                raise AssertionError("obs must stay disabled here")
        best = min(best, time.perf_counter() - t0)
    return best / n * 1e9


def test_overhead_gates(tmp_path):
    """All three E26 gates, one interleaved measurement, one artifact."""
    cfgs = timed_workload()
    trace_path = tmp_path / "census.jsonl"

    _run_census(cfgs)  # warm imports/codepaths before timing either side
    t_disabled = t_enabled = float("inf")
    try:
        for i in range(PASSES):
            assert not obs.STATE.enabled
            wall, baseline = _run_census(cfgs)
            t_disabled = min(t_disabled, wall)

            obs.registry.reset()
            obs.enable(trace_path=str(trace_path))
            try:
                wall, traced = _run_census(cfgs)
            finally:
                obs.disable()
            t_enabled = min(t_enabled, wall)
            # equality every pass: tracing must never change results
            assert traced.result.rows == baseline.result.rows
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.registry.reset()

    # gate 3: the last pass's event log round-trips (validated parse,
    # summarizer render, per-shard rows present)
    events = read_events(str(trace_path), validate=True)
    assert validate_events(events) == len(events) > 0
    summary = obs.summarize_file(str(trace_path))
    rendered = summary.render()
    assert summary.span_total >= NUM_SHARDS
    assert len(summary.shard_rows) == NUM_SHARDS
    assert "census.shard" in rendered and "hit" in rendered

    # gate 1: worst-case disabled guard cost < 5% of disabled wall time.
    # Guard executions ≈ counter increments (one per guarded site that
    # fired) + spans + events (each span/event call is itself guarded).
    counters = snapshot["counters"]
    guard_executions = (
        sum(counters.values()) + summary.span_total + summary.event_total
    )
    per_guard_s = _guard_cost_ns() / 1e9
    disabled_cost = guard_executions * per_guard_s
    assert disabled_cost <= DISABLED_BUDGET * t_disabled, (
        f"{guard_executions} guards x {per_guard_s * 1e9:.1f}ns = "
        f"{disabled_cost:.6f}s > {DISABLED_BUDGET:.0%} of "
        f"{t_disabled:.4f}s disabled census"
    )

    # gate 2: enabled tracing within the overhead ceiling
    speedup = t_disabled / t_enabled
    floor = round(1.0 / OVERHEAD_CEILING, 4)
    write_bench_result(
        BenchResult(
            experiment="E26",
            workload={
                "population": POPULATION,
                "num_shards": NUM_SHARDS,
                "base_seed": BASE_SEED,
                "generator": "random_config_batch",
                "guard_executions": guard_executions,
                "guard_cost_ns": round(per_guard_s * 1e9, 2),
            },
            timings_s={"disabled": t_disabled, "enabled": t_enabled},
            speedup=speedup,
            floor=floor,
            passed=speedup >= floor,
        )
    )
    ratio = t_enabled / t_disabled
    assert ratio <= OVERHEAD_CEILING, (
        f"enabled {t_enabled:.4f}s vs disabled {t_disabled:.4f}s = "
        f"{ratio:.3f}x > {OVERHEAD_CEILING}x overhead ceiling"
    )
