"""E28 — Adversary campaigns: replayable Monte Carlo robustness sweeps.

The acceptance gates of the robustness subsystem (:mod:`repro.adversary`
strategy zoo + :mod:`repro.campaigns` driver):

1. **1,000+-trial mixed campaign with per-trial fault isolation** — a
   seeded campaign over all five strategy arms completes; every trial
   lands in exactly one outcome bucket (survived / derailed /
   infeasible / timeout / match_error / error), failures carry their
   own replayable digests, and the sweep never aborts on a
   pathological trial.
2. **Bit-for-bit witness replay** — every extremal witness the
   campaign's metrics select (longest run, most jams, cheapest derail,
   failures) replays to an identical digest from the bundle manifest
   alone: configuration, adversary and round budget are all rebuilt
   from their recorded specs, never from live objects.
3. **No-op control arm equals the reference execution** — a campaign
   whose strategy mix is only ``"none"`` produces, trial for trial,
   exactly the digest of a direct failure-free reference-backend
   election on the same derived configuration.
4. **≥ 2.5× throughput** — the distributed campaign (batch
   classification kernel + 4 queue worker processes) vs the naive
   serial trial loop on the same spec. The measurement is written to
   ``BENCH_E28.json`` (:mod:`repro.reporting.bench`) on every run; the
   floor itself is only asserted when the host has at least 4 CPUs
   (the E27 precedent: on fewer cores there is no parallel speedup to
   measure, so the artifact records the honest number with
   ``"pass": null, "skipped": "<4 CPUs"``).
"""

import time

import pytest

from repro.reporting.bench import available_cpus
from repro.campaigns import (
    CampaignSpec,
    derive_trial,
    distributed_campaign,
    execution_digest,
    replay_trial,
    run_campaign,
    serial_trial_loop,
)
from repro.canon import clear_memo
from repro.core.canonical import CanonicalProtocol
from repro.core.classifier import classify
from repro.radio.simulator import simulate
from repro.reporting.bench import BenchResult, write_bench_result

#: ISSUE acceptance threshold: batch kernel + 4 queue workers vs the
#: serial one-trial-at-a-time loop.
SPEEDUP_FLOOR = 2.5

#: Worker-process count for the gated run.
WORKERS = 4

BASE_SEED = 20260808

#: All six outcome buckets a trial may land in.
OUTCOMES = frozenset(
    ("survived", "derailed", "infeasible", "timeout", "match_error", "error")
)

MIXED_STRATEGIES = (
    {"strategy": "none", "weight": 1.0},
    {"strategy": "random_budget", "weight": 1.0, "budget": 2},
    {"strategy": "phase_targeting", "weight": 1.0, "phase": 1, "hits": 1},
    {"strategy": "reactive", "weight": 1.0, "probability": 0.5, "budget": 1},
    {"strategy": "crash_sleep", "weight": 1.0, "count": 1},
)


def mixed_spec(trials: int = 1000) -> CampaignSpec:
    """The gated workload: a seeded mixed-strategy campaign."""
    return CampaignSpec(
        name="e28-mixed",
        seed=BASE_SEED,
        trials=trials,
        n_values=(4, 5, 6),
        span=2,
        p=0.3,
        strategies=MIXED_STRATEGIES,
    )


@pytest.fixture(scope="module")
def mixed_run():
    """One 1,000-trial campaign shared by the gates that inspect it."""
    return run_campaign(mixed_spec())


# ----------------------------------------------------------------------
# gate 1: the 1,000-trial sweep completes with per-trial isolation
# ----------------------------------------------------------------------
def test_thousand_trial_campaign_completes_with_fault_isolation(mixed_run):
    """Every trial is recorded with exactly one known outcome; failed
    trials carry digests like successes do (isolation, not omission)."""
    results = mixed_run.results
    assert len(results) == 1000
    assert [r["index"] for r in results] == list(range(1000))
    for record in results:
        assert record["outcome"] in OUTCOMES, record
        assert record["digest"], record
        assert record["config"] is not None
    outcomes = mixed_run.metrics["outcomes"]
    # the mix must actually exercise the adversarial arms: some trials
    # survive, some derail — a degenerate all-one-bucket sweep would
    # mean the adversaries (or the control arm) never engaged
    assert outcomes.get("survived", 0) > 0
    assert outcomes.get("derailed", 0) > 0
    strategies = {r["strategy"] for r in results}
    assert strategies == {s["strategy"] for s in MIXED_STRATEGIES}


# ----------------------------------------------------------------------
# gate 2: sampled witnesses replay bit-for-bit from the manifest alone
# ----------------------------------------------------------------------
def test_witness_trials_replay_bit_for_bit(tmp_path, mixed_run):
    """Write the bundle, reload it from disk, and replay every witness
    index the metrics selected — digests must match exactly."""
    from repro.campaigns import read_bundle

    mixed_run.write_bundle(str(tmp_path / "bundle"))
    manifest = read_bundle(str(tmp_path / "bundle"))
    witnesses = manifest["metrics"]["witnesses"]
    indices = sorted({i for ids in witnesses.values() for i in ids})
    assert indices, "the campaign selected no witnesses"
    for index in indices:
        report = replay_trial(manifest, index)
        assert report.match, report.describe()


# ----------------------------------------------------------------------
# gate 3: the no-op control arm reproduces reference executions exactly
# ----------------------------------------------------------------------
def test_noop_campaign_equals_direct_reference_elections():
    """A 'none'-only campaign digests identically to direct classify +
    reference-backend simulate + decide on the same derived configs."""
    spec = CampaignSpec(
        name="e28-control",
        seed=BASE_SEED + 1,
        trials=60,
        n_values=(4, 5),
        span=2,
        strategies=({"strategy": "none", "weight": 1.0},),
        backend="reference",
    )
    run = run_campaign(spec)
    for record in run.results:
        plan = derive_trial(spec, record["index"])
        trace = classify(plan.config)
        protocol = CanonicalProtocol.from_trace(trace)
        network = trace.config
        execution = simulate(
            network,
            protocol.factory,
            max_rounds=protocol.round_budget(network.span),
            record_trace=True,
            backend="reference",
        )
        leaders = execution.decide_leaders(protocol.decision)
        assert record["digest"] == execution_digest(execution, leaders), (
            record["index"]
        )
        assert record["outcome"] == (
            "survived" if trace.feasible else "infeasible"
        )


# ----------------------------------------------------------------------
# gate 4: >= 2.5x over the serial loop, recorded as BENCH_E28.json
# ----------------------------------------------------------------------
def test_distributed_campaign_speedup_at_least_2_5x(tmp_path):
    """Batch kernel + 4 queue workers vs the serial trial loop on one
    spec. The artifact is written before anything is asserted; the
    floor is enforced only on hosts with >= 4 CPUs (E27 precedent).

    10,000 trials make the sweep a few seconds of real work, so queue
    and process-spawn overhead (~0.3 s) amortizes and the 4-worker
    parallelism is actually measurable."""
    spec = mixed_spec(10000)
    # distributed first: the workers fork from a lean parent (running
    # the serial sweep first would bloat the parent heap with 10,000
    # result records and tax every worker with copy-on-write faults)
    clear_memo()  # forked workers must not inherit a warm canon memo
    t0 = time.perf_counter()
    run = distributed_campaign(
        spec,
        str(tmp_path / "campaign.sqlite"),
        num_workers=WORKERS,
    )
    t_distributed = time.perf_counter() - t0

    clear_memo()
    t0 = time.perf_counter()
    serial = serial_trial_loop(spec)
    t_serial = time.perf_counter() - t0

    speedup = t_serial / t_distributed
    cpus = available_cpus()
    decided = cpus >= WORKERS
    write_bench_result(
        BenchResult(
            experiment="E28",
            workload={
                "campaign": spec.as_dict(),
                "workers": WORKERS,
            },
            timings_s={
                "serial_loop": t_serial,
                "distributed_4w": t_distributed,
            },
            speedup=speedup,
            floor=SPEEDUP_FLOOR,
            passed=speedup >= SPEEDUP_FLOOR if decided else None,
            skipped=None if decided else f"<{WORKERS} CPUs",
        )
    )
    # bit-for-bit equality of all three paths, on any host
    assert run.results == serial
    if not decided:
        pytest.skip(
            f"speedup floor needs >= {WORKERS} CPUs (host has {cpus}); "
            f"measured {speedup:.2f}x, recorded in BENCH_E28.json"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"distributed {t_distributed:.3f}s vs serial {t_serial:.3f}s "
        f"= {speedup:.2f}x < {SPEEDUP_FLOOR}x"
    )
