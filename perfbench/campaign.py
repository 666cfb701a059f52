"""The ``campaign_mixed`` workload: an adversary campaign and its replay.

One pass runs a 1,000-trial campaign over E28's five-strategy mix with
``run_campaign`` and writes its bundle (``cold_ms``), then replays every
trial from the written bundle alone, as ``repro-radio campaign replay
--all`` does (``warm_ms``).

Correctness: a seeded sample of trials must equal the serial trial loop
record for record, every replay must reproduce its recorded digest, and
every pass must repeat the first pass's records exactly.
"""

from __future__ import annotations

import random
import time

from repro.campaigns import (
    CampaignSpec,
    campaign_metrics,
    derive_trial,
    read_bundle,
    replay_trial,
    run_campaign,
    run_trial,
)
from repro.campaigns.bundle import config_from_spec, write_bundle
from repro.canon import clear_memo
from repro.core.batch import batch_outcomes, resolve_batch_algorithm
from repro.core.configuration import Configuration
from repro.engine import default_keyer

from common import Ledger

#: E28's five-strategy mix.
MIX = (
    {"strategy": "none", "weight": 1.0},
    {"strategy": "random_budget", "weight": 1.0, "budget": 2},
    {"strategy": "phase_targeting", "weight": 1.0, "phase": 1, "hits": 1},
    {"strategy": "reactive", "weight": 1.0, "probability": 0.5, "budget": 1},
    {"strategy": "crash_sleep", "weight": 1.0, "count": 1},
)

TRIALS = 1000

#: Trials checked against the serial loop in each run.
SAMPLE = 100

#: ``run_campaign``'s default shard size, used by the traced pass.
SHARD_SIZE = 256


def setup(seed: int):
    """The seeded campaign spec and the serial records of a trial sample."""
    spec = CampaignSpec(
        name="perfbench-mixed",
        seed=seed,
        trials=TRIALS,
        n_values=(6, 8, 10),
        span=3,
        strategies=MIX,
    )
    sample = sorted(random.Random(seed).sample(range(TRIALS), SAMPLE))
    # the serial trial loop, restricted to the sample
    expected = {i: run_trial(derive_trial(spec, i), backend=spec.backend) for i in sample}
    return spec, expected


def campaign_pass(spec, bundle_dir: str):
    """Campaign plus bundle, then full replay; ``(walls, results, replays)``."""
    clear_memo()
    t0 = time.perf_counter()
    run = run_campaign(spec)
    run.write_bundle(bundle_dir)
    t1 = time.perf_counter()
    manifest = read_bundle(bundle_dir)
    replays = [replay_trial(manifest, r["index"]) for r in manifest["results"]]
    t2 = time.perf_counter()
    return [t1 - t0, t2 - t1], run.results, replays


def failures(results, replays, expected) -> int:
    """Wrong sampled records plus replays that missed their digest."""
    wrong = sum(results[i] != record for i, record in expected.items())
    return wrong + sum(not r.match for r in replays)


def traced_pass(spec, bundle_dir: str, ledger: Ledger):
    """:func:`campaign_pass` driven through the campaign's public steps.

    ``run_campaign`` takes no hooks, so the pass runs its steps itself:
    derive each trial, classify a shard through the batch kernel, run
    each trial, then compute metrics, write and read the bundle and
    replay every trial. Returns ``(wall, results, replays, extra)``.
    """
    kernel = resolve_batch_algorithm("auto") == "batch"
    with ledger.patched(Configuration, "normalize", "normalize.normalize"):
        clear_memo()
        t0 = time.perf_counter()
        results = []
        for start in range(0, spec.trials, SHARD_SIZE):
            stop = min(start + SHARD_SIZE, spec.trials)
            with ledger.span("workloads.generate"):
                plans = [derive_trial(spec, i) for i in range(start, stop)]
            traces = [None] * len(plans)
            if kernel:
                with ledger.span("classify.batch"):
                    outcomes = batch_outcomes(
                        [p.config for p in plans], traces=True, errors="return"
                    )
                traces = [
                    o.trace if o is not None and o.error is None else None
                    for o in outcomes
                ]
            for plan, trace in zip(plans, traces):
                with ledger.span("simulate.trial"):
                    results.append(run_trial(plan, backend=spec.backend, trace=trace))
        with ledger.span("aggregate.metrics"):
            metrics = campaign_metrics(results)
        with ledger.span("aggregate.bundle"):
            write_bundle(bundle_dir, spec, results, metrics)
            manifest = read_bundle(bundle_dir)
        replays = []
        for record in manifest["results"]:
            with ledger.span("simulate.replay"):
                replays.append(replay_trial(manifest, record["index"]))
        wall = time.perf_counter() - t0
    # campaigns classify every trial; count the distinct classes among them
    classes = {
        default_keyer(config_from_spec(r["config"]).normalize())
        for r in results
        if r["config"] is not None
    }
    extra = {
        "cache.hit_ratio": 0.0,
        "classify.unique_ratio": len(classes) / len(results),
    }
    return wall, results, replays, extra
