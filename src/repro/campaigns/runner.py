"""The Monte Carlo campaign driver: trials, shards, workers, metrics.

A campaign fans thousands of seeded adversarial trials through the
existing machinery: configurations are classified shard-wise through the
vectorized batch kernel (:func:`repro.core.batch.batch_outcomes`, with a
serial fallback when numpy is absent), simulations run through the
pluggable backends, and the distributed path rides the same durable
:class:`~repro.engine.queue.WorkQueue` the census uses — lease/heartbeat
semantics, retry caps and all.

Fault isolation is per trial: :func:`run_trial` never raises. A
pathological trial — a budget blowout, a jam-induced
:class:`~repro.core.canonical.CanonicalMatchError`, any crash — degrades
to a recorded failure with its own replayable digest, and the sweep
continues. Worker-process death is handled one level up by queue lease
expiry and retries.

Outcomes: ``survived`` (the recorded leader was elected), ``derailed``
(wrong or missing leader on a feasible configuration), ``infeasible``
(control arm: no leader expected, none elected), ``timeout``,
``match_error`` and ``error``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary import adversary_to_spec
from ..adversary.strategies import (
    ReactiveJammer,
    phase_targeting_jammer,
    random_budget_jammer,
    random_crash_sleep,
)
from ..core.canonical import (
    CanonicalMatchError,
    CanonicalProtocol,
    build_canonical_data,
)
from ..core.classifier import classify
from ..core.configuration import Configuration
from ..engine.pipeline import plan_shards
from ..engine.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    JobKind,
    WorkQueue,
    collect_queue,
    drain_with_local_workers,
    queue_worker,
)
from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry
from ..obs.runtime import span as _obs_span
from ..radio.backends import SimulationTimeout
from ..radio.faults import JammedRadioSimulator
from .bundle import (
    config_spec,
    execution_digest,
    failure_digest,
    write_bundle,
)
from .spec import CampaignSpec, TrialPlan, derive_trial

__all__ = [
    "CampaignRun",
    "campaign_metrics",
    "create_campaign_queue",
    "distributed_campaign",
    "execute_trial",
    "instantiate_adversary",
    "run_campaign",
    "run_trial",
    "serial_trial_loop",
]

#: Default shard size for the in-process campaign loop (bounds how many
#: configurations one batch-kernel call classifies in lockstep).
DEFAULT_SHARD_SIZE = 256

#: Outcomes counted as failures by the obs counters.
_FAILURE_OUTCOMES = ("timeout", "match_error", "error")


def instantiate_adversary(
    choice: Dict, *, seed: int, trace, horizon: int
):
    """Build the jam schedule a strategy-mix entry describes.

    ``choice`` is one entry of :attr:`CampaignSpec.strategies`; ``seed``
    is the trial seed; ``trace`` the trial's classifier trace (the
    phase-targeting strategy reads the Lemma 3.7 schedule off it);
    ``horizon`` the trial's round budget. Returns ``None`` for the
    ``"none"`` control arm.
    """
    name = choice.get("strategy", "none")
    if name == "none":
        return None
    if name == "random_budget":
        return random_budget_jammer(
            seed, int(choice.get("budget", 3)), horizon
        )
    if name == "phase_targeting":
        data = build_canonical_data(trace)
        cfg = trace.config
        phase = min(int(choice.get("phase", 1)), data.num_phases)
        return phase_targeting_jammer(
            sigma=data.sigma,
            phase_ends=data.phase_ends,
            tags=[(v, cfg.tag(v)) for v in cfg.nodes],
            phase=phase,
            seed=seed,
            hits=int(choice.get("hits", 1)),
        )
    if name == "reactive":
        return ReactiveJammer(
            seed,
            probability=float(choice.get("probability", 0.5)),
            budget=int(choice.get("budget", 2)),
        )
    if name == "crash_sleep":
        return random_crash_sleep(
            seed,
            list(trace.config.nodes),
            count=int(choice.get("count", 1)),
            horizon=horizon,
            min_len=int(choice.get("min_len", 1)),
            max_len=int(choice.get("max_len", 8)),
        )
    raise ValueError(f"unknown strategy {name!r}")


def execute_trial(
    config: Configuration,
    jammer,
    *,
    max_rounds: Optional[int] = None,
    backend: str = "auto",
    trace=None,
) -> Dict:
    """Classify + simulate one adversarial trial. Never raises.

    The execution core shared by fresh trials (:func:`run_trial`) and
    manifest replay (:func:`~repro.campaigns.bundle.replay_trial`):
    classify ``config`` (or reuse ``trace``), build the canonical
    protocol, run it under ``jammer`` on the requested backend, decide
    leaders, and digest the result. Any failure — round-budget timeout,
    jam-induced canonical match error, or crash — is folded into the
    returned record with a failure digest of its deterministic
    diagnostics, so failed trials replay bit-for-bit too.
    """
    out: Dict = {
        "config": None,
        "feasible": None,
        "outcome": "error",
        "leaders": [],
        "rounds_elapsed": None,
        "done": None,
        "jams": 0,
        "max_rounds": max_rounds,
        "error": None,
        "digest": None,
    }
    try:
        if trace is None:
            trace = classify(config)
        network = trace.config  # normalized
        out["config"] = config_spec(network)
        out["feasible"] = trace.feasible
        protocol = CanonicalProtocol.from_trace(trace)
        if max_rounds is None:
            max_rounds = protocol.round_budget(network.span)
            out["max_rounds"] = max_rounds
        sim = JammedRadioSimulator(
            network,
            protocol.factory,
            jammer=jammer,
            max_rounds=max_rounds,
            backend=backend,
        )
        execution = sim.run()
        leaders = execution.decide_leaders(protocol.decision)
        out["leaders"] = leaders
        out["rounds_elapsed"] = execution.rounds_elapsed
        out["done"] = execution.max_done_local()
        out["jams"] = len(sim.effective_jams)
        if trace.feasible:
            out["outcome"] = (
                "survived" if leaders == [trace.leader] else "derailed"
            )
        else:
            out["outcome"] = "derailed" if leaders else "infeasible"
        out["digest"] = execution_digest(execution, leaders)
    except SimulationTimeout as exc:
        out["outcome"] = "timeout"
        out["error"] = str(exc)
        out["digest"] = failure_digest(
            "timeout",
            {
                "round_reached": exc.round_reached,
                "awake": exc.awake,
                "asleep": exc.asleep,
                "terminated": exc.terminated,
            },
        )
    except CanonicalMatchError as exc:
        out["outcome"] = "match_error"
        out["error"] = str(exc)
        out["digest"] = failure_digest("match_error", {"message": str(exc)})
    except Exception as exc:  # per-trial isolation: record, don't raise
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["digest"] = failure_digest("error", {"message": out["error"]})
    return out


def run_trial(
    plan: TrialPlan, *, backend: str = "auto", trace=None
) -> Dict:
    """Run one derived trial end to end; return its manifest record.

    Fault-isolated: classification errors, adversary-construction
    errors and simulation failures all degrade to a recorded failure.
    The record is self-contained — configuration spec, finalized
    adversary spec, round budget, backend, outcome, digest — so
    :func:`~repro.campaigns.bundle.replay_trial` needs nothing else.
    """
    record: Dict = {
        "index": plan.index,
        "seed": plan.seed,
        "strategy": plan.strategy.get("strategy", "none"),
        "backend": backend,
        "adversary": None,
    }
    jammer = None
    try:
        if trace is None:
            trace = classify(plan.config)
        protocol = CanonicalProtocol.from_trace(trace)
        horizon = protocol.round_budget(trace.config.span)
        jammer = instantiate_adversary(
            plan.strategy, seed=plan.seed, trace=trace, horizon=horizon
        )
        record["adversary"] = adversary_to_spec(jammer)
    except Exception as exc:
        record.update(
            config=config_spec(plan.config),
            feasible=None,
            outcome="error",
            leaders=[],
            rounds_elapsed=None,
            done=None,
            jams=0,
            max_rounds=None,
            error=f"{type(exc).__name__}: {exc}",
            digest=failure_digest(
                "error", {"message": f"{type(exc).__name__}: {exc}"}
            ),
        )
        return record
    record.update(
        execute_trial(
            plan.config, jammer, max_rounds=None, backend=backend, trace=trace
        )
    )
    return record


def _batch_traces(configs: Sequence[Configuration]) -> List:
    """Classifier traces for a shard, via the vectorized batch kernel.

    Returns one trace (or ``None``) per configuration, in order. Uses
    :func:`repro.core.batch.batch_outcomes` in trace mode when numpy is
    available; otherwise (or for instances the kernel rejects) returns
    ``None`` so the caller's serial path classifies — and fault-isolates
    — that trial itself.
    """
    try:
        from ..core.batch import batch_outcomes, resolve_batch_algorithm

        if resolve_batch_algorithm("auto") != "batch":
            return [None] * len(configs)
        outcomes = batch_outcomes(list(configs), traces=True, errors="return")
        return [
            o.trace if o is not None and o.error is None else None
            for o in outcomes
        ]
    except Exception:
        return [None] * len(configs)


def _run_shard(spec: CampaignSpec, start: int, stop: int) -> List[Dict]:
    """Run trials ``[start, stop)`` of a campaign (one shard).

    Derives each trial plan, classifies the shard's configurations in
    one batch-kernel call, then runs the (fault-isolated) trials
    serially. Updates the campaign obs counters when tracing is on.
    """
    plans = [derive_trial(spec, i) for i in range(start, stop)]
    traces = _batch_traces([p.config for p in plans])
    records = [
        run_trial(plan, backend=spec.backend, trace=trace)
        for plan, trace in zip(plans, traces)
    ]
    if _OBS.enabled:
        _registry.inc("campaign.trials", len(records))
        outcomes = Counter(r["outcome"] for r in records)
        _registry.inc("campaign.survived", outcomes.get("survived", 0))
        _registry.inc("campaign.derailed", outcomes.get("derailed", 0))
        _registry.inc(
            "campaign.failures",
            sum(outcomes.get(o, 0) for o in _FAILURE_OUTCOMES),
        )
    return records


@dataclass
class CampaignRun:
    """A completed campaign: spec, per-trial records, robustness metrics."""

    spec: CampaignSpec
    results: List[Dict]
    metrics: Dict = field(default_factory=dict)

    def write_bundle(self, directory: str) -> str:
        """Write the self-contained replay bundle; return manifest path."""
        return write_bundle(directory, self.spec, self.results, self.metrics)

    def describe(self) -> str:
        """One-line campaign summary for CLI footers and logs."""
        m = self.metrics
        rate = m.get("survival_rate")
        rate_s = f"{rate:.1%}" if rate is not None else "n/a"
        return (
            f"campaign {self.spec.name!r}: {len(self.results)} trial(s), "
            f"{m.get('feasible_trials', 0)} feasible, survival {rate_s}, "
            f"outcomes {m.get('outcomes', {})}"
        )


def adversary_intensity(record: Dict) -> int:
    """Scalar adversary strength of a trial record (boundary-curve x-axis).

    Budgets for the budgeted jammers, per-node hits for the
    phase-targeting jammer, fault-window count for crash/sleep faults,
    0 for the failure-free control arm.
    """
    spec = record.get("adversary") or {"kind": "jam_nothing"}
    kind = spec.get("kind")
    if kind == "random_budget":
        return int(spec["budget"])
    if kind == "reactive":
        return int(spec["budget"])
    if kind == "phase_targeting":
        return int(spec["hits"])
    if kind == "crash_sleep":
        return len(spec["windows"])
    if kind == "jam_pairs":
        return len(spec["pairs"])
    if kind == "jam_rounds":
        return len(spec["rounds"])
    return 0


def campaign_metrics(results: List[Dict]) -> Dict:
    """Robustness metrics of a completed campaign.

    ``survival_rate`` is over the *feasible* trials (the control
    question — can the adversary break an election that should
    succeed); ``boundary`` is the derail-boundary curve: one row per
    (strategy, intensity) cell with its trial count and survival rate;
    ``witnesses`` are the extremal trial indices picked by
    :func:`repro.analysis.extremal.campaign_witnesses` (deduped up to
    isomorphism).
    """
    from ..analysis.extremal import campaign_witnesses

    outcomes = Counter(r["outcome"] for r in results)
    feasible = [r for r in results if r.get("feasible")]
    survived = sum(1 for r in feasible if r["outcome"] == "survived")
    cells: Dict = {}
    for r in results:
        key = (r.get("strategy", "none"), adversary_intensity(r))
        cell = cells.setdefault(
            key, {"trials": 0, "feasible": 0, "survived": 0}
        )
        cell["trials"] += 1
        if r.get("feasible"):
            cell["feasible"] += 1
            if r["outcome"] == "survived":
                cell["survived"] += 1
    boundary = [
        {
            "strategy": strategy,
            "intensity": intensity,
            "trials": cell["trials"],
            "feasible": cell["feasible"],
            "survived": cell["survived"],
            "survival_rate": (
                round(cell["survived"] / cell["feasible"], 4)
                if cell["feasible"]
                else None
            ),
        }
        for (strategy, intensity), cell in sorted(cells.items())
    ]
    return {
        "trials": len(results),
        "outcomes": dict(outcomes),
        "feasible_trials": len(feasible),
        "survived": survived,
        "survival_rate": (
            round(survived / len(feasible), 4) if feasible else None
        ),
        "boundary": boundary,
        "witnesses": campaign_witnesses(results),
    }


def run_campaign(spec: CampaignSpec) -> CampaignRun:
    """Run a whole campaign in-process; return results plus metrics.

    Trials run in shards of :data:`DEFAULT_SHARD_SIZE` (each shard
    classified through the batch kernel in one lockstep call); the shard
    size only bounds per-shard memory, never results. For multi-process
    fan-out use :func:`distributed_campaign`.
    """
    results: List[Dict] = []
    with _obs_span(
        "campaign.run", campaign=spec.name, trials=spec.trials
    ):
        for start in range(0, spec.trials, DEFAULT_SHARD_SIZE):
            stop = min(start + DEFAULT_SHARD_SIZE, spec.trials)
            with _obs_span("campaign.shard", start=start, stop=stop):
                results.extend(_run_shard(spec, start, stop))
    return CampaignRun(
        spec=spec, results=results, metrics=campaign_metrics(results)
    )


def serial_trial_loop(spec: CampaignSpec) -> List[Dict]:
    """The naive baseline: one-at-a-time trials, no batching, no workers.

    Classifies each trial's configuration individually (the compiled
    serial core) and simulates it inline. Produces records identical to
    :func:`run_campaign` — it exists as the throughput baseline the E28
    benchmark measures the campaign engine against.
    """
    return [
        run_trial(derive_trial(spec, i), backend=spec.backend)
        for i in range(spec.trials)
    ]


# ----------------------------------------------------------------------
# distributed campaigns (durable work queue + lease-based workers)
# ----------------------------------------------------------------------
def create_campaign_queue(
    queue_path: str,
    spec: CampaignSpec,
    *,
    num_shards: int,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> WorkQueue:
    """Enumerate a campaign into a durable shard queue (coordinator side).

    The queue metadata carries the full campaign spec, so a standalone
    worker process rebuilds every trial from the queue file alone.
    Creation is idempotent exactly like the census queue: re-running the
    coordinator against a queue holding the same campaign resumes it.
    """
    shards = plan_shards(spec.trials, num_shards)
    meta = {
        "queue": "campaign",
        "campaign": spec.as_dict(),
        "total": spec.trials,
        "num_shards": len(shards),
    }
    return WorkQueue.create(
        queue_path,
        [(s.index, s.start, s.stop, float(s.size)) for s in shards],
        meta,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )


@contextmanager
def _open_campaign(meta: Dict):
    """Set up one campaign worker from its queue's meta; yield its runner.

    The runner runs one shard of trials (:func:`_run_shard`) and returns
    their records with ``{"trials": count}``. Individual trial failures
    are *recorded results*, not worker errors — only a whole-shard
    crash (or worker death, via lease expiry) sends a shard back for
    retry.
    """
    spec = CampaignSpec.from_dict(meta["campaign"])

    def run(start: int, stop: int) -> Tuple[List[Dict], Dict[str, int]]:
        records = _run_shard(spec, start, stop)
        return records, {"trials": len(records)}

    yield run


def _merge_campaign(queue: WorkQueue) -> CampaignRun:
    """Merge a campaign queue's done shards into a :class:`CampaignRun`.

    Records are ordered by trial index, so the merged result is
    identical regardless of which worker ran which shard.
    """
    spec = CampaignSpec.from_dict(queue.meta()["campaign"])
    results: List[Dict] = []
    for _idx, rows, _stats in queue.results():
        results.extend(rows)
    results.sort(key=lambda r: r["index"])
    return CampaignRun(
        spec=spec, results=results, metrics=campaign_metrics(results)
    )


#: The campaign job kind of the work queue
#: (:data:`repro.engine.queue.JOB_KINDS`).
CAMPAIGN_JOB = JobKind(
    queue="campaign", open=_open_campaign, merge=_merge_campaign
)


def distributed_campaign(
    spec: CampaignSpec,
    queue_path: str,
    *,
    num_workers: int = 1,
    num_shards: Optional[int] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll: float = 0.2,
) -> CampaignRun:
    """One-call distributed campaign: coordinator plus N local workers.

    Enumerates the campaign into a durable queue (resuming a matching
    half-finished one), spawns ``num_workers`` worker processes that
    exit once nothing is leasable, drains a dead worker's shard
    in-process once its lease expires (retried every ``poll`` seconds),
    and merges. ``num_shards`` defaults to ``4 * num_workers``.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if num_shards is None:
        num_shards = max(4 * num_workers, 1)
    queue = create_campaign_queue(
        queue_path,
        spec,
        num_shards=num_shards,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )
    # close before forking: SQLite connections must not cross a fork
    queue.close()
    drain_with_local_workers(
        queue_path, queue_worker, num_workers=num_workers, poll=poll
    )
    return collect_queue(queue_path, wait=False)
