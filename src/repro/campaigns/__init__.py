"""``repro.campaigns`` — reproducible Monte Carlo robustness campaigns.

A campaign sweeps thousands of seeded adversarial trials — each one a
configuration drawn from :func:`~repro.engine.workloads.seeded_config`,
an adversary drawn from the :mod:`repro.adversary` strategy mix, and a
canonical-DRIP election simulated under it — and reduces them to
robustness metrics: survival rate, derail-boundary curves, and extremal
witness trials. Everything is a pure function of the
:class:`~repro.campaigns.spec.CampaignSpec`, and every campaign emits a
self-contained bundle (:mod:`~repro.campaigns.bundle`) from which any
trial replays bit-for-bit.

Three execution paths, identical results:

* :func:`run_campaign` — in-process, shard-wise through the vectorized
  batch classification kernel;
* :func:`distributed_campaign` (or :func:`create_campaign_queue`, then
  the queue's own :func:`~repro.engine.queue_worker` and
  :func:`~repro.engine.collect_queue`) — the durable
  :mod:`repro.engine.queue` path with lease/heartbeat retry isolation;
* :func:`serial_trial_loop` — the naive one-at-a-time baseline the E28
  benchmark measures the other two against.

See ``docs/robustness.md`` for a walkthrough.
"""

from .bundle import (
    BUNDLE_FORMAT,
    ReplayReport,
    config_from_spec,
    config_spec,
    execution_digest,
    failure_digest,
    read_bundle,
    replay_trial,
    write_bundle,
)
from .runner import (
    CampaignRun,
    campaign_metrics,
    create_campaign_queue,
    distributed_campaign,
    execute_trial,
    instantiate_adversary,
    run_campaign,
    run_trial,
    serial_trial_loop,
)
from .spec import (
    STRATEGY_NAMES,
    CampaignSpec,
    TrialPlan,
    derive_trial,
)

__all__ = [
    "BUNDLE_FORMAT",
    "CampaignRun",
    "CampaignSpec",
    "ReplayReport",
    "STRATEGY_NAMES",
    "TrialPlan",
    "campaign_metrics",
    "config_from_spec",
    "config_spec",
    "create_campaign_queue",
    "derive_trial",
    "distributed_campaign",
    "execute_trial",
    "execution_digest",
    "failure_digest",
    "instantiate_adversary",
    "read_bundle",
    "replay_trial",
    "run_campaign",
    "run_trial",
    "serial_trial_loop",
    "write_bundle",
]
