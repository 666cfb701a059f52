"""E1–E18 — the paper's experiments, gated from the one registry.

Each case runs one entry of :data:`repro.reporting.experiments.EXPERIMENTS`
under the ``benchmark`` fixture and fails if any of its named claim
checks failed, naming the experiment and every failing check. The same
results render EXPERIMENTS.md (``examples/generate_experiments_md.py``);
``docs/experiments.md`` maps each experiment to its paper anchor.
"""

import pytest

from repro.reporting.experiments import EXPERIMENTS


@pytest.mark.benchmark(group="paper-experiments")
@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id.lower())
def test_experiment_claims_hold(benchmark, experiment):
    result = benchmark(experiment.run)
    assert result.checks, f"{experiment.heading}: no checks"
    assert not result.failed, (
        f"{experiment.heading}: failed checks: " + "; ".join(result.failed)
    )
