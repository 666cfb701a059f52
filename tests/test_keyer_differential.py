"""Whole-path keyer differential: canonical keys never change an answer.

The engine and the service key every configuration before they look it
up, and the default keyer merges tag-preserving isomorphs into one cache
entry. That is sound only if the canonizer never merges two classes with
different verdicts. This suite runs one seeded mix end to end twice —
once with ``default_keyer``, once with ``labeled_key``, which merges
nothing — and requires identical census rows and identical service
reports. The mix covers:

* symmetric inputs: ``G_m``, and cycles, stars and complete graphs with
  uniform tags;
* the exhaustive ``n <= 5`` sweep (:func:`repro.testing.sweep_configurations`);
* rigid G(n, 0.25) graphs at n = 20–32;

each member followed every few items by a relabeled, tag-shifted copy so
the canonical keyer has duplicates to coalesce.

A census that only classifies computes no key at all; its rows must
equal the keyed rounds census's rows in every column it shares.
"""

import pytest

from repro.analysis.automorphisms import is_rigid
from repro.engine import (
    RandomGnpWorkload,
    SequenceWorkload,
    default_keyer,
    labeled_key,
    sharded_census,
)
from repro.graphs.families import g_m
from repro.graphs.generators import (
    complete_configuration,
    cycle_configuration,
    star_configuration,
)
from repro.service import BatchClassifier
from repro.testing import random_relabel, sweep_configurations

#: Rigid random members: G(n, 0.25) at these sizes, this many each.
RIGID_SIZES = (20, 24, 28, 32)
RIGID_SAMPLES = 4


def rigid_gnp():
    configs = list(
        RandomGnpWorkload(RIGID_SIZES, span=2, p=0.25, samples=RIGID_SAMPLES, seed=20261016)
    )
    assert all(is_rigid(cfg) for cfg in configs)
    return configs


@pytest.fixture(scope="module")
def mix():
    base = [g_m(m) for m in (2, 3, 5)]
    base += [cycle_configuration([0] * k) for k in (3, 6, 9)]
    base += [star_configuration([0] * k) for k in (3, 6, 10)]
    base += [complete_configuration([0] * k) for k in (2, 5, 8)]
    base += list(sweep_configurations())
    base += rigid_gnp()
    configs = []
    for i, cfg in enumerate(base):
        configs.append(cfg)
        if i % 4 == 0:
            configs.append(random_relabel(cfg, i).shift_tags(1 + i % 3))
    return configs


@pytest.fixture(scope="module")
def keyed_runs(mix):
    workload = SequenceWorkload(mix, label="keyer-differential")
    return {
        keyer.__name__: sharded_census(
            workload, num_shards=3, keyer=keyer, measure_rounds=True
        )
        for keyer in (default_keyer, labeled_key)
    }


def test_census_rows_equal_under_both_keyers(keyed_runs):
    canonical, labeled = keyed_runs["default_keyer"], keyed_runs["labeled_key"]
    assert canonical.result.rows == labeled.result.rows
    # the canonical keyer really coalesced: isomorphs cost one classification
    assert canonical.stats.classified < labeled.stats.classified


def test_keyless_census_rows_equal_keyed_rows(mix, keyed_runs):
    def shared_columns(run):
        return {
            group: (row.total, row.feasible, row.iterations_sum)
            for group, row in run.result.rows.items()
        }

    keyless = sharded_census(
        SequenceWorkload(mix, label="keyer-differential"), num_shards=3
    )
    assert keyless.stats.classified == len(mix)
    for name, keyed in keyed_runs.items():
        assert shared_columns(keyless) == shared_columns(keyed), name


@pytest.mark.parametrize("mode", ["decide", "elect"])
def test_service_reports_equal_under_both_keyers(mix, mode):
    reports = {}
    for keyer in (default_keyer, labeled_key):
        with BatchClassifier(keyer=keyer) as svc:
            tickets = svc.submit_many(mix, mode=mode)
            reports[keyer.__name__] = [t.report(timeout=60) for t in tickets]
    assert reports["default_keyer"] == reports["labeled_key"]
