"""Integration: exhaustive cross-validation on small configurations (E1).

Every connected graph shape on up to 4 nodes (all 5-node shapes with
span 1), crossed with every normalized tag vector, is pushed through the
full validation stack: the default (compiled) classifier vs the paper's
faithful reference classifier, distributed canonical execution, Lemma 3.9
per-phase equivalence, simulation ground truth, automorphism necessary
condition, and the final election outcome.
"""

import pytest

from repro.analysis.validation import validate
from repro.graphs.enumeration import enumerate_configurations


@pytest.mark.parametrize("n,max_tag", [(1, 2), (2, 2), (3, 2), (4, 1)])
def test_exhaustive_small_configurations(n, max_tag):
    failures = []
    count = 0
    for cfg in enumerate_configurations(n, max_tag):
        count += 1
        report = validate(cfg)
        if not report.ok:
            failures.append(report.describe())
    assert count > 0
    assert not failures, f"{len(failures)} failures:\n" + "\n".join(failures[:5])


def test_exhaustive_five_node_span_one():
    failures = 0
    total = 0
    for cfg in enumerate_configurations(5, 1):
        total += 1
        report = validate(cfg, check_automorphisms=False)
        failures += not report.ok
    assert total == 21 * 31  # 21 shapes x (2^5 - 1) normalized vectors
    assert failures == 0


def test_labeled_three_node_configurations():
    # labeled mode catches labeling-dependent asymmetries
    for cfg in enumerate_configurations(3, 2, labeled=True):
        report = validate(cfg)
        assert report.ok, report.describe()
