"""Property tests for the classifier over random configurations."""

import math

from hypothesis import HealthCheck, given, settings

from conftest import configurations

from repro.analysis.automorphisms import has_fixed_node
from repro.core.classifier import classify
from repro.core.partition import class_members, partition_key

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@relaxed
@given(configurations())
def test_iteration_cap_and_monotonicity(cfg):
    trace = classify(cfg)
    assert 1 <= trace.num_iterations <= math.ceil(cfg.n / 2)
    chain = trace.class_count_chain()
    assert all(a <= b for a, b in zip(chain, chain[1:]))
    assert 1 <= chain[-1] <= cfg.n


@relaxed
@given(configurations())
def test_decision_consistency(cfg):
    trace = classify(cfg)
    singles = sorted(
        k for k, vs in class_members(trace.final_classes()).items() if len(vs) == 1
    )
    if trace.feasible:
        assert singles
        # Lemma 3.11: the leader class is the *smallest* singleton class.
        assert trace.leader_class == singles[0]
        assert trace.final_classes()[trace.leader] == trace.leader_class
    else:
        assert not singles
        # No exit: the last two partitions must be identical
        assert trace.num_classes_at(trace.num_iterations + 1) == trace.num_classes_at(
            trace.num_iterations
        )


@relaxed
@given(configurations())
def test_separation_is_permanent(cfg):
    # Observation 3.2 on arbitrary random configurations.
    trace = classify(cfg)
    nodes = trace.config.nodes
    for j in range(1, trace.num_iterations + 1):
        before, after = trace.classes_at(j), trace.classes_at(j + 1)
        pairs = [(v, w) for v in nodes for w in nodes if v < w]
        for v, w in pairs:
            if before[v] != before[w]:
                assert after[v] != after[w]


@relaxed
@given(configurations(max_n=6))
def test_feasible_implies_fixed_node(cfg):
    # the automorphism necessary condition, adversarially sampled
    trace = classify(cfg)
    if trace.feasible:
        assert has_fixed_node(trace.config)


@relaxed
@given(configurations())
def test_tag_shift_invariance(cfg):
    shifted = cfg.shift_tags(3)
    a, b = classify(cfg), classify(shifted)
    assert a.decision == b.decision
    assert a.leader == b.leader
    assert [partition_key(a.classes_at(j)) for j in range(1, a.num_iterations + 2)] == [
        partition_key(b.classes_at(j)) for j in range(1, b.num_iterations + 2)
    ]


@relaxed
@given(configurations())
def test_refine_respects_blocks(cfg):
    # each partition_{j+1} block is contained in a partition_j block
    trace = classify(cfg)
    for j in range(1, trace.num_iterations + 1):
        coarse = trace.classes_at(j)
        fine = trace.classes_at(j + 1)
        for block in class_members(fine).values():
            assert len({coarse[v] for v in block}) == 1
