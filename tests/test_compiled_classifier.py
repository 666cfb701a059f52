"""Cross-algorithm agreement: reference == compiled == batch.

The contract every non-reference implementation signs is bit-for-bit
:class:`~repro.core.trace.ClassifierTrace` equality with the faithful
reference — same labels, class numbering, representatives, decision and
leader — plus error-path parity and sensible op metering on the
incremental path. These tests enforce it through the shared differential
harness (:mod:`repro.testing`) on hypothesis-generated configurations
(varied tags, spans, densities and non-integer node names) and on
targeted units.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (
    assert_trace_equal,
    configurations,
    diverse_configurations,
    random_config_batch,
)

from repro.core.classifier import (
    ALGORITHM_NAMES,
    ClassifierInvariantError,
    classifier_ops,
    classify,
    is_feasible,
    reference_classify,
    resolve_algorithm,
)
from repro.core.compiled import (
    IndexedConfiguration,
    LabelInterner,
    compile_configuration,
    compiled_classify,
)
from repro.core.configuration import (
    Configuration,
    ConfigurationError,
    line_configuration,
)
from repro.core.partition import OpCounter
from repro.graphs.families import g_m

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# trace agreement
# ----------------------------------------------------------------------
@relaxed
@given(configurations(max_n=9, max_span=4))
def test_three_algorithms_agree(cfg):
    ref = reference_classify(cfg)
    assert_trace_equal(compiled_classify(cfg), ref, context="compiled")


@relaxed
@given(configurations(max_n=7, max_span=3))
def test_agreement_survives_non_integer_node_names(cfg):
    """The compiled re-indexing must be transparent to node identity:
    relabel the nodes to (sortable) strings and the traces still agree,
    with the leader reported under the new name."""
    named = cfg.relabel({v: f"node-{v:03d}" for v in cfg.nodes})
    ref = reference_classify(named)
    assert_trace_equal(compiled_classify(named), ref, context="compiled")
    if ref.feasible:
        assert isinstance(ref.leader, str)


@relaxed
@given(diverse_configurations(max_n=8, max_span=3))
def test_dispatcher_knob_is_pure_performance(cfg):
    """Every ``algorithm`` value yields the same trace through classify
    — including on shifted-tag and string-named configurations."""
    ref = classify(cfg, algorithm="reference")
    for algorithm in ALGORITHM_NAMES:
        assert_trace_equal(
            classify(cfg, algorithm=algorithm), ref, context=algorithm
        )


def test_agreement_on_seeded_batch_with_shifted_tags():
    """Tag shifts normalize away identically in all implementations."""
    for cfg in random_config_batch(25, base_seed=4242):
        shifted = cfg.shift_tags(3)
        ref = reference_classify(shifted)
        assert_trace_equal(compiled_classify(shifted), ref)


# ----------------------------------------------------------------------
# error-path parity
# ----------------------------------------------------------------------
def test_unknown_algorithm_rejected():
    cfg = line_configuration([0, 1])
    with pytest.raises(ValueError, match="unknown classifier algorithm"):
        classify(cfg, algorithm="quantum")
    with pytest.raises(ValueError):
        resolve_algorithm("quantum")


def test_disconnected_input_fails_identically_for_every_algorithm():
    """Disconnection is rejected at Configuration construction, before
    any algorithm runs — so all knob values share the error path."""
    with pytest.raises(ConfigurationError, match="not connected"):
        Configuration([(0, 1)], {0: 0, 1: 0, 2: 1})
    for algorithm in ALGORITHM_NAMES:
        with pytest.raises(ConfigurationError):
            classify(
                Configuration([(0, 1)], {0: 0, 1: 0, 2: 1}),
                algorithm=algorithm,
            )


def test_invariant_violation_parity(monkeypatch):
    """Starve every implementation of iterations (fake ⌈n/2⌉ = 0): each
    must raise ClassifierInvariantError, not return a partial trace."""

    class ZeroCeil:
        @staticmethod
        def ceil(x):
            return 0

    import repro.core.batch as batch_mod
    import repro.core.classifier as ref_mod
    import repro.core.compiled as compiled_mod

    cfg = line_configuration([0, 1, 0])
    runs = [
        (ref_mod, lambda: reference_classify(cfg)),
        (compiled_mod, lambda: compiled_classify(cfg)),
    ]
    if batch_mod.HAVE_NUMPY:
        runs.append((batch_mod, lambda: classify(cfg, algorithm="batch")))
    for mod, run in runs:
        monkeypatch.setattr(mod, "math", ZeroCeil)
        with pytest.raises(ClassifierInvariantError, match="Lemma 3.4"):
            run()
        monkeypatch.undo()


# ----------------------------------------------------------------------
# op metering on the incremental path
# ----------------------------------------------------------------------
def test_compiled_op_counter_sanity():
    """Compiled metering is positive, splits into both counters, and on
    a many-iteration workload undercuts the reference accounting."""
    cfg = g_m(8)
    counter = OpCounter()
    trace = compiled_classify(cfg, counter=counter)
    assert counter.triple_ops > 0
    assert counter.label_ops > 0
    assert trace.total_ops == counter.total > 0
    assert counter.total < reference_classify(cfg, count_ops=True).total_ops


def test_compiled_frontier_shrinks_metered_work():
    """The incremental win is observable in the meters: on G_20 (where
    splits crawl outward for Θ(n) iterations), the compiled label work
    stays well below one full-population recompute per iteration."""
    cfg = g_m(20)
    counter = OpCounter()
    trace = compiled_classify(cfg, counter=counter)
    iters = trace.num_iterations
    assert iters == 20  # the split really does crawl outward
    # recomputing every label every iteration costs at least
    # sum(deg) = 2·m triple-op units per iteration (2·80·20 = 3200
    # here); the frontier path must land far below that
    assert counter.triple_ops < cfg.n * iters  # 982 < 1620 measured


def test_classifier_ops_pins_reference_units():
    """Lemma 3.5 accounting stays tied to the faithful implementation
    no matter what the repo-wide default algorithm is."""
    cfg = g_m(3)
    assert (
        classifier_ops(cfg)
        == reference_classify(cfg, count_ops=True).total_ops
    )


# ----------------------------------------------------------------------
# the compiled representation itself
# ----------------------------------------------------------------------
def test_compile_configuration_shape():
    cfg = Configuration([("b", "c"), ("a", "b")], {"a": 2, "b": 3, "c": 4})
    comp = compile_configuration(cfg)
    assert isinstance(comp, IndexedConfiguration)
    assert comp.nodes == ("a", "b", "c")
    assert comp.tags == (0, 1, 2)  # normalized
    assert comp.adj == ((1,), (0, 2), (1,))
    assert comp.adj_offsets == (0, 1, 3, 4)
    assert comp.adj_targets == (1, 0, 2, 1)
    assert comp.n == 3
    assert comp.num_edges == 2
    assert comp.span == 2
    assert [comp.degree(i) for i in range(3)] == [1, 2, 1]


def test_compiled_representation_is_shared_with_canon():
    """One compilation step serves classifier and canon alike: the canon
    package's IndexedGraph/index_graph are the compiled core's."""
    from repro.canon.refine import IndexedGraph, index_graph

    assert IndexedGraph is IndexedConfiguration
    cfg = line_configuration([0, 2, 1])
    assert index_graph(cfg) == compile_configuration(cfg)


def test_label_interner_dense_ids():
    interner = LabelInterner()
    a = interner.intern(((1, 2, 1),))
    b = interner.intern(((1, 3, 2),))
    assert (a, b) == (0, 1)
    assert interner.intern(((1, 2, 1),)) == a  # stable on re-intern
    assert interner.label(b) == ((1, 3, 2),)
    assert len(interner) == 2


def test_is_feasible_knob_passthrough():
    cfg = line_configuration([0, 1, 0])
    assert all(
        is_feasible(cfg, algorithm=a) for a in ALGORITHM_NAMES
    )
