"""The batch kernel's contract: bit-for-bit serial equality, per instance.

``repro.core.batch`` packs whole populations into flat numpy arrays and
refines every instance in lockstep; its promise is that no caller can
tell — each instance's :class:`~repro.core.trace.ClassifierTrace` equals
the serial classifiers' exactly (enforced here through the shared
differential harness), errors surface per instance exactly as serial
classification raises them, and every wired entry point (dispatcher,
engine, service) produces identical results under
``algorithm="batch"``/``"auto"`` and under the numpy-less fallback.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_SWEEP_GRID,
    assert_trace_equal,
    configurations,
    diverse_configurations,
    random_config_batch,
    random_relabel,
    sweep_configurations,
)

import repro.core.batch as batch_mod
from repro.core.batch import (
    BatchOutcome,
    ConfigurationBatch,
    batch_census_records,
    batch_classify,
    batch_outcomes,
    resolve_batch_algorithm,
)
from repro.core.classifier import (
    ClassifierInvariantError,
    classify,
    reference_classify,
)
from repro.core.compiled import compiled_classify
from repro.core.configuration import (
    Configuration,
    ConfigurationError,
    line_configuration,
)
from repro.graphs.families import g_m, s_m

pytestmark = pytest.mark.skipif(
    not batch_mod.HAVE_NUMPY, reason="numpy not installed"
)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# per-instance agreement on random mixed batches
# ----------------------------------------------------------------------
@relaxed
@given(st.lists(configurations(max_n=8, max_span=3), max_size=12))
def test_batch_agrees_per_instance_on_mixed_batches(cfgs):
    """Every instance of a random mixed-size batch classifies exactly as
    the serial implementations classify it alone."""
    traces = batch_classify(cfgs)
    assert len(traces) == len(cfgs)
    for i, (cfg, trace) in enumerate(zip(cfgs, traces)):
        assert_trace_equal(trace, reference_classify(cfg), context=f"instance {i}")
        assert_trace_equal(trace, compiled_classify(cfg), context=f"instance {i}")


@relaxed
@given(st.lists(diverse_configurations(max_n=7, max_span=3), max_size=8))
def test_batch_agrees_on_diverse_batches(cfgs):
    """Shifted tags and string node names pack and classify transparently,
    even mixed with plain instances in one batch."""
    for i, trace in enumerate(batch_classify(cfgs)):
        assert_trace_equal(trace, reference_classify(cfgs[i]), context=f"instance {i}")


def test_exhaustive_small_n_sweep_in_one_giant_batch():
    """Every configuration of the shared small-n grid, packed into ONE
    mixed batch: each instance's trace is bit-for-bit the reference's."""
    cfgs = list(sweep_configurations(SMALL_SWEEP_GRID))
    assert len(cfgs) > 100  # the sweep must actually sweep
    for cfg, trace in zip(cfgs, batch_classify(cfgs)):
        assert_trace_equal(trace, reference_classify(cfg), context=repr(cfg))


# ----------------------------------------------------------------------
# ragged edge cases
# ----------------------------------------------------------------------
def test_empty_batch():
    assert batch_classify([]) == []
    assert batch_outcomes([]) == []
    assert batch_census_records([]) == []


def test_batch_of_one():
    cfg = line_configuration([0, 1, 0])
    (trace,) = batch_classify([cfg])
    assert_trace_equal(trace, reference_classify(cfg))


def test_all_duplicate_isomorph_batch():
    """A batch of one configuration's relabelings: every slot gets its
    own instance's answer (leaders under the instance's own names), not
    a shared canonical one."""
    base = g_m(2)
    cfgs = [base] + [random_relabel(base, seed) for seed in range(5)] + [base]
    for cfg, trace in zip(cfgs, batch_classify(cfgs)):
        assert_trace_equal(trace, reference_classify(cfg))


def test_divergent_convergence_counts_retire_correctly():
    """Instances deciding at wildly different iterations (1 vs ~m) in one
    batch: early finishers retire without disturbing the stragglers."""
    cfgs = [
        line_configuration([0]),       # YES at iteration 1
        g_m(8),                        # takes 8 iterations
        s_m(2),                        # infeasible, NO at iteration 2
        line_configuration([0, 1]),    # YES at iteration 1
        g_m(5),                        # takes 5 iterations
    ]
    traces = batch_classify(cfgs)
    assert [t.num_iterations for t in traces] == [1, 8, 2, 1, 5]
    for cfg, trace in zip(cfgs, traces):
        assert_trace_equal(trace, reference_classify(cfg))


# ----------------------------------------------------------------------
# error-path parity and isolation
# ----------------------------------------------------------------------
class _ExplodingConfig(Configuration):
    """Valid at construction; detonates at classification time."""

    def normalize(self):
        raise ConfigurationError("exploding instance")


def test_one_bad_instance_raises_exactly_what_serial_raises():
    bad = _ExplodingConfig([(0, 1)], {0: 0, 1: 1})
    with pytest.raises(ConfigurationError) as batch_err:
        batch_outcomes([line_configuration([0, 1]), bad])
    with pytest.raises(ConfigurationError) as serial_err:
        classify(bad, algorithm="compiled")
    assert str(batch_err.value) == str(serial_err.value)
    assert type(batch_err.value) is type(serial_err.value)


def test_bad_instance_does_not_poison_the_others():
    good = [line_configuration([0, 1, 0]), g_m(2), s_m(2)]
    bad = _ExplodingConfig([(0, 1)], {0: 0, 1: 1})
    outcomes = batch_outcomes(
        [good[0], bad, good[1], good[2]], traces=True, errors="return"
    )
    assert isinstance(outcomes[1], BatchOutcome)
    assert isinstance(outcomes[1].error, ConfigurationError)
    assert outcomes[1].trace is None
    healthy = [outcomes[0], outcomes[2], outcomes[3]]
    for cfg, out in zip(good, healthy):
        assert out.error is None
        assert_trace_equal(out.trace, reference_classify(cfg))


def test_kernel_invariant_errors_are_per_instance(monkeypatch):
    """Starved of iterations, the kernel reports the failure on each
    instance — same type and Lemma 3.4 message as serial — rather than
    one batch-level crash."""

    class ZeroCeil:
        @staticmethod
        def ceil(x):
            return 0

    monkeypatch.setattr(batch_mod, "math", ZeroCeil)
    cfgs = [line_configuration([0, 1, 0]), line_configuration([0, 1])]
    outcomes = batch_outcomes(cfgs, errors="return")
    for out in outcomes:
        assert isinstance(out.error, ClassifierInvariantError)
        assert "Lemma 3.4" in str(out.error)
    with pytest.raises(ClassifierInvariantError, match="Lemma 3.4"):
        batch_outcomes(cfgs)  # errors="raise" re-raises the first


def test_errors_knob_validated():
    with pytest.raises(ValueError, match="errors must be"):
        batch_outcomes([], errors="ignore")


# ----------------------------------------------------------------------
# dispatcher and fallback
# ----------------------------------------------------------------------
def test_classify_dispatches_to_batch():
    cfg = line_configuration([0, 2, 1]).shift_tags(3)
    assert_trace_equal(
        classify(cfg, algorithm="batch"), reference_classify(cfg)
    )


def test_batch_algorithm_refuses_op_metering():
    cfg = line_configuration([0, 1])
    with pytest.raises(ValueError, match="does not meter"):
        classify(cfg, algorithm="batch", count_ops=True)


def test_resolve_batch_algorithm():
    assert resolve_batch_algorithm("auto") == "batch"
    assert resolve_batch_algorithm("batch") == "batch"
    for name in ("compiled", "reference"):
        assert resolve_batch_algorithm(name) == name
    with pytest.raises(ValueError, match="unknown classifier algorithm"):
        resolve_batch_algorithm("quantum")


def test_auto_falls_back_to_compiled_without_numpy(monkeypatch):
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    assert resolve_batch_algorithm("auto") == "compiled"
    with pytest.raises(RuntimeError, match="requires numpy"):
        resolve_batch_algorithm("batch")
    with pytest.raises(RuntimeError, match="requires numpy"):
        batch_outcomes([line_configuration([0, 1])])


# ----------------------------------------------------------------------
# wired callers: engine, service
# ----------------------------------------------------------------------
def test_census_records_match_engine_records():
    from repro.engine.pipeline import census_record

    cfgs = random_config_batch(40, base_seed=77)
    for measure_rounds in (False, True):
        batch = batch_census_records(cfgs, measure_rounds=measure_rounds)
        serial = [
            census_record(c, measure_rounds=measure_rounds) for c in cfgs
        ]
        assert batch == serial


def test_engine_batch_records_auto_equals_compiled(monkeypatch):
    from repro.engine.cache import ResultCache
    from repro.engine.pipeline import batch_records

    cfgs = random_config_batch(30, base_seed=55)
    vectorized = batch_records(cfgs, ResultCache(), algorithm="auto")
    serial = batch_records(cfgs, ResultCache(), algorithm="compiled")
    assert vectorized == serial
    # the numpy-less branch of "auto" must agree too
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    fallback = batch_records(cfgs, ResultCache(), algorithm="auto")
    assert fallback == serial


def test_service_auto_routes_through_batch_kernel():
    from repro.service.batcher import BatchClassifier

    cfgs = random_config_batch(20, base_seed=11)
    service = BatchClassifier(algorithm="auto")
    try:
        tickets = service.submit_many(cfgs)
        got = [t.result(timeout=30) for t in tickets]
    finally:
        service.close()
    serial = BatchClassifier(algorithm="compiled")
    try:
        expected = [
            t.result(timeout=30) for t in serial.submit_many(cfgs)
        ]
    finally:
        serial.close()
    assert got == expected


# ----------------------------------------------------------------------
# the packed representation itself
# ----------------------------------------------------------------------
def test_configuration_batch_packing():
    a = Configuration([("x", "y")], {"x": 2, "y": 3})  # normalizes to 0, 1
    b = line_configuration([0, 1, 0])
    batch = ConfigurationBatch.from_configurations([a, b])
    assert batch.num_instances == 2
    assert batch.num_nodes == 5
    assert batch.node_offsets.tolist() == [0, 2, 5]
    assert batch.instance_of_node.tolist() == [0, 0, 1, 1, 1]
    assert batch.tags.tolist() == [0, 1, 0, 1, 0]  # a was normalized
    assert batch.sigma.tolist() == [1, 1]
    assert batch.adj_offsets.tolist() == [0, 1, 2, 3, 5, 6]
    # CSR targets are *global* node indices: b's node 0 is global node 2
    assert batch.adj_targets.tolist() == [1, 0, 3, 2, 4, 3]
    assert batch.edge_source.tolist() == [0, 1, 2, 3, 3, 4]
    # the per-instance configs are the normalized originals
    assert batch.configs[0] == a.normalize()
    assert batch.configs[1] == b
