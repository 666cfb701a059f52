"""The hash-based classifier must be bit-identical to the faithful one."""

import pytest

from conftest import random_config_batch

from repro.core.classifier import classify
from repro.core.configuration import Configuration, line_configuration
from repro.core.fast_classifier import fast_classify
from repro.core.trace import traces_equal
from repro.graphs.families import g_m, h_m, s_m


class TestEquivalenceOnFamilies:
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_h_m(self, m):
        assert traces_equal(classify(h_m(m)), fast_classify(h_m(m)))

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_s_m(self, m):
        assert traces_equal(classify(s_m(m)), fast_classify(s_m(m)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_g_m(self, m):
        assert traces_equal(classify(g_m(m)), fast_classify(g_m(m)))

    def test_single_node(self):
        cfg = Configuration([], {0: 0})
        assert traces_equal(classify(cfg), fast_classify(cfg))


class TestEquivalenceOnRandomBatch:
    def test_batch_of_random_configs(self):
        for cfg in random_config_batch(60, base_seed=777):
            a, b = classify(cfg), fast_classify(cfg)
            assert traces_equal(a, b), f"divergence on {cfg!r}"

    def test_exact_class_numbering_preserved(self):
        # not just the same partition: the same class numbers & reps
        for cfg in random_config_batch(20, base_seed=31):
            a, b = classify(cfg), fast_classify(cfg)
            for j in range(1, a.num_iterations + 2):
                assert a.classes_at(j) == b.classes_at(j)
                assert a.reps_at(j) == b.reps_at(j)


class TestTracesEqualHelper:
    def test_detects_decision_difference(self):
        a = classify(h_m(1))
        b = classify(h_m(1))
        b.decision = "No"
        assert not traces_equal(a, b)

    def test_detects_iteration_difference(self):
        a = classify(g_m(2))
        b = classify(g_m(2))
        b.iterations[0].num_classes_after += 1
        assert not traces_equal(a, b)

    def test_detects_truncation(self):
        a = classify(g_m(2))
        b = classify(g_m(2))
        b.iterations.pop()
        assert not traces_equal(a, b)

    def test_equal_to_itself(self):
        a = classify(line_configuration([0, 1, 2]))
        assert traces_equal(a, a)
