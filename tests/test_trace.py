"""``repro.core.trace.traces_equal``: the bit-for-bit trace comparison
every classifier differential test relies on."""

from repro.core.classifier import classify
from repro.core.configuration import line_configuration
from repro.core.trace import traces_equal
from repro.graphs.families import g_m, h_m


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
