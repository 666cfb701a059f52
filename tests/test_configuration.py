"""Unit tests for Configuration."""

import pytest

from repro.core.configuration import (
    Configuration,
    ConfigurationError,
    line_configuration,
)


class TestConstruction:
    def test_basic(self):
        cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2})
        assert cfg.n == 3
        assert cfg.num_edges == 2
        assert cfg.nodes == (0, 1, 2)
        assert cfg.neighbors(1) == (0, 2)
        assert cfg.tag(2) == 2

    def test_single_node(self):
        cfg = Configuration([], {7: 0})
        assert cfg.n == 1
        assert cfg.span == 0
        assert cfg.max_degree == 0

    def test_duplicate_edges_collapse(self):
        cfg = Configuration([(0, 1), (1, 0), (0, 1)], {0: 0, 1: 0})
        assert cfg.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([(0, 0)], {0: 0})

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([(0, 1)], {0: 0})

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([(0, 1)], {0: 0, 1: 0, 2: 0})

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([], {})

    def test_negative_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([(0, 1)], {0: 0, 1: -1})

    def test_non_int_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([(0, 1)], {0: 0, 1: 1.5})
        with pytest.raises(ConfigurationError):
            Configuration([(0, 1)], {0: 0, 1: True})

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([(0, 1, 2)], {0: 0, 1: 0, 2: 0})


class TestDerived:
    def test_span(self):
        cfg = Configuration([(0, 1), (1, 2)], {0: 3, 1: 7, 2: 5})
        assert cfg.span == 4
        assert cfg.min_tag == 3
        assert cfg.max_tag == 7
        assert not cfg.is_normalized

    def test_max_degree(self):
        star = Configuration([(0, 1), (0, 2), (0, 3)], {i: 0 for i in range(4)})
        assert star.max_degree == 3
        assert star.degree(0) == 3
        assert star.degree(1) == 1

    def test_edges_sorted_unique(self):
        cfg = Configuration([(2, 1), (0, 1)], {0: 0, 1: 0, 2: 0})
        assert cfg.edges == [(0, 1), (1, 2)]


class TestTransformations:
    def test_normalize(self):
        cfg = Configuration([(0, 1)], {0: 5, 1: 7})
        norm = cfg.normalize()
        assert norm.tags == {0: 0, 1: 2}
        assert norm.span == cfg.span

    def test_normalize_identity_when_normalized(self):
        cfg = Configuration([(0, 1)], {0: 0, 1: 2})
        assert cfg.normalize() is cfg

    def test_shift_tags(self):
        cfg = Configuration([(0, 1)], {0: 0, 1: 1})
        shifted = cfg.shift_tags(3)
        assert shifted.tags == {0: 3, 1: 4}
        with pytest.raises(ConfigurationError):
            cfg.shift_tags(-1)

    def test_with_tags(self):
        cfg = Configuration([(0, 1)], {0: 0, 1: 1})
        new = cfg.with_tags({0: 4, 1: 4})
        assert new.tags == {0: 4, 1: 4}
        assert new.edges == cfg.edges
        with pytest.raises(ConfigurationError):
            cfg.with_tags({0: 0})

    def test_relabel(self):
        cfg = Configuration([(0, 1)], {0: 0, 1: 1})
        rel = cfg.relabel({0: "x", 1: "y"})
        assert rel.tag("x") == 0
        assert rel.neighbors("x") == ("y",)
        with pytest.raises(ConfigurationError):
            cfg.relabel({0: "x", 1: "x"})
        with pytest.raises(ConfigurationError):
            cfg.relabel({0: "x"})

    def test_canonical_relabel(self):
        cfg = Configuration([(10, 20)], {10: 0, 20: 1})
        canon = cfg.canonical_relabel()
        assert canon.nodes == (0, 1)
        assert canon.tag(1) == 1


class TestInterop:
    def test_networkx_roundtrip(self):
        cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 2, 2: 1})
        g = cfg.to_networkx()
        back = Configuration.from_networkx(g)
        assert back == cfg

    def test_from_networkx_explicit_tags(self):
        import networkx as nx

        g = nx.path_graph(3)
        cfg = Configuration.from_networkx(g, {0: 0, 1: 1, 2: 0})
        assert cfg.tag(1) == 1

    def test_from_networkx_missing_tags(self):
        import networkx as nx

        with pytest.raises(ConfigurationError):
            Configuration.from_networkx(nx.path_graph(2))

    def test_configuration_pickles_cleanly(self):
        import pickle

        from repro.core.classifier import is_feasible
        from repro.graphs.enumeration import enumerate_configurations

        cfg = list(enumerate_configurations(3, 1))[-1]
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert is_feasible(clone) == is_feasible(cfg)


class TestEquality:
    def test_equal_configs(self):
        a = Configuration([(0, 1)], {0: 0, 1: 1})
        b = Configuration([(1, 0)], {1: 1, 0: 0})
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_tags(self):
        a = Configuration([(0, 1)], {0: 0, 1: 1})
        b = Configuration([(0, 1)], {0: 1, 1: 0})
        assert a != b

    def test_unequal_edges(self):
        a = Configuration([(0, 1), (1, 2)], {0: 0, 1: 0, 2: 0})
        b = Configuration([(0, 1), (1, 2), (0, 2)], {0: 0, 1: 0, 2: 0})
        assert a != b

    def test_not_equal_to_other_types(self):
        assert Configuration([(0, 1)], {0: 0, 1: 0}) != "config"


class TestLineHelper:
    def test_line(self):
        cfg = line_configuration([0, 1, 2])
        assert cfg.edges == [(0, 1), (1, 2)]
        assert cfg.tag(2) == 2

    def test_line_single(self):
        assert line_configuration([5]).n == 1

    def test_line_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            line_configuration([])

    def test_describe_mentions_nodes(self):
        text = line_configuration([0, 1]).describe()
        assert "node 0" in text and "σ=1" in text
