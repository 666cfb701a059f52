"""Tests for tag-preserving isomorphism (repro.analysis.isomorphism)."""

import pytest

from repro.analysis.isomorphism import (
    are_isomorphic,
    canonical_form,
    dedupe,
    orbit_of,
)
from repro.core.classifier import classify, is_feasible
from repro.core.configuration import Configuration
from repro.core.election import elect_leader
from repro.graphs.enumeration import enumerate_configurations
from repro.graphs.families import h_m
from repro.graphs.generators import (
    cycle_configuration,
    path_configuration,
    star_configuration,
)


def relabeled(cfg, shift=1):
    """The same configuration with node ids cyclically shifted."""
    nodes = list(cfg.nodes)
    mapping = {v: nodes[(i + shift) % len(nodes)] for i, v in enumerate(nodes)}
    return cfg.relabel(mapping)


class TestIsomorphismTest:
    def test_identity(self):
        cfg = h_m(2)
        assert are_isomorphic(cfg, cfg)

    def test_relabeling_is_isomorphic(self):
        for cfg in (h_m(1), path_configuration([0, 1, 2]), cycle_configuration([0, 1, 0, 1])):
            assert are_isomorphic(cfg, relabeled(cfg))

    def test_different_tags_not_isomorphic(self):
        a = path_configuration([0, 1, 0])
        b = path_configuration([1, 0, 0])
        assert not are_isomorphic(a, b)

    def test_different_shapes_not_isomorphic(self):
        a = path_configuration([0, 0, 0, 0])
        b = star_configuration([0, 0, 0, 0])
        assert not are_isomorphic(a, b)

    def test_mirror_symmetric_path(self):
        a = path_configuration([0, 1, 2])
        b = path_configuration([2, 1, 0])  # reversed: isomorphic via flip
        assert are_isomorphic(a, b)

    def test_subtle_negative(self):
        # same degree sequence and tag multiset, different attachment
        a = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 1})
        b = Configuration([(0, 1), (1, 2), (2, 3)], {0: 1, 1: 0, 2: 0, 3: 1})
        # a: tags along path 0,1,0,1 ; b: 1,0,0,1 (palindrome) — different
        assert not are_isomorphic(a, b)


class TestCanonicalForm:
    def test_equal_iff_isomorphic_exhaustive(self):
        """Canonical-form equality against networkx's VF2 matcher — an
        independent isomorphism test (``are_isomorphic`` itself compares
        canonical forms, so it cannot serve as the reference)."""
        import networkx as nx
        from networkx.algorithms.isomorphism import categorical_node_match

        configs = list(enumerate_configurations(4, 1))
        configs += [relabeled(c, 2) for c in configs]
        keys = [canonical_form(c) for c in configs]
        match = categorical_node_match("tag", None)
        for i in range(0, len(configs), 7):  # sampled quadratic check
            for j in range(0, len(configs), 11):
                vf2 = nx.is_isomorphic(
                    configs[i].to_networkx(), configs[j].to_networkx(), node_match=match
                )
                assert (keys[i] == keys[j]) == vf2

    def test_invariant_under_relabeling(self):
        for cfg in (h_m(1), cycle_configuration([0, 1, 0, 1])):
            assert canonical_form(cfg) == canonical_form(relabeled(cfg))

    def test_invariant_under_tag_shift(self):
        cfg = path_configuration([1, 2, 1])
        assert canonical_form(cfg) == canonical_form(cfg.normalize())


class TestDedupe:
    def test_dedupes_enumeration(self):
        configs = list(enumerate_configurations(4, 1))
        reps = dedupe(configs)
        assert 0 < len(reps) < len(configs)
        # representatives are pairwise non-isomorphic
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not are_isomorphic(reps[i], reps[j])

    def test_feasibility_constant_on_classes(self):
        configs = list(enumerate_configurations(3, 2))
        keys = {}
        for cfg in configs:
            keys.setdefault(canonical_form(cfg), []).append(cfg)
        for group in keys.values():
            verdicts = {is_feasible(c) for c in group}
            assert len(verdicts) == 1

    def test_election_rounds_invariant(self):
        cfg = h_m(2)
        other = relabeled(cfg)
        assert elect_leader(cfg).rounds == elect_leader(other).rounds


class TestOrbits:
    def test_orbit_of_symmetric_endpoint(self):
        cfg = path_configuration([0, 1, 0])
        assert orbit_of(cfg, 0) == [0, 2]
        assert orbit_of(cfg, 1) == [1]

    def test_leader_is_fixed_by_automorphisms(self):
        """The classifier's leader must have a singleton orbit — a node
        moved by an automorphism cannot have a unique history."""
        for cfg in enumerate_configurations(4, 1):
            trace = classify(cfg)
            if trace.feasible:
                assert orbit_of(trace.config, trace.leader) == [trace.leader]
