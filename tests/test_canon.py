"""Tests for the refinement-based canonical labeling (repro.canon).

The contract under test, in order of load-bearing-ness:

1. **Oracle agreement** — ``canonize``'s forms partition exhaustive
   small-n enumerations (plus relabeled copies) into exactly the
   brute-force oracle's isomorphism classes (the E21 benchmark extends
   this sweep to n <= 7).
2. **Invariance** — the form (and the certificate) is unchanged by
   random node relabelings and uniform tag shifts (property-tested).
3. **Completeness of the automorphism story** — discovered generators
   are genuine tag-preserving automorphisms and generate the full
   group; orbits/fixed nodes/rigidity derived from them match the
   VF2-enumeration ground truth.
4. **Dedupe equivalence** — collapsing by canonical keys equals
   pairwise ``are_isomorphic`` dedupe.
"""

import pytest

from repro.analysis.automorphisms import (
    automorphism_generators,
    automorphism_orbits,
    fixed_nodes,
    is_rigid,
    tag_preserving_automorphisms,
)
from repro.analysis.isomorphism import (
    are_isomorphic,
    canonical_form,
    dedupe,
    find_isomorphism,
)
from repro.canon import (
    canonize,
    certificate,
    certificate_key,
    equitable_partition,
    may_be_isomorphic,
)
from repro.core.configuration import Configuration, line_configuration
from repro.graphs.enumeration import enumerate_configurations
from repro.graphs.families import g_m, h_m, s_m
from repro.graphs.generators import cycle_configuration, star_configuration
from repro.testing import (
    SMALL_SWEEP_GRID,
    assert_oracle_classes,
    bruteforce_canonical_form,
    random_relabel,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.testing import configurations

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an install extra
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# 1. oracle agreement
# ----------------------------------------------------------------------
class TestOracleAgreement:
    @pytest.mark.parametrize("n,max_tag", SMALL_SWEEP_GRID)
    def test_exhaustive_agreement(self, n, max_tag):
        """Equal forms iff brute-force-equal forms on every enumerated
        configuration (shape representatives x all tag vectors, many of
        them isomorphic) — the shared
        :data:`repro.testing.SMALL_SWEEP_GRID`."""
        assert_oracle_classes(enumerate_configurations(n, max_tag), canonical_form)

    def test_agreement_on_paper_families(self):
        families = (
            g_m(2), h_m(3), s_m(2), line_configuration([0, 2, 1, 0]),
            line_configuration([0, 1, 2, 0]),
        )
        assert_oracle_classes(families, canonical_form)

    def test_form_shape(self):
        n, tagvec, edges = canonical_form(line_configuration([1, 2, 1]))
        assert n == 3
        assert tagvec == (0, 0, 1)  # normalized tags, ascending slots
        assert all(0 <= u < v < n for u, v in edges)
        assert list(edges) == sorted(edges)


# ----------------------------------------------------------------------
# 2. invariance
# ----------------------------------------------------------------------
class TestInvariance:
    def test_invariant_under_random_relabelings(self):
        for i, cfg in enumerate(
            [h_m(2), g_m(2), cycle_configuration([0, 1, 0, 1]), star_configuration([0, 0, 1, 0])]
        ):
            reference = canonical_form(cfg)
            cert = certificate(cfg)
            for seed in range(5):
                iso = random_relabel(cfg, 31 * i + seed)
                assert canonical_form(iso) == reference
                assert certificate(iso) == cert

    def test_invariant_under_tag_shift(self):
        cfg = line_configuration([1, 3, 2, 1])
        shifted = cfg.shift_tags(4)
        assert canonical_form(cfg) == canonical_form(shifted)
        assert certificate(cfg) == certificate(shifted)
        assert certificate_key(cfg) == certificate_key(shifted)

    if HAVE_HYPOTHESIS:

        @settings(max_examples=60, deadline=None)
        @given(configurations(max_n=8, max_span=3), st.integers(0, 2**16), st.integers(0, 5))
        def test_property_relabel_and_shift_invariance(self, cfg, seed, delta):
            """canonical_form is constant on the isomorphism-and-shift
            class of any random configuration."""
            iso = random_relabel(cfg, seed).shift_tags(delta)
            assert canonical_form(iso) == canonical_form(cfg)
            assert are_isomorphic(cfg, random_relabel(cfg, seed))

        @settings(max_examples=40, deadline=None)
        @given(configurations(max_n=7, max_span=2), st.randoms(use_true_random=False))
        def test_property_agreement_with_bruteforce(self, cfg, rng):
            """A random configuration and a copy with its tags shuffled
            over the nodes (isomorphic or not, depending on the draw)
            fall into the brute-force oracle's classes."""
            tags = [cfg.tag(v) for v in cfg.nodes]
            rng.shuffle(tags)
            shuffled = Configuration(cfg.edges, dict(zip(cfg.nodes, tags)))
            assert_oracle_classes([cfg, shuffled], canonical_form)


# ----------------------------------------------------------------------
# 3. automorphisms from the search
# ----------------------------------------------------------------------
def close_group(cfg, generators):
    """Materialize the group generated by ``generators`` (small n only)."""
    nodes = tuple(cfg.nodes)
    ident = {v: v for v in nodes}
    seen = {tuple(nodes)}
    frontier = [ident]
    while frontier:
        phi = frontier.pop()
        for g in generators:
            comp = {v: g[phi[v]] for v in nodes}
            key = tuple(comp[v] for v in nodes)
            if key not in seen:
                seen.add(key)
                frontier.append(comp)
    return seen


class TestAutomorphisms:
    def test_generators_are_automorphisms(self):
        for cfg in (g_m(2), s_m(2), cycle_configuration([0, 0, 0, 0])):
            for g in automorphism_generators(cfg):
                for v in cfg.nodes:
                    assert cfg.tag(g[v]) == cfg.tag(v)
                for u, v in cfg.edges:
                    assert g[v] in cfg.neighbors(g[u])

    def test_generators_generate_the_full_group(self):
        """Group order from the discovered generators equals the VF2
        enumeration count — the completeness the orbit consumers rely
        on — across an exhaustive small sweep."""
        for cfg in enumerate_configurations(4, 1):
            vf2 = sum(1 for _ in tag_preserving_automorphisms(cfg))
            gens = automorphism_generators(cfg)
            assert len(close_group(cfg, gens)) == vf2

    def test_orbits_match_vf2_ground_truth(self):
        for cfg in enumerate_configurations(4, 1):
            parent = {v: v for v in cfg.nodes}

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for phi in tag_preserving_automorphisms(cfg):
                for u, w in phi.items():
                    ru, rw = find(u), find(w)
                    if ru != rw:
                        parent[ru] = rw
            expected = {}
            for v in cfg.nodes:
                expected.setdefault(find(v), []).append(v)
            assert automorphism_orbits(cfg) == sorted(
                sorted(o) for o in expected.values()
            )

    def test_fixed_nodes_and_rigidity(self):
        assert fixed_nodes(s_m(2)) == []
        assert fixed_nodes(h_m(2)) == [0, 1, 2, 3]
        assert is_rigid(h_m(2))
        assert not is_rigid(s_m(2))
        assert fixed_nodes(g_m(2)) == [4]  # only the centre b_{m+1}

    def test_orbits_refine_equitable_partition(self):
        """Every automorphism orbit sits inside one 1-WL cell (1-WL
        colors are automorphism-invariant)."""
        for cfg in (g_m(2), s_m(3), cycle_configuration([0, 1, 0, 1])):
            cells = [set(c) for c in equitable_partition(cfg)]
            for orbit in automorphism_orbits(cfg):
                assert any(set(orbit) <= cell for cell in cells)


# ----------------------------------------------------------------------
# 4. certificates, prefilter, dedupe
# ----------------------------------------------------------------------
class TestCertificateAndDedupe:
    def test_certificate_separates_wl_distinguishable(self):
        a = line_configuration([0, 1, 0, 2])
        b = line_configuration([2, 1, 0, 0])  # same profile multiset
        assert not may_be_isomorphic(a, b)
        assert certificate_key(a) != certificate_key(b)

    def test_certificate_refines_one_round_signature(self):
        """The 1-WL certificate is a strict refinement of the legacy
        one-round ``_signature``: equal certificates imply equal
        signatures on an exhaustive sweep, and the converse fails —
        two uniform-tag tadpole graphs with identical degree sequences
        (hence identical one-round signatures) are separated only by
        iterated refinement."""
        from repro.analysis.isomorphism import _signature

        configs = list(enumerate_configurations(4, 1))
        for i, a in enumerate(configs):
            for b in configs[i + 1:]:
                if certificate(a) == certificate(b):
                    assert _signature(a) == _signature(b)
        tags = {i: 0 for i in range(6)}
        triangle_tail = Configuration(
            [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5)], tags
        )
        square_tail = Configuration(
            [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)], tags
        )
        assert _signature(triangle_tail) == _signature(square_tail)
        assert certificate(triangle_tail) != certificate(square_tail)

    def test_prefilter_never_rejects_isomorphs(self):
        for cfg in enumerate_configurations(4, 1):
            assert may_be_isomorphic(cfg, random_relabel(cfg, 11))

    def test_are_isomorphic_matches_canonical_equality_exhaustively(self):
        configs = list(enumerate_configurations(4, 1))
        keys = [canonical_form(c) for c in configs]
        for i in range(0, len(configs), 5):
            for j in range(0, len(configs), 9):
                assert are_isomorphic(configs[i], configs[j]) == (
                    keys[i] == keys[j]
                )

    def test_find_isomorphism_returns_witness(self):
        cfg = g_m(2)
        iso = random_relabel(cfg, 5)
        phi = find_isomorphism(cfg, iso)
        assert phi is not None
        for v in cfg.nodes:
            assert iso.tag(phi[v]) == cfg.tag(v)
        for u, v in cfg.edges:
            assert phi[v] in iso.neighbors(phi[u])
        assert find_isomorphism(cfg, s_m(2)) is None

    def test_dedupe_matches_pairwise_isomorphism_dedupe(self):
        configs = [
            random_relabel(cfg, seed)
            for cfg in enumerate_configurations(4, 1)
            for seed in (0, 1)
        ]
        by_keys = dedupe(configs)
        pairwise = []
        for cfg in configs:
            if not any(are_isomorphic(cfg, rep) for rep in pairwise):
                pairwise.append(cfg)
        assert len(by_keys) == len(pairwise)
        assert [canonical_form(c) for c in by_keys] == [
            canonical_form(c) for c in pairwise
        ]

    def test_dedupe_strategies_agree(self):
        """Dedupe by canonical forms keeps exactly the representatives a
        dedupe by brute-force forms keeps."""
        configs = list(enumerate_configurations(3, 2))
        seen, oracle = set(), []
        for cfg in configs:
            key = bruteforce_canonical_form(cfg)
            if key not in seen:
                seen.add(key)
                oracle.append(cfg)
        assert dedupe(configs) == oracle


# ----------------------------------------------------------------------
# the ceiling is gone
# ----------------------------------------------------------------------
class TestBeyondTheOldCeiling:
    def test_large_n_isomorphs_collapse(self):
        """n = 14 — untouchable for the brute force on uniform-ish tags
        — canonizes, collapses relabelings, and finds the symmetry."""
        cfg = g_m(3).shift_tags(1)  # n = 13, un-normalized on purpose
        iso = random_relabel(cfg, 9)
        assert canonical_form(cfg) == canonical_form(iso)
        lab = canonize(cfg)
        assert lab.n == 13
        assert not lab.is_rigid  # the mirror symmetry survives at scale

    def test_memo_is_transparent(self):
        cfg = line_configuration([0, 1, 2, 0, 1])
        assert canonize(cfg).form == canonize(cfg, use_memo=False).form
