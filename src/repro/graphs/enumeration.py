"""Exhaustive enumeration of small configurations.

Experiment E1 cross-validates ``Classifier`` against independent ground
truths on *every* small configuration: all connected graphs on up to
``n`` nodes (one representative per isomorphism class, via the networkx
graph atlas) crossed with all normalized tag vectors up to a given span.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, List, Tuple

from ..core.configuration import Configuration
from .tags import all_tag_vectors

Edge = Tuple[int, int]


def connected_graphs(n: int) -> List[List[Edge]]:
    """Edge lists of all connected graphs on exactly ``n`` labeled nodes,
    one per isomorphism class (n <= 7; atlas-backed for speed).

    Uses ``networkx.graph_atlas_g`` when available and falls back to
    brute-force enumeration with isomorphism filtering. The shapes are
    computed once per ``n`` and process; each call returns fresh lists.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 7:
        raise ValueError("exhaustive enumeration supported for n <= 7")
    return [list(edges) for edges in _connected_shapes(n)]


@lru_cache(maxsize=None)
def _connected_shapes(n: int) -> Tuple[Tuple[Edge, ...], ...]:
    # reading the atlas (1,253 graphs) costs ~0.1 s, and an enumerated
    # census regenerates its shapes once per shard
    import networkx as nx

    if n == 1:
        return ((),)
    try:
        from networkx.generators.atlas import graph_atlas_g
    except ImportError:  # pragma: no cover - atlas ships with networkx
        return tuple(map(tuple, _brute_force_connected(n)))

    # atlas graphs already use the labels 0..n-1
    return tuple(
        tuple(sorted(tuple(sorted(e)) for e in g.edges()))
        for g in graph_atlas_g()
        if g.number_of_nodes() == n and nx.is_connected(g)
    )


def _brute_force_connected(n: int) -> List[List[Edge]]:
    """All connected graphs on n labeled nodes, deduplicated by
    isomorphism (exponential; fine for n <= 6)."""
    import networkx as nx

    if n == 1:
        return [[]]
    all_pairs = list(combinations(range(n), 2))
    seen: List = []
    out: List[List[Edge]] = []
    for mask in range(1 << len(all_pairs)):
        edges = [all_pairs[i] for i in range(len(all_pairs)) if mask >> i & 1]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        if not nx.is_connected(g):
            continue
        if any(nx.is_isomorphic(g, h) for h in seen):
            continue
        seen.append(g)
        out.append(sorted(edges))
    return out


def all_labeled_connected_graphs(n: int) -> List[List[Edge]]:
    """All connected graphs on n labeled nodes **without** isomorphism
    deduplication (needed when tags break symmetry differently per
    labeling). Exponential; intended for n <= 5."""
    import networkx as nx

    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [[]]
    if n > 5:
        raise ValueError("labeled enumeration supported for n <= 5")
    all_pairs = list(combinations(range(n), 2))
    out: List[List[Edge]] = []
    for mask in range(1 << len(all_pairs)):
        edges = [all_pairs[i] for i in range(len(all_pairs)) if mask >> i & 1]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        if nx.is_connected(g):
            out.append(edges)
    return out


def enumerate_configurations(
    n: int, max_tag: int, *, labeled: bool = False
) -> Iterator[Configuration]:
    """Yield every configuration with ``n`` nodes and normalized tags in
    ``0..max_tag``.

    With ``labeled=False`` the graph shapes are isomorphism-class
    representatives (tags still range over all vectors, which covers most
    of the interesting asymmetry); with ``labeled=True`` every labeled
    connected graph is used (exact exhaustiveness, much larger).
    """
    shapes = (
        all_labeled_connected_graphs(n) if labeled else connected_graphs(n)
    )
    for edges in shapes:
        for vec in all_tag_vectors(n, max_tag):
            yield Configuration(edges, {i: vec[i] for i in range(n)})


def count_configurations(n: int, max_tag: int, *, labeled: bool = False) -> int:
    """Number of configurations :func:`enumerate_configurations` yields."""
    return sum(1 for _ in enumerate_configurations(n, max_tag, labeled=labeled))


def enumerate_nonisomorphic_configurations(n: int, max_tag: int):
    """Like :func:`enumerate_configurations`, but yields one representative
    per tag-preserving isomorphism class (using
    :func:`repro.analysis.isomorphism.canonical_form` for dedup) — the
    exact population for census statistics that should not overcount
    relabelings."""
    from ..analysis.isomorphism import canonical_form

    seen = set()
    for cfg in enumerate_configurations(n, max_tag):
        key = canonical_form(cfg)
        if key not in seen:
            seen.add(key)
            yield cfg
