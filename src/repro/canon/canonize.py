"""Individualization–refinement canonical labeling.

This module computes a canonical form for a configuration the way
nauty and Traces do (McKay & Piperno, "Practical graph isomorphism
II", 2014):

1. **Refine** — the tag cells are refined to the coarsest equitable
   ordered partition (:mod:`repro.canon.refine`). Cell positions are
   invariant rank ids, so isomorphic inputs reach corresponding
   partitions.
2. **Leaf** — when the partition is discrete, position ``i`` holds one
   node, and relabeling every node by its position gives a candidate
   form ``(n, tag vector, edge set)``.
3. **Individualize** — otherwise the search picks the first smallest
   non-singleton cell, and for each node of it splits that node off as
   a singleton, refines from the singleton alone, and recurses. The
   tree of partitions this grows depends only on the isomorphism class
   of the input, so its set of leaf forms does too; the canonical form
   is the least leaf form.
4. **Automorphism pruning** — two leaves with equal forms differ by a
   tag-preserving automorphism, recorded as a generator. A child in the
   same orbit as an explored sibling, under the discovered generators
   that fix the individualized prefix pointwise, is skipped: its
   subtree is the mirror image of the sibling's. A leaf that ties the
   best leaf also maps the finished subtree holding the best leaf onto
   its own, so the search jumps back to where the two paths part. Every
   leaf whose form ties the minimum is thus either visited or covered
   by the recorded generators, and the generators generate the full
   tag-preserving automorphism group, which
   :mod:`repro.analysis.automorphisms` reuses.

The contract: two configurations get equal forms **iff** they are
tag-preserving isomorphic (after normalization). The form is one
particular relabeled copy of the configuration, so it carries no other
meaning. When refinement alone is discrete — almost every random
configuration — canonization is one refinement plus a relabeling. The
worst case is still exponential (canonical labeling is not known to be
polynomial); it takes inputs that are both highly regular and poor in
automorphisms, which none of this repository's workloads are.

A bounded memo keyed by configuration equality makes repeated
canonization of the same (normalized) configuration O(n + m) after the
first call — the service's warm-traffic path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.configuration import Configuration
from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry
from .refine import IndexedGraph, OrderedPartition, equitable, index_graph

#: Entries kept in the canonization memo (one per distinct normalized
#: configuration seen); eviction is LRU.
MEMO_SIZE = 8192


@dataclass(frozen=True)
class CanonicalLabeling:
    """The result of canonizing one configuration.

    ``form`` is the canonical ``(n, tag vector, edge set)`` tuple (what
    :func:`repro.analysis.isomorphism.canonical_form` returns);
    ``mapping`` sends original node ids to canonical slots ``0..n−1``;
    ``generators`` are tag-preserving automorphisms (original-id dicts)
    discovered by the search, generating the full automorphism group.
    Treat all three as read-only — instances are shared through the memo.
    """

    form: Tuple
    mapping: Dict[object, int]
    generators: Tuple[Dict[object, object], ...]

    @property
    def n(self) -> int:
        """Number of nodes of the canonized configuration."""
        return self.form[0]

    @property
    def is_rigid(self) -> bool:
        """True iff the search found no nontrivial automorphism (the
        generators provably generate the whole group, so an empty tuple
        means the configuration is rigid)."""
        return not self.generators


def _leaf_edges(graph: IndexedGraph, order: List[int]) -> Tuple[Tuple[int, int], ...]:
    """The sorted edge set after relabeling each node by its position."""
    pos = [0] * graph.n
    for i, v in enumerate(order):
        pos[v] = i
    adj = graph.adj
    return tuple(
        (i, j)
        for i, v in enumerate(order)
        for j in sorted(pos[w] for w in adj[v])
        if j > i
    )


def _search(graph: IndexedGraph) -> Tuple[Tuple, List[int], List[List[int]]]:
    """The individualization–refinement search.

    Returns ``(edges, order, generators)``: the least leaf's edge set,
    its node order (``order[i]`` is the index placed at slot ``i``), and
    index-level automorphism permutations.
    """
    n = graph.n
    adj = graph.adj
    best_edges: Optional[Tuple] = None
    best_order: List[int] = []
    best_prefix: List[int] = []
    generators: List[List[int]] = []
    prefix: List[int] = []

    def orbit_roots() -> List[int]:
        """Union-find roots under the generators fixing ``prefix``."""
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gen in generators:
            if all(gen[v] == v for v in prefix):
                for v in range(n):
                    ra, rb = find(v), find(gen[v])
                    if ra != rb:
                        parent[ra] = rb
        return [find(v) for v in range(n)]

    def visit(part: OrderedPartition) -> int:
        """Search below ``part``; return the depth the search resumes at."""
        nonlocal best_edges, best_order, best_prefix
        depth = len(prefix)
        target = part.target_cell()
        if target < 0:
            edges = _leaf_edges(graph, part.order)
            if best_edges is None or edges < best_edges:
                best_edges, best_order, best_prefix = edges, part.order, list(prefix)
                return depth
            if edges == best_edges:
                # equal forms: best_order[i] -> part.order[i] is an automorphism
                gamma = [0] * n
                for a, b in zip(best_order, part.order):
                    gamma[a] = b
                generators.append(gamma)
                # it maps the finished subtree holding the best leaf onto
                # this one, from where the two paths part: resume there
                split = 0
                while prefix[split] == best_prefix[split]:
                    split += 1
                return split
            return depth
        tried: List[int] = []
        roots: List[int] = []
        seen = -1  # recompute orbits only when generators grew
        for v in sorted(part.order[target:part.end[target]]):
            if tried and generators:
                if len(generators) != seen:
                    roots = orbit_roots()
                    seen = len(generators)
                if any(roots[v] == roots[u] for u in tried):
                    continue  # mirror image of an explored subtree
            tried.append(v)
            child = part.copy()
            child.refine(adj, [child.individualize(v)])
            prefix.append(v)
            resume = visit(child)
            prefix.pop()
            if resume < depth:
                return resume
        return depth

    visit(equitable(graph))
    assert best_edges is not None
    return best_edges, best_order, generators


def _assemble(graph: IndexedGraph, edges, order, gens) -> CanonicalLabeling:
    n = graph.n
    nodes = graph.nodes
    return CanonicalLabeling(
        form=(n, tuple(graph.tags[v] for v in order), edges),
        mapping={nodes[v]: i for i, v in enumerate(order)},
        generators=tuple({nodes[v]: nodes[g[v]] for v in range(n)} for g in gens),
    )


@lru_cache(maxsize=MEMO_SIZE)
def _canonize_normalized(cfg: Configuration) -> CanonicalLabeling:
    """Memoized canonization of an already-normalized configuration."""
    graph = index_graph(cfg)
    return _assemble(graph, *_search(graph))


def canonize(cfg: Configuration, *, use_memo: bool = True) -> CanonicalLabeling:
    """Canonize ``cfg``: canonical form, mapping, automorphism generators.

    Forms are equal for two configurations iff they are tag-preserving
    isomorphic. With ``use_memo`` (the default) results are shared
    across calls for equal normalized configurations — pass
    ``use_memo=False`` to time the cold search (the E21 benchmark does).
    """
    normalized = cfg.normalize()
    if use_memo:
        if _OBS.enabled:  # per-call: guarded, one attribute check when off
            _registry.inc("canon.calls")
            hits_before = _canonize_normalized.cache_info().hits
            labeling = _canonize_normalized(normalized)
            if _canonize_normalized.cache_info().hits > hits_before:
                _registry.inc("canon.memo_hits")
            return labeling
        return _canonize_normalized(normalized)
    if _OBS.enabled:
        _registry.inc("canon.calls")
        _registry.inc("canon.cold_searches")
    graph = index_graph(normalized)
    return _assemble(graph, *_search(graph))


def canonical_form(cfg: Configuration) -> Tuple:
    """The canonical ``(n, tag vector, edge set)`` tuple of ``cfg``.

    Equal for two configurations iff they are tag-preserving isomorphic.
    """
    return canonize(cfg).form


def automorphism_generators(cfg: Configuration) -> Tuple[Dict[object, object], ...]:
    """Generators of the tag-preserving automorphism group of ``cfg``,
    as node → node dicts (a byproduct of canonization, memoized with it).

    The empty tuple means the configuration is rigid. The generating
    set is typically far smaller than the group itself — use
    :func:`repro.analysis.automorphisms.automorphism_orbits` for orbit
    structure without enumerating the group.
    """
    return canonize(cfg).generators


def clear_memo() -> None:
    """Drop every memoized canonization (benchmarks time cold runs)."""
    _canonize_normalized.cache_clear()


def memo_info():
    """The memo's ``functools`` cache statistics (hits, misses, size)."""
    return _canonize_normalized.cache_info()
