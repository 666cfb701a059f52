"""Equitable refinement of ordered partitions: the one loop behind canon.

A configuration's nodes are kept as an **ordered partition**: a list of
nodes by position, cut into *cells* of consecutive positions. A node's
*color* is the start position of its cell. Refinement splits cells until
the partition is *equitable* — any two nodes of one cell have, for every
cell ``D``, the same number of neighbours in ``D`` — which is exactly
what 1-WL color refinement computes.

The loop is splitter-driven (Hopcroft-style): a queue holds the cells
whose neighbour counts may still split others. Processing a splitter
counts every node's neighbours in it and splits each touched cell by
count, fragments in ascending count order at the cell's own positions.
A split cell that was already queued queues all its new fragments; one
that was not queues all but its first largest fragment, since counts
into the whole cell are already uniform. Every choice is made from
positions and counts only, never node identities, so colors are
**invariant rank ids**: isomorphic inputs refine to partitions that
correspond position for position.

One loop serves three callers:

* :func:`equitable_partition` — refine from the tags to the coarsest
  equitable partition;
* :mod:`repro.canon.invariants` — the certificate is that partition's
  quotient;
* :mod:`repro.canon.canonize` — the individualization search starts
  from the same partition, and after individualizing one node re-queues
  only that node's singleton cell, so a search node costs the work its
  split causes rather than a full re-refinement.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..core.compiled import IndexedConfiguration, compile_configuration
from ..core.configuration import Configuration

#: The compiled dense-index representation is shared with the classifier
#: core (:mod:`repro.core.compiled`): one compilation step serves the
#: classifier, the refinement below, and the canonizer. The canon
#: subsystem's historical names remain the public aliases here.
IndexedGraph = IndexedConfiguration

#: Alias of :func:`repro.core.compiled.compile_configuration` — kept as
#: the canon-side entry point name (normalizes, then re-indexes).
index_graph = compile_configuration


class OrderedPartition:
    """An ordered partition of the node indices ``0..n-1``.

    ``order`` lists node indices by position; a cell is a run
    ``order[s:end[s]]`` starting at position ``s``; ``cell[v]`` is the
    start of ``v``'s cell (its color). ``end`` is only meaningful at cell
    starts. Instances are mutable; :meth:`copy` before branching.
    """

    __slots__ = ("order", "cell", "end")

    def __init__(self, order: List[int], cell: List[int], end: List[int]) -> None:
        self.order = order
        self.cell = cell
        self.end = end

    @classmethod
    def by_tags(cls, graph: IndexedGraph) -> "OrderedPartition":
        """One cell per tag value, cells in ascending tag order."""
        n = graph.n
        tags = graph.tags
        order = sorted(range(n), key=tags.__getitem__)
        cell = [0] * n
        end = [0] * n
        s = 0
        for i in range(1, n + 1):
            if i == n or tags[order[i]] != tags[order[s]]:
                end[s] = i
                for v in order[s:i]:
                    cell[v] = s
                s = i
        return cls(order, cell, end)

    def copy(self) -> "OrderedPartition":
        """An independent copy (the search branches on copies)."""
        return OrderedPartition(list(self.order), list(self.cell), list(self.end))

    def starts(self) -> Iterator[int]:
        """Cell start positions, in order."""
        s, n, end = 0, len(self.order), self.end
        while s < n:
            yield s
            s = end[s]

    def target_cell(self) -> int:
        """Start of the first smallest non-singleton cell; ``-1`` when
        the partition is discrete."""
        best, size = -1, len(self.order) + 1
        for s in self.starts():
            k = self.end[s] - s
            if 1 < k < size:
                best, size = s, k
                if k == 2:
                    break
        return best

    def individualize(self, v: int) -> int:
        """Split ``v`` off the front of its cell; return its new
        singleton cell's start (the only splitter refinement needs)."""
        order, cell, end = self.order, self.cell, self.end
        s = cell[v]
        e = end[s]
        i = order.index(v, s, e)
        order[i] = order[s]
        order[s] = v
        for w in order[s + 1:e]:
            cell[w] = s + 1
        end[s] = s + 1
        end[s + 1] = e
        return s

    def refine(self, adj, queue: List[int]) -> None:
        """Split cells until the partition is equitable.

        ``queue`` lists the start positions of the cells to split with;
        the caller guarantees the partition is already equitable with
        respect to every other cell (at the root: queue every cell).
        """
        order, cell, end = self.order, self.cell, self.end
        queued = set(queue)
        head = 0
        while head < len(queue):
            splitter = queue[head]
            head += 1
            queued.discard(splitter)
            counts: Dict[int, int] = {}
            for u in order[splitter:end[splitter]]:
                for w in adj[u]:
                    counts[w] = counts.get(w, 0) + 1
            for s in sorted({cell[w] for w in counts}):
                e = end[s]
                if e - s == 1:
                    continue
                groups: Dict[int, List[int]] = {}
                for v in order[s:e]:
                    groups.setdefault(counts.get(v, 0), []).append(v)
                if len(groups) == 1:
                    continue
                fragments = []
                pos = s
                for k in sorted(groups):
                    members = groups[k]
                    order[pos:pos + len(members)] = members
                    for v in members:
                        cell[v] = pos
                    end[pos] = pos + len(members)
                    fragments.append(pos)
                    pos += len(members)
                if s in queued:
                    fresh = fragments[1:]
                else:
                    largest = max(fragments, key=lambda f: (end[f] - f, -f))
                    fresh = [f for f in fragments if f != largest]
                queue.extend(fresh)
                queued.update(fresh)

    def quotient(self, graph: IndexedGraph) -> Tuple:
        """Per cell, in order: ``(tag, size, ((cell, neighbours), ...))``.

        On an equitable partition the neighbour counts of any one member
        hold for the whole cell, so this is the quotient matrix — equal
        for two graphs iff their tag-seeded 1-WL refinements agree.
        """
        out = []
        for s in self.starts():
            v = self.order[s]
            counts: Dict[int, int] = {}
            for w in graph.adj[v]:
                c = self.cell[w]
                counts[c] = counts.get(c, 0) + 1
            out.append((graph.tags[v], self.end[s] - s, tuple(sorted(counts.items()))))
        return tuple(out)


def equitable(graph: IndexedGraph) -> OrderedPartition:
    """The coarsest equitable partition refining the tag cells."""
    part = OrderedPartition.by_tags(graph)
    part.refine(graph.adj, list(part.starts()))
    return part


def equitable_partition(cfg: Configuration) -> List[List[object]]:
    """The coarsest equitable partition refining the tags.

    Cells are returned as sorted lists of *original* node ids, in cell
    order — so two isomorphic configurations produce cell structures
    that correspond under any isomorphism. Nodes in one cell are exactly
    the nodes 1-WL cannot tell apart (equitability forces equal degrees,
    so the cells also refine ``(tag, degree)``); every tag-preserving
    automorphism orbit lies inside one cell (the converse fails for
    regular-ish graphs, which is why canonization still needs a search).
    """
    graph = index_graph(cfg)
    part = equitable(graph)
    return [
        sorted(graph.nodes[v] for v in part.order[s:part.end[s]])
        for s in part.starts()
    ]
