"""Graph-shape generators for benchmark workloads.

Each generator returns the *edge list* and node set 0..n−1; combine with a
tag strategy from :mod:`repro.graphs.tags` (or pass tags directly) to get a
:class:`~repro.core.configuration.Configuration`. All random generation is
seeded — experiments must be reproducible run to run.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.configuration import Configuration
from .tags import uniform_random

Edge = Tuple[int, int]


def path_edges(n: int) -> List[Edge]:
    """Path ``0 - 1 - ... - n-1``."""
    _check_n(n)
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> List[Edge]:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return [(i, (i + 1) % n) for i in range(n)]


def star_edges(n: int) -> List[Edge]:
    """Star with centre 0 and ``n-1`` leaves."""
    _check_n(n)
    return [(0, i) for i in range(1, n)]


def complete_edges(n: int) -> List[Edge]:
    """Complete graph ``K_n`` (the single-hop radio network)."""
    _check_n(n)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def grid_edges(rows: int, cols: int) -> List[Edge]:
    """``rows × cols`` grid; node ``(r, c)`` has id ``r*cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def binary_tree_edges(n: int) -> List[Edge]:
    """Complete-ish binary tree with heap indexing (node 0 the root)."""
    _check_n(n)
    return [((i - 1) // 2, i) for i in range(1, n)]


def caterpillar_edges(spine: int, legs_per_node: int) -> List[Edge]:
    """A spine path with ``legs_per_node`` pendant leaves per spine node."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("need spine >= 1 and legs_per_node >= 0")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, nxt))
            nxt += 1
    return edges


def random_tree_edges(n: int, seed: int) -> List[Edge]:
    """Uniform random labeled tree via a random Prüfer sequence."""
    _check_n(n)
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges: List[Edge] = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def random_connected_gnp_edges(n: int, p: float, seed: int) -> List[Edge]:
    """G(n, p) conditioned on connectivity: a random spanning tree plus
    each remaining pair independently with probability ``p``.

    (Exact rejection sampling of connected G(n,p) is exponentially slow at
    small ``p``; the tree-plus-noise construction is the standard
    benchmark-workload substitute and keeps edge density ~``p``.)
    """
    adj = _gnp_adjacency(n, p, seed)
    return [(i, j) for i in range(n) for j in sorted(adj[i]) if i < j]


def _gnp_adjacency(n: int, p: float, seed: int) -> List[Set[int]]:
    """The adjacency sets of :func:`random_connected_gnp_edges`' graph.

    One ``Random(seed)`` draws the Prüfer tree's seed, then one coin per
    pair ``i < j`` in row-major order that the tree did not already join.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in random_tree_edges(n, rng.randrange(2**31)):
        adj[u].add(v)
        adj[v].add(u)
    coin = rng.random
    for i in range(n):
        row = adj[i]
        for j in range(i + 1, n):
            if j not in row and coin() < p:
                row.add(j)
                adj[j].add(i)
    return adj


def hypercube_edges(dim: int) -> List[Edge]:
    """The ``dim``-dimensional hypercube ``Q_dim`` (n = 2^dim nodes)."""
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    n = 1 << dim
    return [
        (v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)
    ]


def torus_edges(rows: int, cols: int) -> List[Edge]:
    """``rows × cols`` torus (grid with wraparound); needs both dims ≥ 3
    to stay simple (no parallel edges)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows >= 3 and cols >= 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.add(_norm((v, r * cols + (c + 1) % cols)))
            edges.add(_norm((v, ((r + 1) % rows) * cols + c)))
    return sorted(edges)


def complete_bipartite_edges(a: int, b: int) -> List[Edge]:
    """``K_{a,b}``: left part ``0..a-1``, right part ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be non-empty")
    return [(i, a + j) for i in range(a) for j in range(b)]


def wheel_edges(n: int) -> List[Edge]:
    """Wheel: hub 0 joined to an ``(n-1)``-cycle; needs n ≥ 4."""
    if n < 4:
        raise ValueError("a wheel needs at least 4 nodes")
    rim = list(range(1, n))
    edges = [(0, v) for v in rim]
    edges += [
        _norm((rim[i], rim[(i + 1) % len(rim)])) for i in range(len(rim))
    ]
    return sorted(set(edges))


def circulant_edges(n: int, offsets: Sequence[int]) -> List[Edge]:
    """Circulant graph ``C_n(offsets)``: ``i ~ i ± d`` for each offset d."""
    _check_n(n)
    edges = set()
    for d in offsets:
        d %= n
        if d == 0:
            raise ValueError("offset 0 would create self-loops")
        for i in range(n):
            edges.add(_norm((i, (i + d) % n)))
    return sorted(edges)


def barbell_edges(k: int) -> List[Edge]:
    """Two ``K_k`` cliques joined by one bridge edge (n = 2k); k ≥ 3."""
    if k < 3:
        raise ValueError("barbell needs cliques of size >= 3")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((k - 1, k))
    return edges


def lollipop_edges(k: int, tail: int) -> List[Edge]:
    """A ``K_k`` clique with a ``tail``-node path hanging off node k−1."""
    if k < 3 or tail < 1:
        raise ValueError("lollipop needs k >= 3 and tail >= 1")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    prev = k - 1
    for t in range(tail):
        edges.append((prev, k + t))
        prev = k + t
    return edges


def double_star_edges(a: int, b: int) -> List[Edge]:
    """Two adjacent hubs (0 and 1) with ``a`` and ``b`` leaves each."""
    if a < 0 or b < 0:
        raise ValueError("leaf counts must be >= 0")
    edges = [(0, 1)]
    nxt = 2
    for _ in range(a):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(b):
        edges.append((1, nxt))
        nxt += 1
    return edges


def spider_edges(legs: int, leg_length: int) -> List[Edge]:
    """``legs`` paths of ``leg_length`` nodes glued at a hub (node 0)."""
    if legs < 1 or leg_length < 1:
        raise ValueError("need legs >= 1 and leg_length >= 1")
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def random_regular_edges(n: int, d: int, seed: int) -> List[Edge]:
    """Random ``d``-regular simple connected graph via repeated
    pairing-model sampling (rejects multi-edges, loops and disconnected
    outcomes; retries deterministically from the seed)."""
    if d < 2 or n <= d or (n * d) % 2 != 0:
        raise ValueError("need 2 <= d < n with n*d even")
    rng = random.Random(seed)
    for _attempt in range(1000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or _norm((u, v)) in edges:
                ok = False
                break
            edges.add(_norm((u, v)))
        if ok and _is_connected(n, edges):
            return sorted(edges)
    raise RuntimeError(
        f"failed to sample a connected {d}-regular graph on {n} nodes"
    )


def _is_connected(n: int, edges) -> bool:
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _norm(e: Edge) -> Edge:
    u, v = e
    return (u, v) if u < v else (v, u)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one node")


# ----------------------------------------------------------------------
# configuration builders
# ----------------------------------------------------------------------
def build(
    edges: Sequence[Edge],
    tags: Mapping[int, int] = None,
    *,
    n: Optional[int] = None,
) -> Configuration:
    """Assemble a configuration from an edge list and a tag mapping.

    When ``tags`` is None all nodes get tag 0 (useful for labeled or
    randomized baselines, where wakeup symmetry breaking is not needed).
    """
    if n is None:
        n = max((max(e) for e in edges), default=0) + 1
    if tags is None:
        tags = {v: 0 for v in range(n)}
    return Configuration(edges, dict(tags))


def random_gnp_configuration(
    n: int, p: float, span: int, seed: int, tag_seed: Optional[int] = None
) -> Configuration:
    """One seeded connected G(n, p) configuration with uniform tags.

    Bit for bit the configuration ``build(random_connected_gnp_edges(n,
    p, seed), uniform_random(range(n), span, tag_seed), n=n)``, where
    ``tag_seed`` defaults to ``seed + 1``: the same random streams, drawn
    straight into adjacency sets that the configuration takes as they
    are, without a sorted edge list to re-parse.
    """
    adj = _gnp_adjacency(n, p, seed)
    tags = uniform_random(range(n), span, seed + 1 if tag_seed is None else tag_seed)
    return Configuration._from_adjacency(adj, tags)


def path_configuration(tags: Sequence[int]) -> Configuration:
    """Path with explicit left-to-right tags."""
    return build(path_edges(len(tags)), {i: t for i, t in enumerate(tags)})


def cycle_configuration(tags: Sequence[int]) -> Configuration:
    """Cycle with explicit tags in node order."""
    return build(cycle_edges(len(tags)), {i: t for i, t in enumerate(tags)})


def complete_configuration(tags: Sequence[int]) -> Configuration:
    """Complete graph (single-hop network) with explicit tags."""
    return build(complete_edges(len(tags)), {i: t for i, t in enumerate(tags)})


def star_configuration(tags: Sequence[int]) -> Configuration:
    """Star with centre 0 and explicit tags in node order."""
    return build(star_edges(len(tags)), {i: t for i, t in enumerate(tags)})
