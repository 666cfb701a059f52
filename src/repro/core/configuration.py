"""Configurations: tagged radio networks (paper Section 2.1).

A *configuration* is a simple undirected connected graph in which every
node ``v`` carries a non-negative integer wakeup tag ``t_v``. The node
wakes up spontaneously in global round ``t_v`` unless it receives a message
earlier (forced wakeup). The *size* ``n`` is the number of nodes; the
*span* ``σ`` is the difference between the largest and smallest tag. Since
nodes cannot read the global clock, configurations whose tags differ by a
constant shift are operationally identical; :meth:`Configuration.normalize`
shifts the smallest tag to 0, after which ``σ`` equals the largest tag.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


class ConfigurationError(ValueError):
    """Raised for malformed configurations."""


class Configuration:
    """An immutable tagged graph.

    Parameters
    ----------
    edges:
        iterable of node-id pairs; ids must be hashable and mutually
        sortable (ints in practice).
    tags:
        mapping node -> non-negative wakeup tag. Every node in ``tags``
        is a node of the configuration, including isolated ones (only the
        single-node configuration may be edgeless, since configurations
        must be connected).
    """

    __slots__ = ("_adj", "_tags", "_nodes", "_hash")

    def __init__(
        self,
        edges: Iterable[Tuple[object, object]],
        tags: Mapping[object, int],
    ) -> None:
        adj: Dict[object, set] = {v: set() for v in tags}
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ConfigurationError(f"edge {e!r} is not a pair")
            if u == v:
                raise ConfigurationError(f"self-loop at {u!r} (graph must be simple)")
            for x in (u, v):
                if x not in adj:
                    raise ConfigurationError(f"edge endpoint {x!r} has no tag")
            adj[u].add(v)
            adj[v].add(u)
        if not adj:
            raise ConfigurationError("configuration must have at least one node")
        _check_tags(tags)
        self._nodes: Tuple[object, ...] = tuple(sorted(adj))
        self._adj: Dict[object, Tuple[object, ...]] = {
            v: tuple(sorted(nbrs)) for v, nbrs in adj.items()
        }
        self._tags: Dict[object, int] = dict(tags)
        self._hash = None
        self._check_connected()

    @classmethod
    def _from_adjacency(
        cls, adj: Sequence[Iterable[int]], tags: Dict[int, int]
    ) -> "Configuration":
        """Trusted constructor for a generator that built the graph itself.

        Node ``v`` of ``0..len(adj)-1`` has neighbours ``adj[v]``, and
        ``tags`` maps the same nodes, in that order, to their tags; the
        dict is kept, not copied. The caller guarantees the adjacency is
        symmetric and free of self-loops. The edge-list parse of
        ``__init__`` is skipped, but the tags and connectivity are still
        checked, and the state built is the one ``__init__`` builds from
        the same graph and tags.
        """
        _check_tags(tags)
        self = cls.__new__(cls)
        self._nodes = tuple(range(len(adj)))
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in enumerate(adj)}
        self._tags = tags
        self._hash = None
        self._check_connected()
        return self

    def _check_connected(self) -> None:
        start = self._nodes[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self._nodes):
            missing = sorted(set(self._nodes) - seen)[:5]
            raise ConfigurationError(
                f"graph is not connected (e.g. {missing!r} unreachable "
                f"from {start!r})"
            )

    # ------------------------------------------------------------------
    # basic accessors (the simulator's network protocol)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[object, ...]:
        """All node ids in sorted order (the paper's fixed vertex order)."""
        return self._nodes

    def neighbors(self, v: object) -> Tuple[object, ...]:
        """Sorted neighbours of ``v``."""
        return self._adj[v]

    def tag(self, v: object) -> int:
        """Wakeup tag ``t_v``."""
        return self._tags[v]

    @property
    def tags(self) -> Dict[object, int]:
        """Copy of the node -> tag mapping."""
        return dict(self._tags)

    def degree(self, v: object) -> int:
        """Number of neighbours of ``v``."""
        return len(self._adj[v])

    @property
    def edges(self) -> List[Tuple[object, object]]:
        """Each undirected edge once, as a sorted pair, sorted overall."""
        out = []
        for v in self._nodes:
            for w in self._adj[v]:
                if v < w:
                    out.append((v, w))
        return out

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes (the paper's ``n``)."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def span(self) -> int:
        """``σ``: difference between the largest and smallest wakeup tag."""
        values = self._tags.values()
        return max(values) - min(values)

    @property
    def min_tag(self) -> int:
        return min(self._tags.values())

    @property
    def max_tag(self) -> int:
        return max(self._tags.values())

    @property
    def max_degree(self) -> int:
        """``Δ``: the maximum node degree."""
        return max(len(nbrs) for nbrs in self._adj.values())

    @property
    def is_normalized(self) -> bool:
        return self.min_tag == 0

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def normalize(self) -> "Configuration":
        """Shift tags so the smallest is 0 (w.l.o.g. per Section 2.1)."""
        lo = self.min_tag
        if lo == 0:
            return self
        # the graph is unchanged and immutable, so share the validated
        # adjacency instead of reconstructing and re-checking it
        clone = Configuration.__new__(Configuration)
        clone._nodes = self._nodes
        clone._adj = self._adj
        clone._tags = {v: t - lo for v, t in self._tags.items()}
        clone._hash = None
        return clone

    def with_tags(self, tags: Mapping[object, int]) -> "Configuration":
        """Same graph, different tags."""
        if set(tags) != set(self._nodes):
            raise ConfigurationError("new tags must cover exactly the same nodes")
        return Configuration(self.edges, tags)

    def shift_tags(self, delta: int) -> "Configuration":
        """Add ``delta`` to every tag (must stay non-negative)."""
        return Configuration(
            self.edges, {v: t + delta for v, t in self._tags.items()}
        )

    def relabel(self, mapping: Mapping[object, object]) -> "Configuration":
        """Rename nodes via ``mapping`` (must be a bijection on nodes)."""
        if set(mapping) != set(self._nodes):
            raise ConfigurationError("mapping must cover exactly the nodes")
        if len(set(mapping.values())) != len(self._nodes):
            raise ConfigurationError("mapping must be injective")
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        tags = {mapping[v]: t for v, t in self._tags.items()}
        return Configuration(edges, tags)

    def canonical_relabel(self) -> "Configuration":
        """Relabel nodes as 0..n-1 following the sorted node order."""
        mapping = {v: i for i, v in enumerate(self._nodes)}
        return self.relabel(mapping)

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a ``networkx.Graph`` with ``tag`` node attributes."""
        import networkx as nx

        g = nx.Graph()
        for v in self._nodes:
            g.add_node(v, tag=self._tags[v])
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_networkx(cls, graph, tags: Mapping[object, int] = None) -> "Configuration":
        """Build from a ``networkx.Graph``; tags default to the ``tag``
        node attribute."""
        if tags is None:
            try:
                tags = {v: graph.nodes[v]["tag"] for v in graph.nodes}
            except KeyError as exc:
                raise ConfigurationError(
                    "graph nodes lack 'tag' attributes and no tags were given"
                ) from exc
        return cls(graph.edges, tags)

    # ------------------------------------------------------------------
    # equality / hashing / repr
    # ------------------------------------------------------------------
    def _key(self) -> Tuple:
        return (
            self._nodes,
            tuple(self._adj[v] for v in self._nodes),
            tuple(self._tags[v] for v in self._nodes),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Configuration(n={self.n}, m={self.num_edges}, "
            f"span={self.span}, tags={self._tags!r})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"Configuration: n={self.n} nodes, {self.num_edges} edges, "
            f"span σ={self.span}, max degree Δ={self.max_degree}"
        ]
        for v in self._nodes:
            nbrs = ", ".join(map(str, self._adj[v]))
            lines.append(f"  node {v} (tag {self._tags[v]}): [{nbrs}]")
        return "\n".join(lines)


def _check_tags(tags: Mapping[object, int]) -> None:
    for v, t in tags.items():
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ConfigurationError(
                f"tag of node {v!r} must be a non-negative int, got {t!r}"
            )


def line_configuration(tags: Sequence[int]) -> Configuration:
    """Path graph with nodes ``0..len(tags)-1`` tagged left to right.

    The paper's negative-result families are all line configurations; this
    helper keeps their construction one line long.
    """
    if not tags:
        raise ConfigurationError("need at least one tag")
    n = len(tags)
    edges = [(i, i + 1) for i in range(n - 1)]
    return Configuration(edges, {i: tags[i] for i in range(n)})


def config_spec(config: Configuration) -> Dict:
    """JSON-able description of a configuration: ``{"tags": [[v, t], …],
    "edges": [[u, v], …]}``.

    Campaign manifests, queued sequence workloads and extremal witnesses
    store configurations this way. Node labels must be JSON scalars (ints
    or strings) so the round-trip reproduces the exact configuration;
    richer labels raise ``TypeError``.
    """
    for v in config.nodes:
        if not isinstance(v, (int, str)) or isinstance(v, bool):
            raise TypeError(
                f"node label {v!r} is not JSON-stable; a configuration "
                "spec needs int or str node labels"
            )
    return {
        "tags": [[v, config.tag(v)] for v in config.nodes],
        "edges": [list(e) for e in config.edges],
    }


def config_from_spec(spec: Dict) -> Configuration:
    """Rebuild a configuration from :func:`config_spec` output."""
    return Configuration(
        edges=[tuple(e) for e in spec["edges"]],
        tags={v: t for v, t in spec["tags"]},
    )
