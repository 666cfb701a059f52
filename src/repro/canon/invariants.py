"""Fast isomorphism invariants: the refinement certificate.

A *certificate* is a cheap hashable value equal for isomorphic
configurations. Unlike a canonical form it may collide for
non-isomorphic ones (1-WL cannot separate some regular-ish graphs), so
it serves as a **prefilter**: different certificates prove
non-isomorphism in ``O(m log n)``; equal certificates hand off to the
exact (worst-case exponential) canonizer. The same asymmetry makes it
a useful cache-key fallback when exactness is not required — a
certificate key merges at most whole 1-WL-equivalence classes, never
splits an isomorphism class across entries.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from ..core.configuration import Configuration
from .refine import equitable, index_graph


def certificate(cfg: Configuration) -> Tuple:
    """Isomorphism-invariant certificate of ``cfg``.

    The tuple carries the size, edge count, and the quotient of the
    coarsest equitable partition refining the tags
    (:meth:`repro.canon.refine.OrderedPartition.quotient`): per cell, in
    cell order, its tag, size and neighbour counts into every cell.
    Isomorphic configurations always agree (cell positions are invariant
    rank ids); configurations with different certificates are provably
    non-isomorphic. Two non-isomorphic configurations collide exactly
    when 1-WL cannot separate them — the regular-ish territory where
    only the exact canonizer decides.
    """
    graph = index_graph(cfg)
    return (graph.n, graph.num_edges, equitable(graph).quotient(graph))


def certificate_key(cfg: Configuration) -> str:
    """Short hex digest of :func:`certificate`.

    A near-linear cache-key *fallback*: strictly stronger than the
    engine's ``labeled_key`` at collapsing duplicates (relabelings and
    1-WL-equivalent isomorphs merge) while never conflating
    configurations the exact canonical key would separate beyond one
    1-WL class.
    """
    blob = repr(certificate(cfg))  # nested int tuples: repr is stable
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def may_be_isomorphic(a: Configuration, b: Configuration) -> bool:
    """Certificate prefilter: ``False`` proves non-isomorphism; ``True``
    means 1-WL cannot separate the two and an exact check must decide."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    return certificate(a) == certificate(b)
