"""Tag-preserving configuration isomorphism and canonical forms.

Two configurations are *equivalent* when a graph isomorphism maps one to
the other preserving wakeup tags — equivalent configurations are
operationally identical (every anonymous protocol behaves the same up to
renaming), so censuses that enumerate labeled graphs overcount. This
module provides:

* :func:`are_isomorphic` — tag-preserving isomorphism test: a
  refinement-certificate prefilter (:mod:`repro.canon.invariants`)
  answers most negatives in near-linear time, canonical-form equality
  decides the rest exactly;
* :func:`canonical_form` — a canonical representative key, equal for two
  configurations iff they are isomorphic, computed by :mod:`repro.canon`
  (refinement + individualization search); the ``(n, tag vector, edge
  set)`` tuple backs the census engine's cache keys
  (:mod:`repro.engine.keys`);
* :func:`dedupe` — collapse an iterable of configurations to isomorphism
  class representatives;
* invariance checks used by the property tests: feasibility, the leader's
  orbit, and election round counts are isomorphism-invariant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.configuration import Configuration


def _signature(cfg: Configuration) -> Tuple:
    """Cheap isomorphism invariant: sorted (tag, degree, neighbour tag
    multiset) per node, plus size and edge count.

    Strictly weaker than the 1-WL certificate; kept for the degenerate
    one-round view it documents and for the property tests that pin the
    certificate as a refinement of it.
    """
    per_node = sorted(
        (
            cfg.tag(v),
            cfg.degree(v),
            tuple(sorted(cfg.tag(w) for w in cfg.neighbors(v))),
        )
        for v in cfg.nodes
    )
    return (cfg.n, cfg.num_edges, tuple(per_node))


def are_isomorphic(a: Configuration, b: Configuration) -> bool:
    """Tag-preserving isomorphism test.

    The refinement certificate proves most non-isomorphic pairs apart
    without any search; pairs it cannot separate are decided exactly by
    canonical-form equality (memoized, so repeated tests against the
    same configurations stay cheap).
    """
    from ..canon import may_be_isomorphic

    if not may_be_isomorphic(a, b):
        return False
    return canonical_form(a) == canonical_form(b)


def find_isomorphism(
    a: Configuration, b: Configuration
) -> Optional[Dict[object, object]]:
    """A tag-preserving isomorphism ``a → b`` as a node map, or ``None``.

    Composed from the two canonical labelings (``a``'s canonical slot
    of a node equals ``b``'s canonical slot of its image), so callers
    who need the witness mapping — not just the boolean — reuse the
    memoized canonization instead of a fresh backtracking search.
    """
    from ..canon import canonize

    if not are_isomorphic(a, b):
        return None
    la, lb = canonize(a), canonize(b)
    slot_to_b = {slot: v for v, slot in lb.mapping.items()}
    return {v: slot_to_b[slot] for v, slot in la.mapping.items()}


def canonical_form(cfg: Configuration) -> Tuple:
    """Canonical key: equal for two configurations iff isomorphic.

    The ``(n, tag vector, edge set)`` tuple of :mod:`repro.canon`'s
    individualization–refinement search over the normalized
    configuration — one particular relabeled copy of it, memoized
    across calls. The brute-force enumeration that defined the key
    before survives as the tests' isomorphism-class oracle,
    :func:`repro.testing.bruteforce_canonical_form`.
    """
    from ..canon import canonical_form as refined_form

    return refined_form(cfg)


def dedupe(configs: Iterable[Configuration]) -> List[Configuration]:
    """Representatives of each isomorphism class, in first-seen order."""
    seen = set()
    out: List[Configuration] = []
    for cfg in configs:
        key = canonical_form(cfg)
        if key not in seen:
            seen.add(key)
            out.append(cfg)
    return out


def orbit_of(cfg: Configuration, v: object) -> List[object]:
    """The set of nodes some tag-preserving automorphism maps ``v`` to.

    Read off the orbit partition derived from the canonizer's
    automorphism generators — no group enumeration.
    """
    from .automorphisms import automorphism_orbits

    for orbit in automorphism_orbits(cfg):
        if v in orbit:
            return orbit
    raise KeyError(f"{v!r} is not a node of the configuration")
