"""Refinement-defined canonical labeling.

``repro.canon`` decides tag-preserving isomorphism for every cache key,
service coalescing decision and symmetry question in the repository,
with the classic stack of practical graph-canonization tools:

* :mod:`repro.canon.refine` — one splitter-driven refinement loop over
  ordered partitions seeded by the tags: the coarsest equitable
  partition, with invariant cell positions as colors;
* :mod:`repro.canon.canonize` — individualization–refinement search
  with automorphism-orbit pruning, returning a ``(n, tags, edges)``
  canonical tuple that is equal iff two configurations are isomorphic,
  plus generators of the tag-preserving automorphism group, behind a
  configuration-equality memo;
* :mod:`repro.canon.invariants` — the refinement certificate: a cheap
  invariant prefilter for isomorphism tests and a cache-key fallback.

Consumers: :mod:`repro.analysis.isomorphism` (``canonical_form`` /
``are_isomorphic`` / ``dedupe`` delegate here), :mod:`repro.engine.keys`
(``default_keyer`` canonizes at every ``n``),
:mod:`repro.analysis.automorphisms` and :mod:`repro.analysis.symmetry`
(orbit structure from discovered generators), and through the keyer the
batch service's request coalescing. The brute-force enumeration that
used to define the form is the isomorphism-class oracle of the tests
(:func:`repro.testing.bruteforce_canonical_form`). Design notes:
``docs/canon.md``.

    >>> from repro.canon import canonical_form, canonize
    >>> from repro.core.configuration import line_configuration
    >>> a = line_configuration([0, 1, 0])
    >>> b = line_configuration([0, 1, 0]).relabel({0: 2, 1: 1, 2: 0})
    >>> canonical_form(a) == canonical_form(b)
    True
    >>> canonize(a).generators      # the mirror automorphism
    ({0: 2, 1: 1, 2: 0},)
"""

from .canonize import (
    CanonicalLabeling,
    automorphism_generators,
    canonical_form,
    canonize,
    clear_memo,
    memo_info,
)
from .invariants import certificate, certificate_key, may_be_isomorphic
from .refine import IndexedGraph, equitable_partition, index_graph

__all__ = [
    "CanonicalLabeling",
    "IndexedGraph",
    "automorphism_generators",
    "canonical_form",
    "canonize",
    "certificate",
    "certificate_key",
    "clear_memo",
    "equitable_partition",
    "index_graph",
    "may_be_isomorphic",
    "memo_info",
]
