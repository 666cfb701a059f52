"""Canonical-form keying for the census engine.

Census workloads are full of isomorphic duplicates: a random G(n, p)
sweep regenerates the same small tagged graphs under different node
labelings, and every classifier-relevant quantity (feasibility, the
refinement iteration count, the dedicated election round count) is
invariant under tag-preserving isomorphism. Keying cache entries by a
canonical form therefore lets the engine classify each isomorphism class
exactly once.

Three keyers are provided:

* :func:`canonical_key` — a digest of
  :func:`repro.analysis.isomorphism.canonical_form` under the
  :data:`KEY_SCHEME` prefix; equal for two configurations iff they are
  tag-preserving isomorphic (after
  :meth:`~repro.core.configuration.Configuration.normalize`). This is
  the engine default at **every** size: the refinement-defined
  canonizer (:mod:`repro.canon`) keys a random configuration in about
  one refinement, and a configuration-equality memo makes repeat
  keying of warm traffic O(n + m).
* :func:`certificate_key` — a digest of the 1-WL refinement
  certificate (:func:`repro.canon.certificate_key` re-exported):
  near-linear, collapses relabelings and everything 1-WL can prove
  equivalent, but may merge distinct isomorphism classes the exact key
  separates.
* :func:`labeled_key` — a digest of the exact labeled structure, with no
  isomorphism collapse. O(n + m); use it when the population is already
  deduplicated.

Correctness never depends on which keyer runs — a weaker keyer only
means fewer cache hits (``certificate_key`` is the one exception: it
may *over*-collapse 1-WL-equivalent non-isomorphic configurations, so
it is opt-in and never the default).

Keys are short strings so they serialize verbatim into the JSONL cache
(:mod:`repro.engine.cache`) and shard checkpoints. Canonical keys name
their scheme (``c2:<digest>``): the form they digest changed definition
once, from the brute-force minimum to the refinement search's leaf, and
the prefix tells entries written under the unprefixed old keys apart —
a cache file holding them gives the new keyer misses, never their
records.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from ..analysis.isomorphism import canonical_form
from ..canon import certificate_key as _certificate_key
from ..core.configuration import Configuration

#: Signature of a keyer: configuration -> stable string key.
Keyer = Callable[[Configuration], str]

#: Prefix of :func:`canonical_key`: names the canonical-form definition
#: the digest was taken under (unprefixed keys predate it).
KEY_SCHEME = "c2"


def _digest(payload: object) -> str:
    """Stable short hex digest of a JSON-serializable payload."""
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def canonical_key(cfg: Configuration) -> str:
    """Key equal for two configurations iff they are isomorphic.

    ``"c2:"`` plus a digest of the canonical ``(n, tag vector, edge
    set)`` of the normalized configuration, so relabeled and tag-shifted
    copies of the same network collapse to one cache entry — at any n,
    via :mod:`repro.canon`.
    """
    n, tagvec, edges = canonical_form(cfg)
    return f"{KEY_SCHEME}:" + _digest([n, list(tagvec), [list(e) for e in edges]])


def certificate_key(cfg: Configuration) -> str:
    """Near-linear 1-WL certificate key (may over-collapse; opt-in).

    Re-exported from :func:`repro.canon.certificate_key` so engine
    callers can pick it as a ``keyer`` without importing the canon
    package directly.
    """
    return _certificate_key(cfg)


def default_keyer(cfg: Configuration) -> str:
    """The engine's default keyer: canonical at every size.

    (The canonizer's worst case is still exponential, on graphs both
    highly regular and poor in automorphisms — pick
    :func:`certificate_key` or :func:`labeled_key` explicitly if a
    workload ever lives there.)
    """
    return canonical_key(cfg)


def labeled_key(cfg: Configuration) -> str:
    """Exact-structure key: no isomorphism collapse, linear time.

    Tag shifts are still collapsed (the configuration is normalized
    first) because shifted configurations are operationally identical.
    """
    cfg = cfg.normalize()
    return _digest(
        [
            cfg.n,
            [[v, cfg.tag(v)] for v in cfg.nodes],
            [list(e) for e in cfg.edges],
        ]
    )
