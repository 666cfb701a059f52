"""Extremal analyses: span thresholds, hardest tags, iteration maxima.

The paper leaves quantitative structure implicit: *how much* wakeup-time
asymmetry does a given graph need before leader election becomes feasible,
which configurations make the Classifier work hardest relative to its
⌈n/2⌉-iteration ceiling (Lemma 3.4), and which tag assignments maximize
the dedicated election time within its O(n²σ) budget (Lemma 3.10)?
This module answers those questions by search:

* :func:`min_feasible_span` — the least span σ for which *some* tag
  assignment on a given graph is feasible (exhaustive over tag vectors
  for small n, seeded random search otherwise). A graph with a node fixed
  by every automorphism may already be feasible at σ = 0 is impossible —
  at σ = 0 all tags are equal and no node ever hears anything (paper
  Section 1.1) — so the answer is always ≥ 1 for n ≥ 2.
* :func:`max_iterations` — the configuration(s) maximizing
  ``decided_at`` over an exhaustive enumeration, vs the ⌈n/2⌉ bound.
* :func:`feasibility_probability` — Monte-Carlo estimate of the
  probability that a random configuration is feasible, as a function of
  span (the threshold curve the E15 experiment plots).
* :func:`hardest_tags` — seeded hill-climbing over tag assignments of a
  fixed graph and span, maximizing the dedicated election round count.
* :func:`campaign_witnesses` — campaign-driven extremal search: picks
  the extremal trials (slowest elections, heaviest effective jamming,
  derailments, failures) out of a :mod:`repro.campaigns` result set,
  deduplicated by canonical form so isomorphic repeats of one witness
  don't crowd out genuinely different ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.classifier import classify
from ..core.configuration import Configuration, config_from_spec
from ..core.election import elect_leader
from ..graphs.enumeration import enumerate_configurations
from ..graphs.generators import build, random_connected_gnp_edges
from ..graphs.tags import uniform_random

Edge = Tuple[int, int]


# ----------------------------------------------------------------------
# minimal feasible span
# ----------------------------------------------------------------------
@dataclass
class SpanSearchResult:
    """Outcome of a minimal-span search on one graph."""

    edges: List[Edge]
    n: int
    #: least feasible span found, or None if none within the budget.
    span: Optional[int]
    #: a witness tag assignment achieving it.
    witness: Optional[Dict[int, int]]
    exhaustive: bool  #: True when the search provably covered all tags


def _tag_vectors(n: int, max_tag: int):
    """All normalized tag vectors (containing at least one 0)."""
    for tags in product(range(max_tag + 1), repeat=n):
        if min(tags) == 0:
            yield tags


def min_feasible_span(
    edges: Sequence[Edge],
    n: int,
    *,
    max_span: int = 4,
    exhaustive_limit: int = 6,
    samples: int = 400,
    seed: int = 0,
) -> SpanSearchResult:
    """Least span for which some tag assignment on the graph is feasible.

    Spans are tried in increasing order; for each span the search is
    exhaustive when ``(span+1)^n`` stays small (``n <= exhaustive_limit``
    heuristic) and randomized otherwise (so a None answer is only a bound
    in the randomized regime).
    """
    edges = [tuple(e) for e in edges]
    rng = random.Random(seed)
    exhaustive = n <= exhaustive_limit
    for span in range(0, max_span + 1):
        if exhaustive:
            for tags in _tag_vectors(n, span):
                if max(tags) != span:
                    continue  # realize exactly this span
                cfg = build(edges, dict(enumerate(tags)), n=n)
                if classify(cfg).feasible:
                    return SpanSearchResult(
                        edges=edges,
                        n=n,
                        span=span,
                        witness=dict(enumerate(tags)),
                        exhaustive=True,
                    )
        else:
            for _ in range(samples):
                tags = [rng.randint(0, span) for _ in range(n)]
                lo = min(tags)
                tags = [t - lo for t in tags]
                if max(tags) != span:
                    continue
                cfg = build(edges, dict(enumerate(tags)), n=n)
                if classify(cfg).feasible:
                    return SpanSearchResult(
                        edges=edges,
                        n=n,
                        span=span,
                        witness=dict(enumerate(tags)),
                        exhaustive=False,
                    )
    return SpanSearchResult(
        edges=edges, n=n, span=None, witness=None, exhaustive=exhaustive
    )


# ----------------------------------------------------------------------
# hardest instances for the classifier
# ----------------------------------------------------------------------
@dataclass
class IterationExtremum:
    """Max ``decided_at`` over an enumerated population."""

    n: int
    max_tag: int
    iterations: int  #: the maximum observed
    ceiling: int  #: the Lemma 3.4 bound ⌈n/2⌉
    witnesses: List[Configuration] = field(default_factory=list)

    @property
    def tightness(self) -> float:
        """Observed / bound — 1.0 means the bound is attained."""
        return self.iterations / self.ceiling if self.ceiling else 0.0


def max_iterations(
    n: int, max_tag: int, *, witness_limit: int = 3
) -> IterationExtremum:
    """Scan all configurations with ``n`` nodes, tags ``0..max_tag``."""
    best = 0
    witnesses: List[Configuration] = []
    for cfg in enumerate_configurations(n, max_tag):
        d = classify(cfg).decided_at
        if d > best:
            best = d
            witnesses = [cfg]
        elif d == best and len(witnesses) < witness_limit:
            witnesses.append(cfg)
    return IterationExtremum(
        n=n,
        max_tag=max_tag,
        iterations=best,
        ceiling=(n + 1) // 2,
        witnesses=witnesses[:witness_limit],
    )


# ----------------------------------------------------------------------
# feasibility probability curves
# ----------------------------------------------------------------------
@dataclass
class ProbabilityPoint:
    span: int
    samples: int
    feasible: int

    @property
    def fraction(self) -> float:
        return self.feasible / self.samples if self.samples else 0.0


def _feasible_record(cfg: Configuration) -> Dict[str, bool]:
    """Engine-cache evaluator: the bare feasibility verdict."""
    return {"feasible": classify(cfg).feasible}


def feasibility_probability(
    n: int,
    spans: Sequence[int],
    *,
    samples: int = 100,
    p: float = 0.3,
    seed: int = 0,
    cache=None,
) -> List[ProbabilityPoint]:
    """P(feasible) for random connected G(n, p) with uniform tags per span.

    The curve rises with span: more possible wakeup times means fewer
    accidental symmetries. Span 0 forces all tags equal, where only the
    single-node configuration is feasible — the paper's opening
    observation — so the first point is (essentially) zero.

    Classification goes through a canonical-form result cache
    (:mod:`repro.engine`): isomorphic samples are classified once, and a
    caller-supplied ``cache`` (optionally disk-backed) makes repeated
    curves near-free. Feasibility is isomorphism-invariant, so the curve
    is identical with or without caching.
    """
    from ..engine import ResultCache, cached_evaluate

    if cache is None:
        cache = ResultCache()
    points = []
    for si, span in enumerate(spans):
        hits = 0
        for k in range(samples):
            s = seed + 7919 * si + k
            edges = random_connected_gnp_edges(n, p, s)
            tags = uniform_random(range(n), span, s + 1)
            cfg = build(edges, tags, n=n)
            if cached_evaluate(cfg, cache, _feasible_record)["feasible"]:
                hits += 1
        points.append(ProbabilityPoint(span=span, samples=samples, feasible=hits))
    return points


# ----------------------------------------------------------------------
# adversarial tag search
# ----------------------------------------------------------------------
@dataclass
class TagSearchResult:
    """Outcome of hill-climbing for the hardest tag assignment."""

    config: Configuration  #: the best (hardest) configuration found
    objective: int  #: its objective value (election rounds by default)
    evaluations: int  #: number of objective evaluations spent
    trajectory: List[int] = field(default_factory=list)  #: best-so-far curve


def election_rounds_objective(cfg: Configuration) -> int:
    """Default objective: dedicated election time; 0 when infeasible."""
    trace = classify(cfg)
    if not trace.feasible:
        return 0
    return elect_leader(cfg, trace=trace).rounds


def hardest_tags(
    edges: Sequence[Edge],
    n: int,
    span: int,
    *,
    objective: Callable[[Configuration], int] = election_rounds_objective,
    restarts: int = 4,
    steps: int = 60,
    seed: int = 0,
) -> TagSearchResult:
    """Seeded hill-climbing over tag assignments with span ≤ ``span``.

    Moves change one node's tag; each restart starts from a fresh random
    assignment. Deterministic for a fixed seed. Returns the best
    configuration (ties broken by first discovery).
    """
    edges = [tuple(e) for e in edges]
    rng = random.Random(seed)
    evaluations = 0
    best_cfg: Optional[Configuration] = None
    best_val = -1
    trajectory: List[int] = []

    def evaluate(tags: List[int]) -> Tuple[int, Configuration]:
        nonlocal evaluations
        lo = min(tags)
        cfg = build(edges, {i: t - lo for i, t in enumerate(tags)}, n=n)
        evaluations += 1
        return objective(cfg), cfg

    for _ in range(max(1, restarts)):
        tags = [rng.randint(0, span) for _ in range(n)]
        val, cfg = evaluate(tags)
        for _ in range(steps):
            i = rng.randrange(n)
            new_tag = rng.randint(0, span)
            if new_tag == tags[i]:
                continue
            cand = list(tags)
            cand[i] = new_tag
            cand_val, cand_cfg = evaluate(cand)
            if cand_val > val:
                tags, val, cfg = cand, cand_val, cand_cfg
            if val > best_val:
                best_val, best_cfg = val, cfg
            trajectory.append(best_val)
        if val > best_val:
            best_val, best_cfg = val, cfg
        trajectory.append(best_val)

    assert best_cfg is not None
    return TagSearchResult(
        config=best_cfg,
        objective=best_val,
        evaluations=evaluations,
        trajectory=trajectory,
    )


# ----------------------------------------------------------------------
# campaign-driven extremal witnesses
# ----------------------------------------------------------------------
def _witness_key(record: Dict) -> Optional[str]:
    """Canonical-form dedupe key of a campaign trial record.

    Two trials whose configurations are tag-preserving isomorphic carry
    the same key; records without a rebuildable configuration spec map
    to None (kept, but never deduped against each other).
    """
    spec = record.get("config")
    if not spec:
        return None
    from ..engine.keys import default_keyer

    return default_keyer(config_from_spec(spec).normalize())


def _top_indices(
    records: List[Dict],
    value: Callable[[Dict], Optional[int]],
    limit: int,
) -> List[int]:
    """Indices of the ``limit`` largest-value records, canonically deduped.

    Candidates are ranked by ``value`` (records where it is None are
    skipped) descending, ties broken by trial index; at most one record
    per canonical configuration class survives.
    """
    ranked = sorted(
        (r for r in records if value(r) is not None),
        key=lambda r: (-value(r), r["index"]),
    )
    picked: List[int] = []
    seen_keys = set()
    for r in ranked:
        key = _witness_key(r)
        if key is not None:
            if key in seen_keys:
                continue
            seen_keys.add(key)
        picked.append(r["index"])
        if len(picked) >= limit:
            break
    return picked


def campaign_witnesses(results: List[Dict], *, limit: int = 3) -> Dict:
    """Extremal witness trials of a campaign, deduped by canonical form.

    ``results`` are :func:`repro.campaigns.run_trial` records. Returns a
    dict of witness categories, each a list of at most ``limit`` trial
    indices (replayable via ``repro-radio campaign replay``):

    * ``"max_rounds"`` — completed elections with the most global
      rounds (the by-rounds extremum);
    * ``"max_jams"`` — trials with the most *effective* jams (jams that
      changed a history entry — the by-ops adversary extremum);
    * ``"derailed"`` — feasible elections the adversary broke, hardest
      (fewest effective jams) first: the derail-boundary witnesses;
    * ``"failed"`` — timeout / match-error / crashed trials.

    Within each category at most one witness per canonical
    configuration class is kept, so isomorphic duplicates of one
    scenario don't mask distinct extremal scenarios.
    """
    completed = [r for r in results if r.get("rounds_elapsed") is not None]
    derailed = [r for r in results if r.get("outcome") == "derailed"]
    failed = [
        r
        for r in results
        if r.get("outcome") in ("timeout", "match_error", "error")
    ]
    return {
        "max_rounds": _top_indices(
            completed, lambda r: r.get("rounds_elapsed"), limit
        ),
        "max_jams": _top_indices(completed, lambda r: r.get("jams"), limit),
        "derailed": _top_indices(
            derailed, lambda r: -int(r.get("jams") or 0), limit
        ),
        "failed": _top_indices(failed, lambda r: r["index"], limit),
    }
