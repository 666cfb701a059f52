"""The paper's centralized decision algorithm ``Classifier`` (Section 3.1).

:func:`classify` is the single entry point every caller — ``decide``,
the census engine, the service, the CLI — goes through. It dispatches
on an ``algorithm`` knob:

* ``"reference"`` — :func:`reference_classify`, the faithful O(n³Δ)
  transcription below (the Lemma 3.5 cost model; the oracle all other
  implementations are gated against);
* ``"compiled"`` — :func:`repro.core.compiled.compiled_classify`, the
  indexed, label-interned, split-driven incremental core;
* ``"batch"`` — :func:`repro.core.batch.batch_classify`, the
  struct-of-arrays numpy kernel that classifies whole populations in
  lockstep (a single configuration is a batch of one; callers holding
  real batches use :func:`repro.core.batch.batch_outcomes` directly);
* ``"auto"`` (default) — resolves to ``"compiled"`` here. Batched
  callers (the census engine, the service, population sweeps) resolve
  ``auto`` through :func:`repro.core.batch.resolve_batch_algorithm`
  instead, which picks ``"batch"`` when numpy is available.

All implementations produce bit-for-bit identical
:class:`~repro.core.trace.ClassifierTrace` objects (enforced by E8, the
E23/E24 benchmarks and the shared differential harness in
:mod:`repro.testing`), so the knob is a pure performance choice.

Faithful transcription of Algorithms 1–4:

* ``Init-Aug`` — every node starts in class 1 with a null label; the first
  node in the fixed vertex order becomes the class-1 representative.
* ``Partitioner`` — assigns each node the label encoding what it would
  hear during the current phase of the canonical DRIP (one transmission
  block of ``2σ+1`` rounds per class; a neighbour ``w`` of ``v`` lands in
  ``v``'s local round ``σ+1+t_w−t_v`` of block ``w_CLASS``), then refines
  the partition via ``Refine``.
* ``Classifier`` — repeats ``Partitioner`` for at most ``⌈n/2⌉``
  iterations; outputs **Yes** as soon as some class has exactly one node
  and **No** as soon as an iteration fails to increase the class count.

Lemma 3.4 guarantees one of the two exits fires within ``⌈n/2⌉``
iterations, and Theorem 3.17 shows the output equals feasibility of the
input configuration. The full refinement history is returned as a
:class:`~repro.core.trace.ClassifierTrace`, from which the canonical DRIP
is constructed without further computation.
"""

from __future__ import annotations

import math
from typing import Optional

from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry
from .configuration import Configuration
from .partition import (
    OpCounter,
    compute_all_labels,
    refine,
    singleton_classes,
)
from .trace import NO, YES, ClassifierTrace, IterationRecord


class ClassifierInvariantError(AssertionError):
    """Internal invariant violation (would contradict Lemma 3.4)."""


#: Accepted values of the ``algorithm`` knob, in CLI display order.
ALGORITHM_NAMES = ("auto", "batch", "compiled", "reference")


def resolve_algorithm(algorithm: str) -> str:
    """Validate an ``algorithm`` knob value and resolve ``"auto"``.

    ``auto`` resolves to ``compiled`` — the bit-for-bit-equal default a
    *single* classification gets unless the caller asks for a specific
    implementation. Callers holding batches resolve through
    :func:`repro.core.batch.resolve_batch_algorithm` instead, where
    ``auto`` picks the vectorized kernel when numpy is available.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(
            f"unknown classifier algorithm {algorithm!r} "
            f"(choose one of {ALGORITHM_NAMES})"
        )
    return "compiled" if algorithm == "auto" else algorithm


def classify(
    config: Configuration,
    *,
    count_ops: bool = False,
    counter: Optional[OpCounter] = None,
    algorithm: str = "auto",
) -> ClassifierTrace:
    """Run ``Classifier`` on ``config`` and return the full trace.

    Dispatches on ``algorithm`` (see the module docstring); every
    implementation returns the same trace bit for bit, so callers may
    treat the knob as a pure performance choice.

    Parameters
    ----------
    count_ops:
        meter operations; the total lands in ``trace.total_ops``.
        Reference metering is the Lemma 3.5 O(n³Δ) accounting; compiled
        metering counts the incremental path's actual work. The
        ``batch`` kernel does not meter (a :class:`ValueError`);
        ``classifier_ops`` stays pinned to the reference units
        regardless of this knob.
    counter:
        meter into this :class:`~repro.core.partition.OpCounter`
        instead of a fresh one — callers that want the
        ``triple_ops``/``label_ops`` split (e.g. the CLI ``--profile``
        flag) pass one and read it back; implies ``count_ops``.
    algorithm:
        ``"reference"``, ``"compiled"``, ``"batch"`` or ``"auto"``.
    """
    algorithm = resolve_algorithm(algorithm)
    if _OBS.enabled:  # per-call: guarded, one attribute check when off
        _registry.inc("classifier.calls")
        _registry.inc(f"classifier.calls.{algorithm}")
    if algorithm == "reference":
        return reference_classify(config, count_ops=count_ops, counter=counter)
    if algorithm == "batch":
        if count_ops or counter is not None:
            raise ValueError(
                "the batch kernel does not meter operations; use "
                'algorithm="reference" (Lemma 3.5 units) or "compiled"'
            )
        from .batch import batch_classify

        return batch_classify([config])[0]
    from .compiled import compiled_classify

    return compiled_classify(config, count_ops=count_ops, counter=counter)


def reference_classify(
    config: Configuration,
    *,
    count_ops: bool = False,
    counter: Optional[OpCounter] = None,
) -> ClassifierTrace:
    """The faithful O(n³Δ) ``Classifier`` (the paper's Algorithms 1–4).

    The configuration is normalized first (smallest tag shifted to 0,
    w.l.o.g. per Section 2.1); the trace's ``config`` attribute holds the
    normalized configuration. With ``count_ops`` (or an explicit
    ``counter``) triple-level operations are metered in Lemma 3.5 units;
    the total lands in ``trace.total_ops``.
    """
    config = config.normalize()
    nodes = config.nodes
    n = config.n
    if counter is None and count_ops:
        counter = OpCounter()

    # --- Init-Aug (Algorithm 1) ---------------------------------------
    classes = {v: 1 for v in nodes}
    reps: list = [None, nodes[0]]  # 1-based; reps[1] = first node
    num_classes = 1

    trace = ClassifierTrace(
        config=config,
        sigma=config.span,
        initial_classes=dict(classes),
        initial_reps=tuple(reps),
    )

    # --- main loop (Algorithm 4) ----------------------------------------
    max_iters = math.ceil(n / 2)
    for i in range(1, max_iters + 1):
        old_class_count = num_classes

        # Partitioner (Algorithm 3): label every node, then Refine.
        labels = compute_all_labels(config, classes, counter)
        classes, reps, num_classes = refine(
            nodes, classes, labels, reps, num_classes, counter
        )

        trace.iterations.append(
            IterationRecord(
                index=i,
                labels=labels,
                classes_after=dict(classes),
                reps_after=tuple(reps),
                num_classes_after=num_classes,
            )
        )

        single = singleton_classes(classes)
        if single:
            trace.decision = YES
            trace.decided_at = i
            trace.leader_class = single[0]  # the smallest such m (Lemma 3.11)
            trace.leader = reps[single[0]]
            break
        if num_classes == old_class_count:
            trace.decision = NO
            trace.decided_at = i
            break
    else:
        raise ClassifierInvariantError(
            f"Classifier failed to decide within ⌈n/2⌉ = {max_iters} "
            f"iterations on {config!r} — contradicts Lemma 3.4"
        )

    if counter is not None:
        trace.total_ops = counter.total
    return trace


def is_feasible(config: Configuration, *, algorithm: str = "auto") -> bool:
    """Decide feasibility of ``config`` (Theorem 3.17)."""
    return classify(config, algorithm=algorithm).feasible


def classifier_ops(config: Configuration) -> int:
    """Metered operation count of one Classifier run (Lemma 3.5 units).

    Always runs the ``reference`` algorithm: the O(n³Δ) unit-cost
    accounting of the complexity experiments is defined by the faithful
    implementation, whatever the repo-wide default is.
    """
    return classify(config, count_ops=True, algorithm="reference").total_ops


def chosen_leader(
    config: Configuration, *, algorithm: str = "auto"
) -> Optional[object]:
    """The node Classifier isolates (smallest singleton class), or None."""
    trace = classify(config, algorithm=algorithm)
    return trace.leader if trace.feasible else None
