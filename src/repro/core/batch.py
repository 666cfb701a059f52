"""Batch-vectorized classifier kernel: classify whole populations as arrays.

The compiled core (:mod:`repro.core.compiled`) made a *single*
classification ~15x faster than the reference; this module supplies the
next multiplier — **across-instance batching**. The census engine, the
service batcher and Monte Carlo sweeps all hold populations of
configurations and, before this module, classified them one at a time:
every instance paid its own Python interpreter loop per refinement
iteration. Here the whole population is packed into one struct-of-arrays
representation and refined in lockstep:

* :class:`ConfigurationBatch` — many configurations compiled into shared
  flat numpy arrays: concatenated node tags, one concatenated CSR
  adjacency (``adj_offsets``/``adj_targets`` over *global* node indices),
  per-instance node offsets, and per-instance ``sigma``. Instance ``b``'s
  nodes occupy the contiguous global index range
  ``node_offsets[b] .. node_offsets[b+1]-1`` in the paper's fixed vertex
  order, so per-instance quantities (classes, representatives) live in
  flat arrays indexed by ``node_offsets[b] + local``.
* **Lockstep refinement** — one numpy pass per Classifier iteration
  computes every active instance's Partitioner labels at once (edge-wise
  contribution filter, lexsort grouping for the ``1``/``∗`` multiplicity
  marks) and refines via one :func:`numpy.unique` row-grouping over
  ``(instance, old class, label)`` keys. Fresh class numbers are assigned
  in each instance's vertex order, exactly where the reference assigns
  them, and each instance is **retired from the frontier the moment it
  decides** — a mixed batch never makes a small instance wait for a
  large one.
* **Bit-for-bit output** — the per-instance
  :class:`~repro.core.trace.ClassifierTrace` (labels, class numbering,
  representatives, decision, leader, iteration count) is identical to
  :func:`repro.core.classifier.reference_classify`'s, enforced by the
  shared differential harness (:mod:`repro.testing`) and the E24
  benchmark. Error behavior matches serial classification per instance:
  an invalid instance raises exactly what the serial path raises, and
  with ``errors="return"`` it does so without poisoning the other
  instances' results.

The kernel is wired in as ``algorithm="batch"`` on
:func:`repro.core.classifier.classify` and is the ``auto`` choice
wherever callers already hold batches — :func:`repro.engine.pipeline.
batch_records` (hence the sharded census and the service dispatch loop)
and the in-process campaign loop — via :func:`resolve_batch_algorithm`,
which falls back to the compiled core when numpy is absent.
``classifier_ops`` stays pinned to the reference Lemma 3.5 accounting;
the batch kernel does not meter operations.
The E24 benchmark gates a >= 5x speedup over the compiled core on a
1k-configuration cold batch (``BENCH_E24.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is a declared dependency, but every caller degrades cleanly
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via monkeypatch
    np = None
    HAVE_NUMPY = False

from ..obs.runtime import STATE as _OBS
from ..obs.runtime import registry as _registry
from ..obs.runtime import span as _obs_span
from .classifier import ALGORITHM_NAMES, ClassifierInvariantError
from .configuration import Configuration
from .partition import ONE, STAR, Label
from .trace import NO, YES, ClassifierTrace, IterationRecord


def resolve_batch_algorithm(algorithm: str) -> str:
    """Resolve the ``algorithm`` knob for a caller holding a *batch*.

    ``auto`` resolves to ``"batch"`` when numpy is importable and to
    ``"compiled"`` (the single-instance default) otherwise, so batched
    callers — the engine's :func:`~repro.engine.pipeline.batch_records`,
    the serial census, the service dispatch loop — get the vectorized
    kernel exactly when it can run. Explicitly requesting ``"batch"``
    without numpy raises instead of silently degrading.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(
            f"unknown classifier algorithm {algorithm!r} "
            f"(choose one of {ALGORITHM_NAMES})"
        )
    if algorithm == "auto":
        return "batch" if HAVE_NUMPY else "compiled"
    if algorithm == "batch":
        _require_numpy()
    return algorithm


def _require_numpy() -> None:
    """Raise a clear error when the vectorized kernel cannot run."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            'algorithm="batch" requires numpy, which is not importable; '
            'install it or use algorithm="auto" (which falls back to the '
            "compiled core)"
        )


# ----------------------------------------------------------------------
# the struct-of-arrays batch representation
# ----------------------------------------------------------------------
#: int64 headroom bound for single-key packed sorts in the kernel.
_PACK_LIMIT = 2 ** 62

_RANGE_TUPLES: Dict[int, Tuple[int, ...]] = {}


def _identity_nodes(n: int) -> Tuple[int, ...]:
    """Cached ``(0, 1, ..., n-1)`` for the dense-node fast path."""
    cached = _RANGE_TUPLES.get(n)
    if cached is None:
        cached = tuple(range(n))
        _RANGE_TUPLES[n] = cached
    return cached


@dataclass(frozen=True)
class ConfigurationBatch:
    """Many configurations packed into shared flat numpy arrays.

    The across-instance analogue of
    :class:`~repro.core.compiled.IndexedConfiguration`: every instance is
    normalized and re-indexed to dense positions, then concatenated into
    one global node axis (instance-major, vertex order within an
    instance) and one global CSR adjacency. All kernel state — classes,
    labels, representatives — lives in arrays over these global indices,
    so one numpy expression steps every instance at once.
    """

    configs: Tuple[Configuration, ...]  #: normalized per-instance configs
    node_offsets: "np.ndarray"  #: (B+1,) instance b owns nodes [off[b], off[b+1])
    instance_of_node: "np.ndarray"  #: (N,) owning instance per global node
    tags: "np.ndarray"  #: (N,) normalized wakeup tags
    adj_offsets: "np.ndarray"  #: (N+1,) CSR row offsets per global node
    adj_targets: "np.ndarray"  #: (E,) CSR targets, as global node indices
    edge_source: "np.ndarray"  #: (E,) source global node per directed edge
    sigma: "np.ndarray"  #: (B,) per-instance span

    @property
    def num_instances(self) -> int:
        """Number of packed configurations ``B``."""
        return len(self.configs)

    @property
    def num_nodes(self) -> int:
        """Total node count ``N`` across all instances."""
        return len(self.tags)

    @classmethod
    def from_configurations(
        cls,
        configs: Sequence[Configuration],
        *,
        assume_normalized: bool = False,
    ) -> "ConfigurationBatch":
        """Normalize and pack ``configs`` (any mix of sizes and spans).

        Node ids may be arbitrary sortable objects; instances whose
        nodes are already dense ints ``0..n-1`` take a no-lookup fast
        path. Cost is one ``O(n + m)`` Python pass per instance — the
        only per-instance Python the batch path ever runs. Callers that
        have already normalized every instance (``batch_outcomes`` does,
        for per-instance error isolation) pass ``assume_normalized`` to
        skip the redundant second pass.
        """
        _require_numpy()
        from itertools import chain

        normalized: List[Configuration] = []
        offsets: List[int] = [0]
        tag_values: List[int] = []
        rows: List[Tuple[int, ...]] = []  # local adjacency, one row/node
        base = 0
        for cfg in configs:
            norm = cfg if assume_normalized else cfg.normalize()
            normalized.append(norm)
            # this loop is the only per-instance Python on the batch
            # path, so it reads the sibling class's slots directly and
            # defers all per-node/per-edge work to C-level maps below
            nodes = norm._nodes
            n = len(nodes)
            tag_values.extend(map(norm._tags.__getitem__, nodes))
            if nodes == _identity_nodes(n):
                rows.extend(map(norm._adj.__getitem__, nodes))
            else:
                pos = {v: i for i, v in enumerate(nodes)}
                adj = norm._adj
                # pos is monotone in node order and rows are sorted by
                # id, so mapped positions are already ascending
                rows.extend(
                    tuple(pos[w] for w in adj[v]) for v in nodes
                )
            base += n
            offsets.append(base)

        node_offsets = np.asarray(offsets, dtype=np.int64)
        tags = np.asarray(tag_values, dtype=np.int64)
        deg = np.fromiter(map(len, rows), dtype=np.int64, count=base)
        num_edges = int(deg.sum())
        adj_offsets = np.zeros(base + 1, dtype=np.int64)
        np.cumsum(deg, out=adj_offsets[1:])
        counts = np.diff(node_offsets)
        instance_of_node = np.repeat(
            np.arange(len(normalized), dtype=np.int64), counts
        )
        edge_source = np.repeat(np.arange(base, dtype=np.int64), deg)
        adj_targets = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=num_edges
        )
        if base:
            adj_targets += node_offsets[instance_of_node[edge_source]]
        if base:
            sigma = np.maximum.reduceat(tags, node_offsets[:-1])
        else:
            sigma = np.zeros(0, dtype=np.int64)
        return cls(
            configs=tuple(normalized),
            node_offsets=node_offsets,
            instance_of_node=instance_of_node,
            tags=tags,
            adj_offsets=adj_offsets,
            adj_targets=adj_targets,
            edge_source=edge_source,
            sigma=sigma,
        )


# ----------------------------------------------------------------------
# kernel internals
# ----------------------------------------------------------------------
@dataclass
class _IterationSnapshot:
    """Raw arrays of one lockstep iteration (trace mode only)."""

    active_nodes: "np.ndarray"  #: global indices of nodes stepped
    label_node: "np.ndarray"  #: global node per label triple (sorted)
    label_packed: "np.ndarray"  #: packed (a, b, mark) triple per label
    classes: "np.ndarray"  #: class per active node, after Refine
    reps: "np.ndarray"  #: rep_flat copy (rep node per class slot)
    num_classes: "np.ndarray"  #: per-instance class count, after Refine


@dataclass
class _KernelResult:
    """Per-instance outcomes of one lockstep run."""

    feasible: "np.ndarray"  #: (B,) bool
    decided_at: "np.ndarray"  #: (B,) iteration of the decision (0 = error)
    leader_class: "np.ndarray"  #: (B,) smallest singleton class, or -1
    leader_node: "np.ndarray"  #: (B,) global node index of the leader, or -1
    b_modulus: int  #: packing modulus of the (a, b) -> a*K + b encoding
    errors: List[Optional[BaseException]]  #: per-instance kernel errors
    snapshots: List[_IterationSnapshot]  #: one per iteration (trace mode)


def _run_kernel(batch: ConfigurationBatch, *, record: bool) -> _KernelResult:
    """Refine every instance in lockstep until each decides.

    With ``record`` the per-iteration arrays are snapshotted so full
    traces can be materialized; without it only the decision outputs are
    kept — the fast path for census records and service responses.
    """
    B = batch.num_instances
    N = batch.num_nodes
    node_off = batch.node_offsets
    inst_of = batch.instance_of_node
    tags = batch.tags
    edge_src = batch.edge_source
    adj_tgt = batch.adj_targets
    big = np.iinfo(np.int64).max

    # packing constants. A label triple (a, b, mark) has 1 <= a <= n,
    # 1 <= b <= 2σ+1 and mark in {ONE, STAR} = {1, 2}, so
    # t = (a*K + b)*3 + mark with K = 2σ_max + 2 encodes it in one
    # int64, order-isomorphically to the (a, b, mark) tuple order, and
    # t >= 4 keeps 0 free as the padding sentinel.
    n_max = int(np.diff(node_off).max()) if B else 1
    K = 2 * int(batch.sigma.max()) + 2 if B else 2
    t_max = (n_max * K + K - 1) * 3 + STAR
    bits = t_max.bit_length()
    per_word = max(1, 63 // bits)
    P = (n_max + 1) * K  # modulus of the packed (a, b) pair
    ic_bits = (B * (n_max + 1)).bit_length()  # bits of (instance, class)

    # the b component of every potential triple is tag-only, hence
    # static: precompute it per directed edge once for the whole run
    if N:
        edge_b = (
            batch.sigma[inst_of[edge_src]] + 1 + tags[adj_tgt] - tags[edge_src]
        )
        edge_tag_differs = tags[adj_tgt] != tags[edge_src]
    else:
        edge_b = np.zeros(0, dtype=np.int64)
        edge_tag_differs = np.zeros(0, dtype=bool)

    # the ⌈n/2⌉ bound is evaluated here (not at pack time) so the
    # invariant-violation parity tests can starve it like the serial
    # implementations'
    max_iters = np.asarray(
        [math.ceil(n / 2) for n in np.diff(node_off).tolist()],
        dtype=np.int64,
    )

    cls = np.ones(N, dtype=np.int64)
    num_classes = np.ones(B, dtype=np.int64)
    rep_flat = np.full(N, -1, dtype=np.int64)
    if B:
        rep_flat[node_off[:-1]] = node_off[:-1]  # class 1's rep: first node
    alive = np.ones(B, dtype=bool)

    result = _KernelResult(
        feasible=np.zeros(B, dtype=bool),
        decided_at=np.zeros(B, dtype=np.int64),
        leader_class=np.full(B, -1, dtype=np.int64),
        leader_node=np.full(B, -1, dtype=np.int64),
        b_modulus=K,
        errors=[None] * B,
        snapshots=[],
    )

    i = 0
    refresh = False
    # every instance is alive on the first pass: the active node set is
    # the identity and the active edge views are the full edge arrays
    act = np.arange(N, dtype=np.int64)
    row_of = act
    ve, we, eb, etd = edge_src, adj_tgt, edge_b, edge_tag_differs
    while alive.any():
        i += 1
        overdue = alive & (i > max_iters)
        if overdue.any():
            for b in np.flatnonzero(overdue):
                result.errors[b] = ClassifierInvariantError(
                    f"batch classify failed to decide within ⌈n/2⌉ = "
                    f"{int(max_iters[b])} iterations on "
                    f"{batch.configs[b]!r} — contradicts Lemma 3.4"
                )
            alive &= ~overdue
            refresh = True
            if not alive.any():
                break
        if refresh:
            act = np.flatnonzero(alive[inst_of])
            row_of = np.full(N, -1, dtype=np.int64)
            row_of[act] = np.arange(act.size, dtype=np.int64)
            eact = np.flatnonzero(alive[inst_of[edge_src]])
            ve = edge_src[eact]
            we = adj_tgt[eact]
            eb = edge_b[eact]
            etd = edge_tag_differs[eact]
            refresh = False
        nA = act.size

        # --- Partitioner labels, all active instances at once ----------
        if i == 1 and act.size == N:
            # first pass: every class is 1, so the triple stream is
            # tag-only — no class gathers needed
            v2 = ve[etd]
            p2 = K + eb[etd]  # packed (a, b) with a = 1, order-true
        else:
            cv = cls[ve]
            cw = cls[we]
            differs = (cw != cv) | etd
            v2 = ve[differs]
            p2 = cw[differs] * K + eb[differs]  # packed (a, b), order-true
        if N * P < _PACK_LIMIT:
            # one stable argsort of (node, triple) packed into one int64
            order = np.argsort(v2 * P + p2, kind="stable")
        else:  # pragma: no cover - needs ~2^52 node-triples
            order = np.lexsort((p2, v2))
        v2, p2 = v2[order], p2[order]
        if v2.size:
            fresh_triple = np.empty(v2.size, dtype=bool)
            fresh_triple[0] = True
            fresh_triple[1:] = (v2[1:] != v2[:-1]) | (p2[1:] != p2[:-1])
            starts = np.flatnonzero(fresh_triple)
            bounds = np.empty(starts.size + 1, dtype=np.int64)
            bounds[:-1] = starts
            bounds[-1] = v2.size
            counts = np.diff(bounds)
            label_node = v2[starts]
            label_packed = p2[starts] * 3 + np.where(counts == 1, ONE, STAR)
        else:
            label_node = label_packed = np.zeros(0, dtype=np.int64)

        # fixed-width label rows, bit-packed `per_word` triples to an
        # int64 word; 0-padding cannot collide since every t >= 4
        if label_node.size:
            node_change = np.empty(label_node.size, dtype=bool)
            node_change[0] = True
            node_change[1:] = label_node[1:] != label_node[:-1]
            run_starts = np.flatnonzero(node_change)
            run_bounds = np.empty(run_starts.size + 1, dtype=np.int64)
            run_bounds[:-1] = run_starts
            run_bounds[-1] = label_node.size
            run_len = np.diff(run_bounds)
            width = int(run_len.max())
            n_words = -(-width // per_word)
            slot = np.arange(label_node.size, dtype=np.int64) - np.repeat(
                run_starts, run_len
            )
            words = np.zeros((nA, n_words), dtype=np.int64)
            flat = words.reshape(-1)
            target = row_of[label_node] * n_words + slot // per_word
            sub = slot % per_word
            # triples sharing a word have distinct sub-slots, so one
            # scatter per sub-slot class is collision-free
            for s in range(min(per_word, width)):
                pick = sub == s
                flat[target[pick]] |= label_packed[pick] << (s * bits)
        else:
            n_words = 0
            words = np.zeros((nA, 0), dtype=np.int64)

        # --- Refine: group by (instance, old class, label) -------------
        inst_act = inst_of[act]
        old_cls_act = cls[act]
        ic = inst_act * (n_max + 1) + old_cls_act
        first = group = None
        if n_words:
            # densify word values, then pack (ic, words) into one int64
            # if the bit budget allows — one stable argsort instead of a
            # lexicographic sort over void rows
            unique_words, word_ids = np.unique(
                words.reshape(-1), return_inverse=True
            )
            word_bits = int(unique_words.size).bit_length()
            if ic_bits + n_words * word_bits <= 63:
                word_ids = word_ids.reshape(nA, n_words)
                key = ic
                for j in range(n_words):
                    key = (key << word_bits) | word_ids[:, j]
            else:  # pragma: no cover - needs extremely wide labels
                key = None
        else:
            key = ic
        if key is not None:
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            boundary = np.empty(nA, dtype=bool)
            if nA:
                boundary[0] = True
                boundary[1:] = sorted_key[1:] != sorted_key[:-1]
            group = np.empty(nA, dtype=np.int64)
            group[order] = np.cumsum(boundary) - 1
            # stability makes each group's first sorted member its
            # smallest row — the group's first node in vertex order
            first = order[np.flatnonzero(boundary)]
        else:  # pragma: no cover - fallback, same grouping semantics
            keys = np.empty((nA, 2 + n_words), dtype=np.int64)
            keys[:, 0] = inst_act
            keys[:, 1] = old_cls_act
            keys[:, 2:] = words
            _, first, group = np.unique(
                keys, axis=0, return_index=True, return_inverse=True
            )
            group = group.reshape(-1)
        G = first.size

        # a node keeps its class number iff it grouped with that class's
        # representative (all of a group shares one verdict)
        rep_node = rep_flat[node_off[inst_act] + old_cls_act - 1]
        keep = group == group[row_of[rep_node]]
        new_cls_act = old_cls_act.copy()

        kept_group = np.zeros(G, dtype=bool)
        kept_group[group[keep]] = True
        fresh_groups = np.flatnonzero(~kept_group)
        old_num_classes = num_classes.copy()
        if fresh_groups.size:
            # fresh numbers appear in each instance's vertex order: sort
            # fresh groups by first member (global order is instance-
            # major vertex order), then rank within the instance segment
            fg_first = first[fresh_groups]
            fg_order = np.argsort(fg_first)
            fresh_groups = fresh_groups[fg_order]
            fg_first = fg_first[fg_order]
            fg_inst = inst_act[fg_first]
            seg_change = np.empty(fg_inst.size, dtype=bool)
            seg_change[0] = True
            seg_change[1:] = fg_inst[1:] != fg_inst[:-1]
            seg_starts = np.flatnonzero(seg_change)
            seg_len = np.diff(np.append(seg_starts, fg_inst.size))
            rank = np.arange(fg_inst.size, dtype=np.int64) - np.repeat(
                seg_starts, seg_len
            )
            fresh_numbers = num_classes[fg_inst] + rank + 1
            group_number = np.zeros(G, dtype=np.int64)
            group_number[fresh_groups] = fresh_numbers
            moved = ~keep
            new_cls_act[moved] = group_number[group[moved]]
            rep_flat[node_off[fg_inst] + fresh_numbers - 1] = act[fg_first]
            num_classes += np.bincount(fg_inst, minlength=B)
        cls[act] = new_cls_act

        if record:
            result.snapshots.append(
                _IterationSnapshot(
                    active_nodes=act,
                    label_node=label_node,
                    label_packed=label_packed,
                    classes=new_cls_act,
                    reps=rep_flat.copy(),
                    num_classes=num_classes.copy(),
                )
            )

        # --- decide & retire -------------------------------------------
        class_slot = node_off[inst_act] + new_cls_act - 1
        sizes = np.bincount(class_slot, minlength=N)
        singleton_slots = np.flatnonzero(sizes == 1)
        best = np.full(B, big, dtype=np.int64)
        if singleton_slots.size:
            sb = inst_of[singleton_slots]
            np.minimum.at(
                best, sb, singleton_slots - node_off[sb] + 1
            )
        yes = alive & (best < big)
        no = alive & ~yes & (num_classes == old_num_classes)
        if yes.any():
            result.feasible[yes] = True
            result.decided_at[yes] = i
            result.leader_class[yes] = best[yes]
            result.leader_node[yes] = rep_flat[
                node_off[:-1][yes] + best[yes] - 1
            ]
        if no.any():
            result.decided_at[no] = i
        retired = yes | no
        if retired.any():
            alive &= ~retired
            refresh = True
    return result


# ----------------------------------------------------------------------
# trace materialization
# ----------------------------------------------------------------------
def _materialize_trace(
    batch: ConfigurationBatch, b: int, result: _KernelResult
) -> ClassifierTrace:
    """Rebuild instance ``b``'s full ``ClassifierTrace`` from snapshots."""
    cfg = batch.configs[b]
    nodes = cfg.nodes
    lo = int(batch.node_offsets[b])
    hi = int(batch.node_offsets[b + 1])
    trace = ClassifierTrace(
        config=cfg,
        sigma=int(batch.sigma[b]),
        initial_classes={v: 1 for v in nodes},
        initial_reps=(None, nodes[0]),
    )
    decided_at = int(result.decided_at[b])
    K = result.b_modulus
    for it in range(decided_at):
        snap = result.snapshots[it]
        labels: Dict[object, Label] = {v: () for v in nodes}
        s = int(np.searchsorted(snap.label_node, lo))
        e = int(np.searchsorted(snap.label_node, hi))
        if s < e:
            lv = snap.label_node[s:e].tolist()
            lt = snap.label_packed[s:e].tolist()
            current = lv[0]
            triples: List[Tuple[int, int, int]] = []
            for g, t in zip(lv, lt):
                if g != current:
                    labels[nodes[current - lo]] = tuple(triples)
                    triples = []
                    current = g
                pair, mark = divmod(t, 3)
                a, rb = divmod(pair, K)
                triples.append((a, rb, mark))
            labels[nodes[current - lo]] = tuple(triples)
        sa = int(np.searchsorted(snap.active_nodes, lo))
        ea = int(np.searchsorted(snap.active_nodes, hi))
        active = snap.active_nodes[sa:ea].tolist()
        class_values = snap.classes[sa:ea].tolist()
        nc = int(snap.num_classes[b])
        reps = snap.reps[lo : lo + nc].tolist()
        trace.iterations.append(
            IterationRecord(
                index=it + 1,
                labels=labels,
                classes_after={
                    nodes[g - lo]: c for g, c in zip(active, class_values)
                },
                reps_after=(None, *(nodes[r - lo] for r in reps)),
                num_classes_after=nc,
            )
        )
    trace.decided_at = decided_at
    if result.feasible[b]:
        trace.decision = YES
        trace.leader_class = int(result.leader_class[b])
        trace.leader = nodes[int(result.leader_node[b]) - lo]
    else:
        trace.decision = NO
    return trace


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
@dataclass
class BatchOutcome:
    """Result of classifying one instance of a batch.

    Exactly one of ``error`` / the result fields is meaningful: when
    ``error`` is set, the instance failed exactly as serial
    classification would have (same exception object), and the other
    fields are placeholders. ``trace`` is populated only when the batch
    ran in trace mode (``batch_outcomes(..., traces=True)``).
    """

    config: Optional[Configuration]  #: the normalized instance, if valid
    feasible: bool  #: Classifier said Yes
    iterations: int  #: number of Partitioner iterations until decision
    trace: Optional[ClassifierTrace] = None  #: full trace (trace mode)
    error: Optional[BaseException] = None  #: per-instance failure


def batch_outcomes(
    configs: Sequence[Configuration],
    *,
    traces: bool = False,
    errors: str = "raise",
) -> List[BatchOutcome]:
    """Classify ``configs`` through the lockstep kernel, in input order.

    The workhorse behind :func:`batch_classify` and
    :func:`batch_census_records`. ``traces=False`` (the fast path) skips
    per-iteration snapshotting and trace materialization entirely —
    callers that only consume the verdict and iteration count (census
    records, decide-mode service responses) pay for nothing else.

    ``errors`` controls per-instance failures (an instance that is not a
    valid configuration, or that violates the Lemma 3.4 invariant):
    ``"raise"`` re-raises the first failing instance's exception —
    exactly the exception serial classification raises — after the rest
    of the batch has been classified; ``"return"`` delivers it in that
    instance's :attr:`BatchOutcome.error` instead, so one bad instance
    never poisons the others' results.
    """
    _require_numpy()
    if errors not in ("raise", "return"):
        raise ValueError(
            f'errors must be "raise" or "return", got {errors!r}'
        )
    configs = list(configs)
    outcomes: List[BatchOutcome] = []
    valid: List[Configuration] = []
    valid_slots: List[int] = []
    for idx, cfg in enumerate(configs):
        try:
            norm = cfg.normalize()
        except Exception as exc:  # identical to the serial first failure
            outcomes.append(
                BatchOutcome(
                    config=None, feasible=False, iterations=0, error=exc
                )
            )
        else:
            outcomes.append(
                BatchOutcome(config=None, feasible=False, iterations=0)
            )
            valid.append(norm)
            valid_slots.append(idx)

    if valid:
        batch = ConfigurationBatch.from_configurations(
            valid, assume_normalized=True
        )
        with _obs_span("batch.kernel", instances=len(valid), traces=traces):
            result = _run_kernel(batch, record=traces)
        if _OBS.enabled:  # per-batch: guarded, one attribute check when off
            _registry.inc("batch.kernel_calls")
            _registry.inc("batch.instances", len(valid))
        for b, idx in enumerate(valid_slots):
            out = outcomes[idx]
            if result.errors[b] is not None:
                out.error = result.errors[b]
                continue
            out.config = batch.configs[b]
            out.feasible = bool(result.feasible[b])
            out.iterations = int(result.decided_at[b])
            if traces:
                out.trace = _materialize_trace(batch, b, result)

    if errors == "raise":
        for out in outcomes:
            if out.error is not None:
                raise out.error
    return outcomes


def batch_classify(
    configs: Sequence[Configuration],
) -> List[ClassifierTrace]:
    """Classify a batch; returns one full trace per instance, in order.

    Drop-in batched equivalent of calling
    :func:`repro.core.classifier.classify` per configuration: each
    returned :class:`~repro.core.trace.ClassifierTrace` is bit-for-bit
    the reference implementation's. The first invalid instance raises
    exactly what serial classification raises (use
    :func:`batch_outcomes` with ``errors="return"`` for per-instance
    error delivery).
    """
    return [
        out.trace for out in batch_outcomes(configs, traces=True)
    ]


def batch_census_records(
    configs: Sequence[Configuration], *, measure_rounds: bool = False
) -> List[Dict]:
    """Census records for a batch — the engine's vectorized miss path.

    One :func:`repro.engine.pipeline.census_record`-shaped dict per
    configuration (``feasible`` / ``iterations`` / ``rounds``),
    bit-for-bit equal to the serial records for every instance. Decide
    workloads run the no-trace fast path; ``measure_rounds`` workloads
    materialize traces (the canonical DRIP is constructed from them) and
    run the dedicated election per feasible instance.
    """
    if not measure_rounds:
        # lean path: no traces, no BatchOutcome objects — straight from
        # the kernel's arrays to record dicts (the E24-gated hot path)
        _require_numpy()
        normalized = [cfg.normalize() for cfg in configs]
        batch = ConfigurationBatch.from_configurations(
            normalized, assume_normalized=True
        )
        with _obs_span(
            "batch.kernel", instances=len(normalized), traces=False
        ):
            result = _run_kernel(batch, record=False)
        if _OBS.enabled:
            _registry.inc("batch.kernel_calls")
            _registry.inc("batch.instances", len(normalized))
        for error in result.errors:
            if error is not None:
                raise error
        return [
            {"feasible": feasible, "iterations": iterations, "rounds": None}
            for feasible, iterations in zip(
                result.feasible.tolist(), result.decided_at.tolist()
            )
        ]
    outcomes = batch_outcomes(configs, traces=True)
    from .election import elect_leader

    records: List[Dict] = []
    for out in outcomes:
        rounds: Optional[int] = None
        if out.feasible:
            rounds = elect_leader(out.config, trace=out.trace).rounds
        records.append(
            {
                "feasible": out.feasible,
                "iterations": out.iterations,
                "rounds": rounds,
            }
        )
    return records
