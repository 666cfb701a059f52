"""Closed-form replay of canonical-DRIP executions.

The round-by-round simulator (:mod:`repro.radio.simulator`) executes the
canonical DRIP in O(global rounds × n) work — and canonical executions
are Θ(n²σ) rounds long, almost all of them silent. But the execution of
``D_G`` is *fully determined* by the classifier trace: Lemma 3.8 says node
``v`` transmits in phase ``P_j`` exactly once, in the (σ+1)-th round of
block ``vCLASS,j``, and Lemma 3.7/Proposition 2.1 place each neighbour
``w``'s transmission at ``v``'s local round

    r_{j-1} + (wCLASS,j − 1)(2σ+1) + (σ+1) + (t_w − t_v).

So every node's complete terminal history can be computed directly —
O(phases × Σ_v deg(v)) work, independent of σ except through the round
*indices* — and the sparse :class:`~repro.radio.history.History` storage
makes the result byte-identical to what the simulator produces.

This module implements that replay twice: a plain-dict reference and a
numpy-vectorized path that batches the per-phase event computation over
all directed edges at once. Both are cross-validated against the real
simulator in the test suite, and the E12 benchmark measures the speedup
(the point of the exercise: the theory of Section 3.3 is sharp enough to
predict the entire execution).
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:  # without numpy, vectorized replays take the plain-dict path
    import numpy as np
except ImportError:  # pragma: no cover - exercised with numpy blocked
    np = None

from ..radio.events import SPONTANEOUS, ExecutionResult
from ..radio.history import History
from ..radio.model import COLLISION, Message
from .canonical import CANONICAL_MESSAGE, CanonicalData, build_canonical_data
from .classifier import classify
from .configuration import Configuration
from .trace import ClassifierTrace


def replay_histories(
    trace: ClassifierTrace,
    *,
    vectorized: bool = True,
) -> Dict[object, History]:
    """Terminal canonical-DRIP history of every node, without simulating.

    ``trace`` must be a completed classifier trace; the histories returned
    are exactly those :func:`repro.radio.simulator.simulate` would produce
    for the canonical protocol of ``trace`` (length ``r_P + 2``: rounds
    ``0 .. done_v`` inclusive, ``done_v = r_P + 1``).
    """
    data = build_canonical_data(trace)
    config = trace.config
    if vectorized and np is not None and config.num_edges > 0:
        events = _phase_events_numpy(trace, data, config)
    else:
        events = _phase_events_python(trace, data, config)

    histories: Dict[object, History] = {}
    length = data.done_round + 1  # entries 0 .. r_P + 1
    for v in config.nodes:
        h = History()
        h._events = events.get(v, {})
        h._length = length
        histories[v] = h
    return histories


def replay_execution(trace: ClassifierTrace) -> ExecutionResult:
    """Package the replay as an :class:`ExecutionResult` look-alike.

    Canonical executions are patient (Lemma 3.6), so every node wakes
    spontaneously in its tag round and terminates in local round
    ``r_P + 1``; the trace field is None (no per-round records exist —
    nothing was simulated).
    """
    config = trace.config
    data = build_canonical_data(trace)
    histories = replay_histories(trace)
    done = data.done_round
    wake_rounds = {v: config.tag(v) for v in config.nodes}
    max_tag = max(wake_rounds.values())
    return ExecutionResult(
        histories=histories,
        wake_rounds=wake_rounds,
        wake_kinds={v: SPONTANEOUS for v in config.nodes},
        done_local={v: done for v in config.nodes},
        rounds_elapsed=max_tag + done + 1,
        trace=None,
    )


def replay_elect(config: Configuration, trace: Optional[ClassifierTrace] = None):
    """Leaders under ``f_G`` computed via replay (no simulation).

    Returns ``(leaders, histories)``; for feasible configurations the
    leader list has exactly one element (Theorem 3.15).
    """
    from .canonical import CanonicalProtocol

    if trace is None:
        trace = classify(config)
    protocol = CanonicalProtocol.from_trace(trace)
    histories = replay_histories(trace)
    leaders = [
        v for v in sorted(histories) if protocol.decision(histories[v]) == 1
    ]
    return leaders, histories


# ----------------------------------------------------------------------
# event computation
# ----------------------------------------------------------------------
def _phase_events_python(
    trace: ClassifierTrace, data: CanonicalData, config: Configuration
) -> Dict[object, Dict[int, object]]:
    """Reference implementation: plain dicts, one phase at a time."""
    sigma = data.sigma
    width = data.block_width
    tags = {v: config.tag(v) for v in config.nodes}
    events: Dict[object, Dict[int, object]] = {v: {} for v in config.nodes}

    for j in range(1, data.num_phases + 1):
        classes = trace.classes_at(j)
        base = data.phase_ends[j - 1]
        # v's own transmission round this phase (its entry stays silent).
        own_round = {
            v: base + (classes[v] - 1) * width + sigma + 1 for v in config.nodes
        }
        for v in config.nodes:
            counts: Dict[int, int] = {}
            tv = tags[v]
            for w in config.neighbors(v):
                t = base + (classes[w] - 1) * width + sigma + 1 + tags[w] - tv
                counts[t] = counts.get(t, 0) + 1
            mine = own_round[v]
            for t, k in counts.items():
                if t == mine:
                    continue  # v transmits in this round; hears nothing
                events[v][t] = (
                    Message(CANONICAL_MESSAGE) if k == 1 else COLLISION
                )
    return events


def _phase_events_numpy(
    trace: ClassifierTrace, data: CanonicalData, config: Configuration
) -> Dict[object, Dict[int, object]]:
    """Vectorized implementation: all directed edges of a phase at once.

    Builds index arrays once (listener index, transmitter index, tag
    offset per directed edge), then per phase computes every event round
    with two array operations and counts duplicates via ``np.unique``.
    """
    nodes = list(config.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)

    listener: List[int] = []
    speaker: List[int] = []
    for v in nodes:
        iv = index[v]
        for w in config.neighbors(v):
            listener.append(iv)
            speaker.append(index[w])
    lst = np.asarray(listener, dtype=np.int64)
    spk = np.asarray(speaker, dtype=np.int64)
    tag_arr = np.asarray([config.tag(v) for v in nodes], dtype=np.int64)
    offset = tag_arr[spk] - tag_arr[lst]  # t_w − t_v per directed edge

    sigma = data.sigma
    width = data.block_width
    events: Dict[object, Dict[int, object]] = {v: {} for v in nodes}
    message = Message(CANONICAL_MESSAGE)

    for j in range(1, data.num_phases + 1):
        classes = trace.classes_at(j)
        cls_arr = np.asarray([classes[v] for v in nodes], dtype=np.int64)
        base = data.phase_ends[j - 1]
        # Local round (at the listener) of each directed-edge transmission.
        t = base + (cls_arr[spk] - 1) * width + sigma + 1 + offset
        own = base + (cls_arr - 1) * width + sigma + 1  # per-node transmit round
        heard = t != own[lst]  # drop rounds in which the listener transmits
        if not heard.any():
            continue
        # Count transmissions per (listener, round) pair.
        key = lst[heard] * np.int64(
            data.done_round + 2 * sigma + 2
        ) + t[heard]
        uniq, counts = np.unique(key, return_counts=True)
        mod = np.int64(data.done_round + 2 * sigma + 2)
        for k, c in zip(uniq.tolist(), counts.tolist()):
            vi, rnd = divmod(k, int(mod))
            events[nodes[vi]][rnd] = message if c == 1 else COLLISION
    return events


# ----------------------------------------------------------------------
# cross-validation helper
# ----------------------------------------------------------------------
def replay_matches_simulation(
    config: Configuration, backend: str = "reference"
) -> bool:
    """True iff the replay agrees with the simulator.

    Compares terminal histories node-for-node; used by tests and the E12
    ablation as a hard correctness gate before timing anything. The
    ``backend`` knob selects which executor to validate against — the
    closed-form replay is an *independent* prediction of the execution,
    so it triangulates both backends against the theory.
    """
    from ..radio.simulator import simulate
    from .canonical import CanonicalProtocol

    trace = classify(config)
    protocol = CanonicalProtocol.from_trace(trace)
    network = trace.config
    execution = simulate(
        network,
        protocol.factory,
        max_rounds=protocol.round_budget(network.span),
        backend=backend,
    )
    replayed = replay_histories(trace)
    return all(
        replayed[v] == execution.histories[v] for v in network.nodes
    )
