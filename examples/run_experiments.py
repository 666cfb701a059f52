#!/usr/bin/env python
"""Print the measured tables for experiments E1–E10.

For the full generated document covering E1–E18 (including the channel
ablations, wired contrast, extremal and fault-injection experiments) run
``python examples/generate_experiments_md.py`` instead — it writes
EXPERIMENTS.md.

This is the paper-facing harness: each section prints the measured
numbers next to the paper's claim. The pytest-benchmark files in
``benchmarks/`` time the same workloads; this script focuses on the
*values* (rounds, decisions, agreements) rather than wall-clock.

Run:  python examples/run_experiments.py
"""

from __future__ import annotations

import math
import time

from repro.analysis.automorphisms import has_fixed_node
from repro.analysis.rounds import sweep
from repro.baselines.bruteforce import simulation_feasible
from repro.baselines.tree_split import tree_split_algorithm, tree_split_slot_bound
from repro.baselines.universal_candidates import (
    candidate_portfolio,
    compare_executions,
    defeat,
    first_tag0_transmission,
)
from repro.baselines.willard import willard_algorithm
from repro.core.classifier import classifier_ops, classify, is_feasible
from repro.core.configuration import Configuration
from repro.core.election import elect_leader
from repro.core.fast_classifier import fast_classify, traces_equal
from repro.core.partition import partition_key
from repro.graphs.enumeration import enumerate_configurations
from repro.graphs.families import g_m, g_m_size, h_m, s_m
from repro.graphs.generators import complete_configuration, path_edges
from repro.graphs.tags import one_early_riser
from repro.radio.simulator import simulate
from repro.reporting.tables import format_table

from benchmarks_helpers import feasible_batch  # local helper (below)


def banner(eid: str, claim: str) -> None:
    print()
    print("=" * 72)
    print(f"{eid}: {claim}")
    print("=" * 72)


def e1():
    banner("E1", "Theorem 3.17 — Classifier == simulation ground truth")
    rows = []
    for n, max_tag in ((1, 2), (2, 2), (3, 2), (4, 1)):
        total = agree = fixed_ok = 0
        for cfg in enumerate_configurations(n, max_tag):
            total += 1
            cls = is_feasible(cfg)
            agree += cls == simulation_feasible(cfg)
            if not cls or has_fixed_node(cfg.normalize()):
                fixed_ok += 1
        rows.append((f"n={n}, tags<=+{max_tag}", total, agree, fixed_ok))
    print(
        format_table(
            ("population", "configs", "classifier==simulation", "necessary-cond ok"),
            rows,
            title="exhaustive agreement (expected: all three columns equal)",
        )
    )


def e2():
    banner("E2", "Lemma 3.5 — Classifier time O(n³Δ)")
    ns = [12, 24, 48, 96, 192]

    def path_cfg(n):
        return Configuration(path_edges(n), one_early_riser(range(n)))

    rows = []
    for n in ns:
        ops = classifier_ops(path_cfg(n))
        t0 = time.perf_counter()
        classify(path_cfg(n))
        secs = time.perf_counter() - t0
        rows.append((n, ops, f"{ops / (n**3 * 2):.4f}", f"{secs * 1000:.1f}"))
    result = sweep("ops", ns, lambda n: classifier_ops(path_cfg(int(n))))
    print(
        format_table(
            ("n (path, Δ=2)", "metered ops", "ops / n³Δ", "ms"),
            rows,
            title=f"growth exponent (log-log slope): "
            f"{result.growth_exponent():.2f} — paper bound: <= 3",
        )
    )


def e3():
    banner("E3", "Proposition 4.1 — Ω(n) election on G_m (σ=1)")
    rows = []
    for m in (2, 4, 8, 16, 24):
        r = elect_leader(g_m(m))
        n = g_m_size(m)
        rows.append((m, n, r.rounds, m - 1, r.round_bound(), "yes" if r.elected else "NO"))
    print(
        format_table(
            ("m", "n", "election rounds", "Ω floor m-1", "O(n²σ) budget", "elected"),
            rows,
        )
    )


def e4():
    banner("E4", "Lemma 4.2 / Prop 4.3 — Ω(σ) election on H_m (n=4)")
    rows = []
    for m in (1, 2, 4, 8, 16, 32, 64):
        r = elect_leader(h_m(m))
        rows.append((m, m + 1, r.rounds, m, "yes" if r.elected else "NO"))
    print(
        format_table(
            ("m", "σ", "election rounds", "Ω floor m", "elected"), rows
        )
    )


def e5():
    banner("E5", "Proposition 4.4 — no universal algorithm (4-node configs)")
    rows = []
    for cand in candidate_portfolio():
        rep = defeat(cand, probe_m=48)
        t = rep.first_tag0_transmission
        rows.append(
            (
                cand.name,
                t if t is not None else "-",
                f"H_{(t or 0) + 1}",
                "crash" if rep.crashed else len(rep.leaders),
                "defeated" if rep.defeated else "SURVIVED",
            )
        )
    print(format_table(("candidate", "t", "killer", "#leaders", "outcome"), rows))


def e6():
    banner("E6", "Proposition 4.5 — H_{t+1} / S_{t+1} indistinguishable")
    rows = []
    for cand in candidate_portfolio():
        t = first_tag0_transmission(cand, probe_m=48)
        if t is None:
            continue
        per_node = compare_executions(h_m(t + 1), s_m(t + 1), cand)
        rows.append(
            (
                cand.name,
                t,
                "all identical" if all(per_node.values()) else "DIFFER",
                classify(h_m(t + 1)).decision,
                classify(s_m(t + 1)).decision,
            )
        )
    print(
        format_table(
            ("algorithm", "t", "node histories", "H feasible", "S feasible"),
            rows,
        )
    )


def e7():
    banner("E7", "Theorem 3.15 — O(n²σ) + Lemma 3.9 on random feasible configs")
    rows = []
    for n, span in ((6, 1), (10, 2), (16, 3), (24, 4), (36, 5)):
        cfgs = feasible_batch(3, seed=31 * n + span, n=n, span=span)
        worst = 0.0
        lemma_ok = True
        rounds = []
        for cfg in cfgs:
            r = elect_leader(cfg)
            rounds.append(r.rounds)
            worst = max(worst, r.rounds / r.round_bound())
            ends = r.protocol.data.phase_ends
            for j in range(1, r.trace.num_iterations + 2):
                if j - 1 >= len(ends):
                    break
                sim = tuple(tuple(g) for g in r.execution.prefix_partition(ends[j - 1]))
                lemma_ok &= sim == partition_key(r.trace.classes_at(j))
        rows.append(
            (
                n,
                span,
                f"{sum(rounds) / len(rounds):.0f}",
                f"{worst:.3f}",
                "ok" if lemma_ok else "VIOLATED",
            )
        )
    print(
        format_table(
            ("n", "σ", "mean rounds", "worst rounds/budget", "Lemma 3.9"), rows
        )
    )


def e8():
    banner("E8", "Ablation — faithful vs hash-based classifier")
    rows = []
    for n in (32, 64, 128, 256):
        cfg = Configuration(path_edges(n), one_early_riser(range(n)))
        t0 = time.perf_counter()
        a = classify(cfg, algorithm="reference")
        t_slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        b = fast_classify(cfg)
        t_fast = time.perf_counter() - t0
        assert traces_equal(a, b)
        rows.append(
            (
                n,
                f"{t_slow * 1000:.1f}",
                f"{t_fast * 1000:.1f}",
                f"{t_slow / t_fast:.1f}x",
                "identical",
            )
        )
    print(
        format_table(
            ("n", "faithful ms", "hash ms", "speedup", "outputs"), rows
        )
    )


def e9():
    banner("E9", "Section 1.3 contrast — labeled Θ(log n) vs randomized")
    rows = []
    for n in (8, 32, 128, 256):
        cfg = complete_configuration([0] * n)
        algo = tree_split_algorithm(n)
        ex = simulate(cfg, algo.factory, max_rounds=500)
        det = ex.max_done_local()
        samples = []
        for seed in range(10):
            walgo = willard_algorithm(seed=seed)
            wex = simulate(cfg, walgo.factory, max_rounds=100_000)
            samples.append(wex.max_done_local())
        rows.append(
            (
                n,
                det,
                tree_split_slot_bound(n),
                f"{sum(samples) / len(samples):.1f}",
                f"{math.log2(math.log2(n)):.1f}",
            )
        )
    print(
        format_table(
            ("n", "tree-split slots", "Θ(log n) bound", "willard mean", "log₂log₂n"),
            rows,
        )
    )


def e10():
    banner("E10", "Obs 3.2 / Cor 3.3 — refinement chains")
    rows = []
    for name, cfg in (
        ("G_6", g_m(6)),
        ("H_8", h_m(8)),
        ("S_4", s_m(4)),
        ("path-16", Configuration(path_edges(16), one_early_riser(range(16)))),
    ):
        trace = classify(cfg)
        chain = trace.class_count_chain()
        rows.append(
            (
                name,
                "->".join(map(str, chain)),
                trace.num_iterations,
                math.ceil(cfg.n / 2),
                trace.decision,
            )
        )
    print(
        format_table(
            ("config", "class-count chain", "iters", "⌈n/2⌉ cap", "decision"),
            rows,
        )
    )


if __name__ == "__main__":
    t0 = time.perf_counter()
    for fn in (e1, e2, e3, e4, e5, e6, e7, e8, e9, e10):
        fn()
    print()
    print(f"all experiments completed in {time.perf_counter() - t0:.1f}s")
