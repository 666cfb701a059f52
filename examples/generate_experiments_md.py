#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper claim vs measured, for E1–E18.

Every table in EXPERIMENTS.md is produced by this script — the document
is an artifact of the code, never hand-edited. Workloads are sized to
finish in a couple of minutes on a laptop; the pytest-benchmark files in
``benchmarks/`` time the same workloads with statistical rigor.

Run:  python examples/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from repro.analysis.automorphisms import has_fixed_node
from repro.analysis.extremal import (
    feasibility_probability,
    hardest_tags,
    max_iterations,
    min_feasible_span,
)
from repro.analysis.rounds import sweep
from repro.analysis.views import radio_vs_wired
from repro.baselines.bruteforce import simulation_feasible
from repro.baselines.round_robin import round_robin_algorithm, round_robin_slots
from repro.baselines.tree_split import tree_split_algorithm
from repro.baselines.universal_candidates import candidate_portfolio, defeat
from repro.baselines.willard import willard_algorithm
from repro.core.classifier import classifier_ops, classify, is_feasible
from repro.core.configuration import Configuration
from repro.core.election import elect_leader
from repro.core.fast_classifier import fast_classify
from repro.core.replay import replay_histories, replay_matches_simulation
from repro.core.trace import traces_equal
from repro.core.canonical import CanonicalProtocol
from repro.graphs.enumeration import enumerate_configurations
from repro.graphs.families import g_m, g_m_size, h_m, s_m
from repro.graphs.generators import (
    build,
    complete_edges,
    cycle_edges,
    path_edges,
    random_connected_gnp_edges,
    star_edges,
)
from repro.graphs.tags import one_early_riser, uniform_random
from repro.radio.simulator import simulate
from repro.reporting.markdown import (
    MarkdownDoc,
    md_checklist,
    md_kv,
    md_table,
)
from repro.variants.census import exhaustive_cross_model_census
from repro.variants.channels import BEEP, CD, NO_CD


def path_cfg(n):
    return Configuration(path_edges(n), one_early_riser(range(n)))


def seeded_cfg(seed, n, span, p=0.3):
    edges = random_connected_gnp_edges(n, p, seed)
    return build(edges, uniform_random(range(n), span, seed + 1), n=n)


# ----------------------------------------------------------------------
def e1(doc):
    rows = []
    all_agree = True
    for n, max_tag in ((1, 2), (2, 2), (3, 2), (4, 1)):
        total = agree = 0
        for cfg in enumerate_configurations(n, max_tag):
            total += 1
            agree += is_feasible(cfg) == simulation_feasible(cfg)
        all_agree &= agree == total
        rows.append((f"n={n}, tags 0..{max_tag}", total, agree))
    doc.section(
        "E1 — Theorem 3.17: Classifier decides feasibility",
        "**Paper claim:** Classifier outputs Yes iff the configuration is "
        "feasible. **Measured:** exhaustive agreement with simulation-based "
        "ground truth (run the canonical DRIP, check a unique history "
        "exists).",
        md_table(rows, ("population", "configurations", "agree")),
        md_checklist([("classifier == ground truth on every instance", all_agree)]),
    )


def e2(doc):
    # Easy instances (decide in one iteration) and hard ones (G_m needs
    # Θ(n) iterations) bracket the classifier's real cost range.
    easy = [12, 24, 48, 96]
    rows = [
        ("path + early riser", n, classifier_ops(path_cfg(n)), f"{classifier_ops(path_cfg(n)) / (n ** 3 * 2):.5f}")
        for n in easy
    ]
    hard_ms = [2, 4, 8, 16]
    for m in hard_ms:
        n = g_m_size(m)
        ops = classifier_ops(g_m(m))
        rows.append((f"G_{m} (Θ(n) iterations)", n, ops, f"{ops / (n ** 3 * 2):.5f}"))
    exp_easy = sweep("e", easy, lambda n: classifier_ops(path_cfg(int(n)))).growth_exponent()
    exp_hard = sweep(
        "h", [g_m_size(m) for m in hard_ms],
        lambda n: classifier_ops(g_m((int(n) - 1) // 4)),
    ).growth_exponent()
    doc.section(
        "E2 — Lemma 3.5: Classifier runs in O(n³Δ)",
        "**Paper claim:** worst-case time O(n³Δ). **Measured:** metered "
        "triple/label operations; easy instances decide in one iteration "
        "(ops ~ n), the G_m family forces Θ(n) iterations (ops ~ n³ on a "
        "Δ=2 graph).",
        md_table(rows, ("workload", "n", "metered ops", "ops / n³Δ")),
        md_kv(
            [
                ("growth exponent, easy paths", f"{exp_easy:.2f}"),
                ("growth exponent, G_m", f"{exp_hard:.2f}"),
                ("paper ceiling", 3),
            ]
        ),
        md_checklist(
            [
                ("easy-instance growth ≤ cubic", exp_easy <= 3.05),
                ("hard-instance growth ≤ cubic", exp_hard <= 3.05),
            ]
        ),
    )


def e3(doc):
    rows = []
    ok = True
    for m in (2, 4, 8, 16):
        r = elect_leader(g_m(m))
        ok &= r.elected and r.rounds >= m - 1 and r.within_bound()
        rows.append((m, g_m_size(m), r.rounds, m - 1, r.round_bound()))
    exp = sweep(
        "gm", [2, 4, 8, 16], lambda m: elect_leader(g_m(int(m))).rounds
    ).growth_exponent()
    doc.section(
        "E3 — Proposition 4.1: Ω(n) election on G_m (span 1)",
        "**Paper claim:** every dedicated algorithm on G_m needs Ω(n) "
        "rounds. **Measured:** canonical election rounds vs the m−1 floor "
        "and the O(n²σ) budget.",
        md_table(rows, ("m", "n", "rounds", "floor m−1", "O(n²σ) budget")),
        md_kv([("growth exponent in m (n ∝ m)", f"{exp:.2f}")]),
        md_checklist(
            [
                ("elected and ≥ floor and ≤ budget on every m", ok),
                (
                    "growth between the Ω(n) floor and O(n²σ) ceiling "
                    "(the canonical schedule adds a block per class per "
                    "phase, so it runs ~quadratically on G_m)",
                    0.9 <= exp <= 2.2,
                ),
            ]
        ),
    )


def e4(doc):
    rows = []
    ok = True
    for m in (1, 4, 16, 64):
        r = elect_leader(h_m(m))
        ok &= r.elected and r.rounds >= m and r.within_bound()
        rows.append((m, m + 1, r.rounds, m))
    exp = sweep(
        "hm", [1, 2, 4, 8, 16, 32, 64], lambda m: elect_leader(h_m(int(m))).rounds
    ).growth_exponent(tail=4)
    doc.section(
        "E4 — Lemma 4.2 / Proposition 4.3: Ω(σ) election on H_m (n = 4)",
        "**Paper claim:** every algorithm for H_m needs ≥ m rounds; hence "
        "Ω(σ) even at constant size. **Measured:** canonical election "
        "rounds at n = 4.",
        md_table(rows, ("m", "σ", "rounds", "floor m")),
        md_kv([("tail growth exponent in σ", f"{exp:.2f}")]),
        md_checklist(
            [
                ("elected, ≥ m, within O(n²σ) for every m", ok),
                ("linear-in-σ shape", 0.8 <= exp <= 1.2),
            ]
        ),
    )


def e5(doc):
    rows = []
    all_defeated = True
    for cand in candidate_portfolio():
        rep = defeat(cand, probe_m=64)
        all_defeated &= rep.defeated
        t = rep.first_tag0_transmission
        rows.append(
            (
                rep.candidate,
                t if t is not None else "—",
                f"H_{(t or 0) + 1}",
                "crash" if rep.crashed else len(rep.leaders),
                "yes" if rep.defeated else "NO",
            )
        )
    doc.section(
        "E5 — Proposition 4.4: no universal algorithm (even for n = 4)",
        "**Paper claim:** no single deterministic algorithm elects on all "
        "feasible 4-node configurations. **Measured:** for each candidate "
        "universal algorithm, the adversary finds its first-transmission "
        "round t and defeats it on H_{t+1}.",
        md_table(rows, ("candidate", "t", "killer config", "leaders", "defeated")),
        md_checklist([("every candidate defeated", all_defeated)]),
    )


def e6(doc):
    from repro.baselines.universal_candidates import (
        compare_executions,
        first_tag0_transmission,
    )

    rows = []
    ok = True
    for cand in candidate_portfolio():
        t = first_tag0_transmission(cand, probe_m=64)
        if t is None:
            continue
        per_node = compare_executions(h_m(t + 1), s_m(t + 1), cand)
        identical = all(per_node.values())
        ok &= identical
        rows.append((cand.name, t, f"H_{t+1} vs S_{t+1}", "yes" if identical else "NO"))
    doc.section(
        "E6 — Proposition 4.5: no distributed feasibility decision",
        "**Paper claim:** H_{t+1} (feasible) and S_{t+1} (infeasible) are "
        "indistinguishable to every node for any algorithm that first "
        "transmits at round t. **Measured:** per-node histories compared "
        "across both configurations.",
        md_table(rows, ("algorithm", "t", "pair", "all histories identical")),
        md_checklist([("indistinguishable for every probe", ok)]),
    )


def e7(doc):
    rows = []
    ok = True
    checked = 0
    for seed in range(6):
        cfg = seeded_cfg(seed, 16 + 4 * (seed % 3), 3)
        trace = classify(cfg)
        if not trace.feasible:
            continue
        r = elect_leader(cfg, trace=trace)
        checked += 1
        ok &= r.elected and r.within_bound()
        rows.append(
            (f"random seed {seed}", cfg.n, cfg.span, r.rounds, r.round_bound(), "yes" if r.elected else "NO")
        )
    # family rows where the schedule is genuinely long
    for name, cfg in (("G_8", g_m(8)), ("H_32", h_m(32))):
        r = elect_leader(cfg)
        checked += 1
        ok &= r.elected and r.within_bound()
        rows.append(
            (name, cfg.n, cfg.span, r.rounds, r.round_bound(), "yes" if r.elected else "NO")
        )
    doc.section(
        "E7 — Theorem 3.15: canonical DRIP elects within O(n²σ)",
        "**Paper claim:** every feasible configuration admits a dedicated "
        "O(n²σ)-round election. **Measured:** random feasible "
        "configurations, canonical protocol run distributedly.",
        md_table(rows, ("seed", "n", "σ", "rounds", "budget", "elected")),
        md_checklist(
            [(f"all {checked} feasible samples elected within budget", ok)]
        ),
    )


def e8(doc):
    rows = []
    identical = True
    for m in (8, 16, 32):
        cfg = g_m(m)
        t0 = time.perf_counter()
        a = classify(cfg, algorithm="reference")
        t_faithful = time.perf_counter() - t0
        t0 = time.perf_counter()
        b = fast_classify(cfg)
        t_fast = time.perf_counter() - t0
        identical &= traces_equal(a, b)
        rows.append(
            (
                f"G_{m} (n={cfg.n})",
                f"{t_faithful * 1e3:.2f}",
                f"{t_fast * 1e3:.2f}",
                f"{t_faithful / max(t_fast, 1e-9):.1f}×",
            )
        )
    doc.section(
        "E8 — Ablation: faithful Refine vs hash refinement",
        "**Claim:** the dict-based refinement replaces the paper's "
        "O(n²Δ)-per-iteration representative scan with "
        "O(nΔ log Δ)-per-iteration hashing while producing bit-identical "
        "traces (same partitions, class numbers and labels). **Measured:** "
        "identity asserted on every size; wall-clock compared. At these "
        "laptop scales label *construction* (shared by both variants) "
        "dominates, so the observed speedup is a modest constant — the "
        "asymptotic separation is in the refinement step only.",
        md_table(rows, ("workload", "faithful ms", "fast ms", "speedup")),
        md_checklist([("bit-identical traces on all sizes", identical)]),
    )


def e9(doc):
    rows = []
    for n in (8, 32, 128):
        cfg = build(complete_edges(n), n=n)
        ts = simulate(cfg, tree_split_algorithm(n).factory).max_done_local()
        wl = simulate(cfg, willard_algorithm(seed=5).factory).max_done_local()
        rows.append((n, ts, f"{2 * math.log2(n):.0f}", wl))
    doc.section(
        "E9 — Related-work contrast: labeled/randomized single-hop election",
        "**Paper context (§1.3):** with collision detection, deterministic "
        "labeled election takes O(log n) (tree splitting) and randomized "
        "O(log log n) expected (Willard). **Measured:** slots to elect on "
        "complete graphs.",
        md_table(rows, ("n", "tree-split slots", "~2·log₂n", "willard slots (seed 5)")),
    )


def e10(doc):
    rows = []
    ok = True
    for name, cfg in (
        ("H_3", h_m(3)),
        ("S_3", s_m(3)),
        ("G_2", g_m(2)),
        ("random n=12", seeded_cfg(3, 12, 2)),
    ):
        chain = classify(cfg).class_count_chain()
        strict = all(a < b for a, b in zip(chain[:-1], chain[1:]))
        capped = len(chain) - 1 <= math.ceil(cfg.n / 2)
        ok &= capped
        rows.append((name, " → ".join(map(str, chain)), "yes" if strict else "stops", capped))
    doc.section(
        "E10 — Observation 3.2 / Corollary 3.3: refinement monotonicity",
        "**Paper claim:** class counts never decrease, separation is "
        "permanent, and Classifier needs ≤ ⌈n/2⌉ iterations. **Measured:** "
        "class-count chains.",
        md_table(rows, ("configuration", "class counts", "strictly grows", "≤ ⌈n/2⌉ iters")),
        md_checklist([("iteration cap respected everywhere", ok)]),
    )


def e11(doc):
    census = exhaustive_cross_model_census(4, 1)
    rows = [
        (c.name, census.count(c), census.total, f"{census.count(c)/census.total:.3f}")
        for c in (CD, NO_CD, BEEP)
    ]
    doc.section(
        "E11 — Channel ablation: collision detection / no-CD / beeping",
        "**Question:** how load-bearing is the paper's collision-detection "
        "assumption? **Measured:** canonical-family feasibility under three "
        "channels, all 90 connected 4-node configurations with tags 0..1.",
        md_table(rows, ("channel", "feasible", "total", "fraction")),
        md_checklist(
            [
                ("no-cd ⊆ cd (CD only adds information)", census.inclusion_holds(NO_CD, CD)),
                ("beep ⊆ cd", census.inclusion_holds(BEEP, CD)),
                (
                    "no-cd and beep incomparable (witnesses both ways)",
                    bool(census.witnesses(NO_CD, BEEP, 1))
                    and bool(census.witnesses(BEEP, NO_CD, 1)),
                ),
            ]
        ),
    )


def e12(doc):
    rows = []
    exact = True
    for name, cfg in (
        ("H_16", h_m(16)),
        ("G_4", g_m(4)),
        ("random n=24", seeded_cfg(11, 24, 3)),
    ):
        trace = classify(cfg)
        protocol = CanonicalProtocol.from_trace(trace)
        network = trace.config
        t0 = time.perf_counter()
        simulate(network, protocol.factory, max_rounds=protocol.round_budget(network.span))
        t_sim = time.perf_counter() - t0
        t0 = time.perf_counter()
        replay_histories(trace)
        t_rep = time.perf_counter() - t0
        exact &= replay_matches_simulation(cfg)
        rows.append(
            (name, f"{t_sim*1e3:.2f}", f"{t_rep*1e3:.2f}", f"{t_sim/max(t_rep,1e-9):.1f}×")
        )
    doc.section(
        "E12 — Ablation: closed-form replay vs round-by-round simulation",
        "**Claim (Lemmas 3.7/3.8):** the canonical execution is fully "
        "predicted by the classifier trace. **Measured:** byte-identical "
        "histories, then wall-clock for both paths.",
        md_table(rows, ("configuration", "simulate ms", "replay ms", "speedup")),
        md_checklist([("replay byte-identical to simulation", exact)]),
    )


def e13(doc):
    shape_rows = []
    for name, edges in (
        ("path", path_edges(5)),
        ("cycle", cycle_edges(5)),
        ("star", star_edges(5)),
        ("complete", complete_edges(5)),
    ):
        r = min_feasible_span(edges, 5, max_span=2)
        shape_rows.append((name, r.span, "exhaustive" if r.exhaustive else "sampled"))
    ext = max_iterations(5, 1)
    hard = hardest_tags(path_edges(6), 6, 2, restarts=3, steps=30, seed=13)
    doc.section(
        "E13 — Extremal structure: span thresholds and hardest instances",
        "**Question:** how much wakeup asymmetry does a graph need, and "
        "how hard can instances be? **Measured:** minimal feasible span "
        "per shape (n = 5), classifier-iteration maximum (n = 5), and "
        "adversarial tag search (path, n = 6, span 2).",
        md_table(shape_rows, ("shape", "min feasible span", "search")),
        md_kv(
            [
                ("max classifier iterations at n=5, tags 0..1", f"{ext.iterations} of ⌈n/2⌉ = {ext.ceiling}"),
                ("hardest-tags election rounds (path n=6, σ≤2)", hard.objective),
                ("hardest tags found", dict(sorted(hard.config.tags.items()))),
            ]
        ),
        md_checklist([("span 0 infeasible for every shape (n ≥ 2)", all(r[1] >= 1 for r in shape_rows))]),
    )


def e14(doc):
    census = radio_vs_wired(enumerate_configurations(4, 1))
    rows = census.as_table()
    doc.section(
        "E14 — Radio vs wired anonymous networks (intro contrast)",
        "**Paper claim (§1.1):** anonymous radio is the most adverse "
        "scenario; wired anonymous networks elect from topology alone. "
        "**Measured:** Classifier vs unique-view feasibility, all 4-node "
        "configurations.",
        md_table(rows, ("kind", "count", "total")),
        md_checklist(
            [
                ("dominance: radio-feasible ⊆ wired-feasible", census.dominance_holds()),
                ("strict: wired-only witnesses exist", census.count("wired-only") > 0),
            ]
        ),
    )


def e15(doc):
    points = feasibility_probability(8, [0, 1, 2, 3, 4], samples=60, seed=17)
    rows = [(p.span, p.samples, p.feasible, f"{p.fraction:.2f}") for p in points]
    doc.section(
        "E15 — Feasibility probability vs span (time as symmetry breaker)",
        "**Question:** quantitatively, how quickly does wakeup-time "
        "slack unlock election? **Measured:** random connected G(8, 0.3), "
        "uniform tags 0..σ.",
        md_table(rows, ("span σ", "samples", "feasible", "fraction")),
        md_checklist(
            [
                ("σ = 0 exactly 0 (paper's opening observation)", points[0].fraction == 0.0),
                ("monotone-ish rise to ~1", points[-1].fraction > 0.9),
            ]
        ),
    )


def e16(doc):
    rows = []
    for n in (8, 32, 128):
        cfg = build(complete_edges(n), n=n)
        rr_algo = round_robin_algorithm(n)
        rr_exec = simulate(cfg, rr_algo.factory)
        ts = simulate(cfg, tree_split_algorithm(n).factory).max_done_local()
        anon = is_feasible(cfg)
        rows.append(
            (n, rr_exec.max_done_local(), ts, "no" if not anon else "yes")
        )
    doc.section(
        "E16 — What labels buy: round robin vs tree split vs anonymity",
        "**Paper context (§1.3):** labels + no collision detection → Θ(N) "
        "(round robin); labels + CD → Θ(log n) (tree split); anonymous + "
        "equal tags → infeasible at any size. **Measured:** slots on "
        "complete graphs; anonymous column uses all-zero tags.",
        md_table(
            rows,
            ("n", "round-robin slots (Θ(n))", "tree-split slots (Θ(log n))", "anonymous feasible"),
        ),
        md_checklist([("round robin matches N+1 slots exactly",
                       all(r[1] == round_robin_slots(r[0]) for r in rows))]),
    )


def e17(doc):
    from repro.wired import wired_elect, wired_election_agrees_with_views

    agree = all(
        wired_election_agrees_with_views(cfg)
        for cfg in enumerate_configurations(4, 1)
    )
    gap_rows = []
    for m in (2, 4, 8, 16):
        cfg = g_m(m)
        radio = elect_leader(cfg).rounds
        wired = wired_elect(cfg).rounds
        gap_rows.append(
            (m, cfg.n, radio, wired, f"{radio / (cfg.n + cfg.span + 1):.1f}")
        )
    hm_gaps = [elect_leader(h_m(m)).rounds / (4 + m + 1) for m in (4, 16, 64)]
    doc.section(
        "E17 — Distributed wired election & the O(n+σ) open problem",
        "**Substrate check:** the distributed view-exchange election "
        "(reliable port-numbered message passing) reproduces the "
        "centralized refinement verdict on every small configuration, and "
        "elects in exactly n rounds. **Open problem (paper conclusion):** "
        "does an O(n+σ) dedicated radio election exist? The measured gap "
        "rounds/(n+σ) of the canonical algorithm grows on G_m (headroom "
        "in the n dimension) but stays bounded on H_m (already "
        "near-optimal in σ).",
        md_table(
            gap_rows,
            ("m", "n", "radio rounds (canonical)", "wired rounds", "radio gap to n+σ"),
        ),
        md_kv(
            [
                (
                    "H_m gap rounds/(n+σ) at m = 4, 16, 64",
                    ", ".join(f"{g:.2f}" for g in hm_gaps),
                )
            ]
        ),
        md_checklist(
            [
                ("distributed wired == centralized refinement (90/90)", agree),
                ("G_m gap grows (open problem headroom)",
                 gap_rows[-1][2] / (gap_rows[-1][1] + 2) > gap_rows[0][2] / (gap_rows[0][1] + 2)),
                ("H_m gap bounded (< 4×)", max(hm_gaps) < 4.0),
            ]
        ),
    )


def e18(doc):
    from repro.core.canonical import CanonicalMatchError, build_canonical_data
    from repro.radio.faults import jam_nothing, jam_pairs, jammed_simulate
    from repro.radio.model import SILENCE

    trace = classify(g_m(2))
    protocol = CanonicalProtocol.from_trace(trace)
    network = trace.config
    budget = protocol.round_budget(network.span)
    ref = simulate(network, protocol.factory, max_rounds=budget)
    expected = ref.decide_leaders(protocol.decision)

    noop = jammed_simulate(
        network, protocol.factory, jammer=jam_nothing(), max_rounds=budget
    )
    noop_identical = noop.histories == ref.histories

    data = build_canonical_data(trace)
    sigma = data.sigma
    lo = data.phase_ends[-1] - sigma + 1
    trailing = jam_pairs(
        [
            (g, v)
            for v in network.nodes
            for g in range(
                lo + network.tag(v), data.phase_ends[-1] + network.tag(v) + 1
            )
        ]
    )
    trail_exec = jammed_simulate(
        network, protocol.factory, jammer=trailing, max_rounds=budget
    )
    trailing_ok = trail_exec.decide_leaders(protocol.decision) == expected

    leader = trace.leader
    block_region_end = len(data.lists[0]) * data.block_width
    local = next(
        i
        for i in range(1, block_region_end + 1)
        if ref.histories[leader][i] is SILENCE
    )
    try:
        derailed_exec = jammed_simulate(
            network,
            protocol.factory,
            jammer=jam_pairs([(ref.wake_rounds[leader] + local, leader)]),
            max_rounds=budget,
        )
        derail_outcome = derailed_exec.decide_leaders(protocol.decision)
        derailed = derail_outcome != expected
        derail_desc = str(derail_outcome or "none")
    except CanonicalMatchError:
        derailed = True
        derail_desc = "protocol-detected corruption"

    rows = [
        ("no-op jammer", "identical execution" if noop_identical else "DIFFERS"),
        ("jam all trailing-σ listen rounds", "leader unchanged" if trailing_ok else "DERAILED"),
        ("jam 1 in-block round of the leader", f"derailed → {derail_desc}"),
    ]
    doc.section(
        "E18 — Fault injection: robustness boundary under jamming",
        "**Question:** the model is failure-free — how brittle are its "
        "protocols? **Measured:** a jamming adversary against the "
        "canonical DRIP on G_2. Jamming provably-silent rounds (the "
        "trailing σ listen rounds of Lemma 3.7's schedule) is harmless; "
        "one corrupted in-block round of the leader is fatal — the "
        "history encoding has zero redundancy.",
        md_table(rows, ("jam schedule", "outcome")),
        md_checklist(
            [
                ("no-op jammer reproduces the reference execution", noop_identical),
                ("trailing-σ jamming harmless", trailing_ok),
                ("single in-block jam derails", derailed),
            ]
        ),
    )


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    t0 = time.perf_counter()
    doc = MarkdownDoc(
        "EXPERIMENTS — paper vs measured",
        "Reproduction record for *Deterministic Leader Election in "
        "Anonymous Radio Networks* (Miller, Pelc, Yadav; SPAA 2020, "
        "arXiv:2002.02641). The paper is a theory paper — its evaluation "
        "is a set of theorems, so each experiment asserts the *shape* of "
        "a claim (who wins, growth rate, impossibility) rather than "
        "testbed wall-clock. Absolute timings below are from the machine "
        "that generated this file.\n\n"
        "**Generated by** `python examples/generate_experiments_md.py` — "
        "do not edit by hand. The pytest-benchmark files in `benchmarks/` "
        "re-run every experiment with statistical timing; see "
        "`docs/experiments.md` for the experiment ↔ module ↔ claim index.",
    )
    for fn in (e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18):
        start = time.perf_counter()
        fn(doc)
        print(f"{fn.__name__}: {time.perf_counter() - start:.1f}s", flush=True)
    doc.add(
        f"---\n\n*Total generation time: {time.perf_counter() - t0:.1f}s.*"
    )
    doc.write(out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
