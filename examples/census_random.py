#!/usr/bin/env python
"""Feasibility census over random radio networks.

How often does wakeup-time asymmetry suffice to elect a leader? This
sweeps random connected G(n, p) graphs with uniform random tags and
reports the feasible fraction, mean classifier iterations, and mean
election time — a "results table" the theory paper itself never ran.

Run:  python examples/census_random.py
"""

from repro.analysis.census import census, group_by_n
from repro.engine import RandomGnpWorkload, sharded_census
from repro.graphs.generators import build, random_connected_gnp_edges
from repro.graphs.tags import uniform_random
from repro.reporting.tables import format_table

# --- feasibility vs network size (fixed span) ----------------------------
workload = RandomGnpWorkload(
    n_values=[4, 6, 8, 12, 16], span=2, p=0.3, samples=30, seed=2020
)
result = sharded_census(workload, group_by=group_by_n, measure_rounds=True).result
print(
    format_table(
        result.TABLE_HEADERS,
        result.as_table(),
        title="Feasibility vs n (span σ=2, p=0.3, 30 samples per size)",
    )
)
print()

# --- feasibility vs span (fixed size): more asymmetry, more feasible ------
def configs_for_span(span, samples=30, n=10, p=0.3, seed=77):
    for s in range(samples):
        base = seed + 1009 * s + 31 * span
        edges = random_connected_gnp_edges(n, p, base)
        yield build(edges, uniform_random(range(n), span, base + 1), n=n)


rows = []
for span in (0, 1, 2, 3, 5, 8):
    res = census(configs_for_span(span), group_by=lambda c: span)
    row = res.sorted_rows()[0]
    rows.append((span, row.total, row.feasible, f"{row.feasible_fraction:.2f}"))
print(
    format_table(
        ("span σ", "configs", "feasible", "fraction"),
        rows,
        title="Feasibility vs span (n=10, p=0.3): σ=0 is always infeasible,"
        " larger σ breaks more symmetry",
    )
)
assert rows[0][2] == 0  # σ = 0: simultaneous wakeup, never feasible (n>1)
