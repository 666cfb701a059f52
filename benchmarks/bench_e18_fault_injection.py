"""E18 — Fault injection: the jam layer's overhead.

E18's claims (a no-op jammer reproduces the reference execution,
trailing-σ jamming is harmless, one in-block jam of the leader derails)
are checks of the experiment registry, gated by
``bench_paper_experiments.py``. This module keeps the overhead gate:
the jam abstraction's cost is recorded to ``BENCH_E18.json``
(:mod:`repro.reporting.bench`, like E21–E27): a no-op jammer run is
timed against the plain simulator on the same election, with
``speedup = plain / jammed`` gated against ``floor = 1/2`` (the fault
layer may at most double the per-round cost). The artifact is written
before the floor is asserted, so the honest number survives a failure.
"""

import time

from repro.core.canonical import CanonicalProtocol
from repro.core.classifier import classify
from repro.graphs.families import h_m
from repro.radio.faults import jam_nothing, jammed_simulate
from repro.radio.simulator import simulate
from repro.reporting.bench import BenchResult, write_bench_result

#: The fault layer may at most double the per-round simulation cost.
OVERHEAD_CEILING = 2.0


def setup(cfg):
    trace = classify(cfg)
    protocol = CanonicalProtocol.from_trace(trace)
    network = trace.config
    budget = protocol.round_budget(network.span)
    return trace, protocol, network, budget


def test_noop_jam_overhead_recorded():
    """Time the jam layer against the plain simulator and write the
    measurement to ``BENCH_E18.json`` before gating the ceiling."""
    trace, protocol, network, budget = setup(h_m(8))
    reps = 5

    def best_of(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_plain = best_of(
        lambda: simulate(network, protocol.factory, max_rounds=budget)
    )
    t_jammed = best_of(
        lambda: jammed_simulate(
            network, protocol.factory, jammer=jam_nothing(), max_rounds=budget
        )
    )
    speedup = t_plain / t_jammed
    floor = round(1.0 / OVERHEAD_CEILING, 4)
    write_bench_result(
        BenchResult(
            experiment="E18",
            workload={
                "family": "h_m(8)",
                "n": network.n,
                "round_budget": budget,
                "jammer": "jam_nothing",
                "reps": reps,
            },
            timings_s={"plain": t_plain, "jammed_noop": t_jammed},
            speedup=speedup,
            floor=floor,
            passed=speedup >= floor,
        )
    )
    assert speedup >= floor, (
        f"no-op jammed run {t_jammed:.4f}s vs plain {t_plain:.4f}s — "
        f"the fault layer costs more than {OVERHEAD_CEILING}x"
    )
