"""E23 — Compiled classifier core: equality gate + classification scaling.

The acceptance gates of the ``repro.core.compiled`` subsystem:

1. **Bit-for-bit trace equality** — on an exhaustive small-n sweep
   (every connected shape × every tag vector), on the paper families
   and on random configurations, the classifier implementations behind
   the ``algorithm`` knob — ``reference`` (faithful O(n³Δ)),
   ``compiled`` (indexed, interned, split-driven incremental) and, with
   numpy, the ``batch`` kernel — produce the *identical*
   :class:`~repro.core.trace.ClassifierTrace`: same labels, same class
   numbering, same representatives, same decision, leader and
   iteration count.
2. **≥ 5× classification speedup** — on the adversarial ``G_m`` family
   (the paper's Ω(n) lower-bound instances, where the classifier needs
   Θ(n) refinement iterations), the compiled core beats the reference
   by at least ``SPEEDUP_FLOOR`` in wall time. The measurement is also
   written as a machine-readable ``BENCH_E23.json`` artifact
   (:mod:`repro.reporting.bench`), pass or fail.
3. **Auto default** — ``classify`` with the default knob returns the
   compiled core's trace, so every caller in the repo (decide, census,
   engine, service, CLI) is on the fast path.
"""

import time

import pytest

from repro.core.batch import HAVE_NUMPY
from repro.core.classifier import ALGORITHM_NAMES, classify, reference_classify
from repro.core.compiled import compiled_classify
from repro.core.trace import traces_equal
from repro.graphs.enumeration import enumerate_configurations
from repro.graphs.families import g_m, h_m, s_m
from repro.reporting.bench import BenchResult, write_bench_result

from conftest import random_config_batch

#: ISSUE acceptance threshold: compiled vs reference classification.
SPEEDUP_FLOOR = 5.0

#: Timed workload: the lower-bound family at n = 161 — Θ(n) refinement
#: iterations, the classifier's worst case in iteration count.
TIMED_M = 40


# ----------------------------------------------------------------------
# gate 1: bit-for-bit ClassifierTrace equality
# ----------------------------------------------------------------------
def assert_all_algorithms_agree(cfg):
    """Reference and compiled traces must be field-for-field equal,
    both called directly and through every dispatcher value (``batch``
    only where numpy is importable)."""
    ref = reference_classify(cfg)
    assert traces_equal(ref, compiled_classify(cfg)), (
        f"compiled diverges on {cfg!r}"
    )
    for algorithm in ALGORITHM_NAMES:
        if algorithm == "batch" and not HAVE_NUMPY:
            continue
        assert traces_equal(ref, classify(cfg, algorithm=algorithm)), (
            f"dispatcher({algorithm}) diverges on {cfg!r}"
        )


@pytest.mark.parametrize(
    "n,max_tag", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1)]
)
def test_exhaustive_small_n_agreement(n, max_tag):
    """Every connected shape × every tag vector up to the sweep bound."""
    count = 0
    for cfg in enumerate_configurations(n, max_tag):
        assert_all_algorithms_agree(cfg)
        count += 1
    assert count > 0


@pytest.mark.parametrize("m", [2, 3, 8])
def test_family_agreement(m):
    """The paper's G_m / H_m / S_m families, including infeasible ones."""
    for family in (g_m, h_m, s_m):
        assert_all_algorithms_agree(family(m))


def test_random_batch_agreement():
    """Seeded random configurations (mixed n, span, density)."""
    for cfg in random_config_batch(60, base_seed=2323):
        assert_all_algorithms_agree(cfg)


def test_auto_default_is_compiled_everywhere():
    """The dispatcher's ``auto`` resolves to the compiled core, and the
    default-knob trace equals the compiled one on a nontrivial input."""
    from repro.core.classifier import resolve_algorithm

    assert resolve_algorithm("auto") == "compiled"
    cfg = g_m(5)
    assert traces_equal(classify(cfg), compiled_classify(cfg))


# ----------------------------------------------------------------------
# gate 2: >= 5x classification speedup, recorded as BENCH_E23.json
# ----------------------------------------------------------------------
def test_classification_speedup_at_least_5x():
    """The compiled core beats the faithful reference ≥ 5× in wall time
    on G_40 (n = 161, Θ(n) iterations), with identical output. Compiled
    times are the best of three passes to shield the ratio from
    scheduler noise; the reference runs once — it is tens of
    milliseconds and stable. The measurement is written to
    ``BENCH_E23.json`` before the floor is asserted."""
    cfg = g_m(TIMED_M)

    t0 = time.perf_counter()
    ref = reference_classify(cfg)
    ref_time = time.perf_counter() - t0

    compiled_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        comp = compiled_classify(cfg)
        compiled_time = min(compiled_time, time.perf_counter() - t0)
    assert traces_equal(ref, comp)  # same trace, not merely same verdict

    speedup = ref_time / compiled_time
    write_bench_result(
        BenchResult(
            experiment="E23",
            workload={
                "family": f"G_{TIMED_M}",
                "n": cfg.n,
                "span": cfg.span,
                "iterations": ref.num_iterations,
            },
            timings_s={"reference": ref_time, "compiled": compiled_time},
            speedup=speedup,
            floor=SPEEDUP_FLOOR,
            passed=speedup >= SPEEDUP_FLOOR,
        )
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled {compiled_time:.4f}s vs reference {ref_time:.4f}s "
        f"= {speedup:.1f}x < {SPEEDUP_FLOOR}x on G_{TIMED_M} (n={cfg.n})"
    )


def test_incremental_path_does_less_metered_work():
    """The op meters agree with the wall clock: on a many-iteration
    workload the compiled core's metered work is a small fraction of
    the reference's Lemma 3.5 accounting."""
    cfg = g_m(12)
    ref_ops = reference_classify(cfg, count_ops=True).total_ops
    compiled_ops = compiled_classify(cfg, count_ops=True).total_ops
    assert 0 < compiled_ops < ref_ops / 5


# ----------------------------------------------------------------------
# timing rows (pytest-benchmark; informational)
# ----------------------------------------------------------------------
BENCH_CASES = {
    "gm-12": lambda: g_m(12),
    "gm-25": lambda: g_m(25),
    "gm-40": lambda: g_m(TIMED_M),
}


@pytest.mark.benchmark(group="e23-reference")
@pytest.mark.parametrize("case", sorted(BENCH_CASES))
def test_reference_timing(benchmark, case):
    """Reference classification wall time per family instance."""
    cfg = BENCH_CASES[case]()
    trace = benchmark(reference_classify, cfg)
    assert trace.decision


@pytest.mark.benchmark(group="e23-compiled")
@pytest.mark.parametrize("case", sorted(BENCH_CASES))
def test_compiled_timing(benchmark, case):
    """Compiled classification wall time per family instance."""
    cfg = BENCH_CASES[case]()
    trace = benchmark(compiled_classify, cfg)
    assert trace.decision
