"""Feasibility censuses over configuration populations.

Answers questions like "what fraction of random G(n,p) configurations with
span σ are feasible?" — the library's analogue of a results table for a
theory paper, and the workload of experiments E1, E11, E14 and E15.

:func:`census` is the one-pass in-memory implementation: everything is
classified and aggregated in a single sweep. With ``algorithm="auto"``
(the default) and numpy importable it streams chunks through the
vectorized batch kernel (:mod:`repro.core.batch`); an explicit serial
``algorithm`` — or a missing numpy — falls back to one classification
per configuration. Both paths aggregate identical numbers.
Production-scale sweeps go through :mod:`repro.engine` instead —
canonical-form caching, sharding, and the resumable work queue — and
:func:`random_census` routes there; the engine is contractually
bit-for-bit equal to :func:`census` on the same workload (see
``tests/test_engine_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from ..core.classifier import classify
from ..core.configuration import Configuration
from ..core.election import elect_leader


@dataclass
class CensusRow:
    """Aggregate statistics for one census group."""

    group: object
    total: int = 0
    feasible: int = 0
    iterations_sum: int = 0
    rounds_sum: int = 0  #: election rounds over feasible members only

    @property
    def feasible_fraction(self) -> float:
        return self.feasible / self.total if self.total else 0.0

    @property
    def mean_iterations(self) -> float:
        return self.iterations_sum / self.total if self.total else 0.0

    @property
    def mean_rounds(self) -> float:
        return self.rounds_sum / self.feasible if self.feasible else 0.0


@dataclass
class CensusResult:
    rows: Dict[object, CensusRow] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(r.total for r in self.rows.values())

    @property
    def feasible(self) -> int:
        return sum(r.feasible for r in self.rows.values())

    def sorted_rows(self) -> List[CensusRow]:
        """Rows in ascending key order."""
        return [self.rows[k] for k in sorted(self.rows)]

    def as_table(self) -> List[Tuple]:
        """Rows for :mod:`repro.reporting.tables`."""
        return [
            (
                row.group,
                row.total,
                row.feasible,
                f"{row.feasible_fraction:.3f}",
                f"{row.mean_iterations:.2f}",
                f"{row.mean_rounds:.1f}" if row.feasible else "-",
            )
            for row in self.sorted_rows()
        ]

    TABLE_HEADERS = ("group", "configs", "feasible", "fraction", "iters", "rounds")


def group_by_n(config: Configuration) -> int:
    """Census grouping key: configuration size.

    Module-level (not a lambda) so a distributed census can ship it
    through its work queue by name (see
    :data:`repro.engine.pipeline.GROUPINGS`).
    """
    return config.n


def census(
    configs: Iterable[Configuration],
    *,
    group_by: Callable[[Configuration], object] = None,
    measure_rounds: bool = False,
    algorithm: str = "auto",
    batch_size: int = 256,
) -> CensusResult:
    """Classify every configuration; aggregate by ``group_by(config)``.

    With ``measure_rounds`` the dedicated election algorithm is also run
    on every feasible configuration and its ``done_v`` accumulated.
    ``algorithm`` selects the classifier implementation (see
    :func:`repro.core.classifier.classify`); results are identical for
    every choice. ``"auto"`` resolves through
    :func:`repro.core.batch.resolve_batch_algorithm`: when numpy is
    importable the sweep streams through the vectorized batch kernel in
    chunks of ``batch_size`` configurations, otherwise (or for an
    explicit serial choice) it classifies one configuration at a time.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if group_by is None:
        group_by = lambda c: (c.n, c.span)  # noqa: E731
    from ..core.batch import resolve_batch_algorithm

    if resolve_batch_algorithm(algorithm) == "batch":
        return _batched_census(configs, group_by, measure_rounds, batch_size)
    result = CensusResult()
    for config in configs:
        trace = classify(config, algorithm=algorithm)
        key = group_by(trace.config)
        row = result.rows.setdefault(key, CensusRow(group=key))
        row.total += 1
        row.iterations_sum += trace.num_iterations
        if trace.feasible:
            row.feasible += 1
            if measure_rounds:
                row.rounds_sum += elect_leader(trace.config, trace=trace).rounds
    return result


def _batched_census(
    configs: Iterable[Configuration],
    group_by: Callable[[Configuration], object],
    measure_rounds: bool,
    batch_size: int,
) -> CensusResult:
    """The vectorized :func:`census` path: chunked lockstep sweeps.

    Traces are materialized only under ``measure_rounds`` (the election
    replay needs them); a plain feasibility census stays on the kernel's
    verdict-only fast path. Aggregates are identical to the serial loop
    because the kernel is bit-for-bit equal to the serial classifiers.
    """
    from ..core.batch import batch_outcomes

    result = CensusResult()
    chunk: List[Configuration] = []

    def flush() -> None:
        for out in batch_outcomes(chunk, traces=measure_rounds):
            key = group_by(out.config)
            row = result.rows.setdefault(key, CensusRow(group=key))
            row.total += 1
            row.iterations_sum += out.iterations
            if out.feasible:
                row.feasible += 1
                if measure_rounds:
                    row.rounds_sum += elect_leader(out.config, trace=out.trace).rounds
        chunk.clear()

    for config in configs:
        chunk.append(config)
        if len(chunk) >= batch_size:
            flush()
    if chunk:
        flush()
    return result


def random_census_workload(
    n_values: Iterable[int], span: int, p: float, samples: int, seed: int
):
    """The random-census workload, as every census entry point builds it.

    Shared by :func:`random_census_run` and the CLI's distributed-queue
    roles, so a coordinator's queue and a direct engine run enumerate
    the identical population.
    """
    from ..engine import RandomGnpWorkload

    return RandomGnpWorkload(list(n_values), span, p, samples, seed)


def random_census_run(
    n_values: Iterable[int],
    span: int,
    p: float,
    samples: int,
    seed: int,
    *,
    measure_rounds: bool = False,
    num_shards: int = 1,
    cache=None,
    algorithm: str = "auto",
):
    """In-process engine run of the random census, returning the full
    ``CensusRun``.

    The single construction site for the random census's engine
    invocation: :func:`random_census` (which keeps the
    ``CensusResult``-returning signature) and the CLI (which also wants
    the run/cache accounting for its footer) both delegate here.
    """
    from ..engine import sharded_census

    return sharded_census(
        random_census_workload(n_values, span, p, samples, seed),
        group_by=group_by_n,
        measure_rounds=measure_rounds,
        num_shards=num_shards,
        cache=cache,
        algorithm=algorithm,
    )


def random_census(
    n_values: Iterable[int],
    span: int,
    p: float,
    samples: int,
    seed: int,
    *,
    measure_rounds: bool = False,
    num_shards: int = 1,
    cache=None,
    algorithm: str = "auto",
) -> CensusResult:
    """Census over seeded random connected G(n,p) configurations with
    uniform random tags in ``0..span``; grouped by n.

    The run goes through the :mod:`repro.engine` pipeline
    (canonical-form caching, optionally sharded), whose rows equal the
    serial :func:`census` over the same population;
    :func:`repro.testing.random_census_configs` generates that
    population independently of the engine.
    """
    return random_census_run(
        n_values,
        span,
        p,
        samples,
        seed,
        measure_rounds=measure_rounds,
        num_shards=num_shards,
        cache=cache,
        algorithm=algorithm,
    ).result
