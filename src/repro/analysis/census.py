"""Feasibility censuses over configuration populations: the serial reference.

Answers questions like "what fraction of random G(n,p) configurations with
span σ are feasible?" — the library's analogue of a results table for a
theory paper, and the workload of experiments E1, E11, E14 and E15.

:func:`census` classifies one configuration at a time and aggregates in
a single sweep. It is the oracle of every census fast path, so it
imports neither the engine (:mod:`repro.engine`) nor the batch kernel
(:mod:`repro.core.batch`). Production-scale sweeps go through the engine
instead — canonical-form caching, sharding, and the resumable work
queue — whose rows are contractually bit-for-bit equal to
:func:`census` on the same population (see
``tests/test_census_paths.py``).
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


def group_by_n_span(config: Configuration) -> Tuple[int, int]:
    """The default census grouping, ``(n, span)``, as a named function.

    Distributed runs identify groupings by *name* (a worker process
    cannot deserialize a lambda), so the default grouping needs a
    stable definition site. See :data:`repro.engine.pipeline.GROUPINGS`.
    """
    return (config.n, config.span)


def census(
    configs: Iterable[Configuration],
    *,
    group_by: Callable[[Configuration], object] = None,
    measure_rounds: bool = False,
    algorithm: str = "auto",
) -> CensusResult:
    """Classify every configuration; aggregate by ``group_by(config)``.

    ``group_by`` defaults to :func:`group_by_n_span`. With
    ``measure_rounds`` the dedicated election algorithm is also run on
    every feasible configuration and its ``done_v`` accumulated.
    Configurations are classified one at a time through
    :func:`repro.core.classifier.classify`, whose ``algorithm`` this is
    (``"auto"`` is the compiled core); results are identical for every
    choice.
    """
    if group_by is None:
        group_by = group_by_n_span
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
