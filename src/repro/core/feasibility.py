"""High-level facade: one import for the common workflows.

    >>> from repro import Configuration, decide, elect
    >>> cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
    >>> report = decide(cfg)
    >>> report.feasible
    True
    >>> elect(cfg).leader
    1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canonical import CanonicalProtocol
from .classifier import classify
from .configuration import Configuration
from .election import ElectionResult, elect_leader
from .trace import ClassifierTrace


@dataclass
class FeasibilityReport:
    """Answer of the centralized decision algorithm, with provenance."""

    config: Configuration
    trace: ClassifierTrace

    @property
    def feasible(self) -> bool:
        return self.trace.feasible

    @property
    def decision(self) -> str:
        """The paper's output string: ``"Yes"`` or ``"No"``."""
        return self.trace.decision

    @property
    def leader(self) -> Optional[object]:
        """The node the classifier isolates (None when infeasible)."""
        return self.trace.leader

    @property
    def iterations(self) -> int:
        """Partitioner calls executed (≤ ⌈n/2⌉, Lemma 3.4)."""
        return self.trace.num_iterations

    def protocol(self) -> CanonicalProtocol:
        """The dedicated algorithm ``(D_G, f_G)`` for this configuration."""
        return CanonicalProtocol.from_trace(self.trace)

    def describe(self) -> str:
        """Multi-line human-readable report."""
        return self.trace.describe()


def decide(
    config: Configuration, *, algorithm: str = "auto"
) -> FeasibilityReport:
    """Decide feasibility of ``config`` (Theorem 3.17).

    ``algorithm`` selects the classifier implementation
    (``"reference"``, ``"compiled"``, ``"batch"`` or ``"auto"``; see
    :func:`repro.core.classifier.classify`) — every choice returns the
    identical report.
    """
    return FeasibilityReport(
        config=config, trace=classify(config, algorithm=algorithm)
    )


def elect(config: Configuration, **kwargs) -> ElectionResult:
    """Elect a leader on ``config`` with the dedicated algorithm
    (Theorem 3.15). See :func:`repro.core.election.elect_leader`."""
    return elect_leader(config, **kwargs)
