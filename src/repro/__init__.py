"""repro — Deterministic Leader Election in Anonymous Radio Networks.

A complete, executable reproduction of Miller, Pelc & Yadav (SPAA 2020,
arXiv:2002.02641): the synchronous radio model with collision detection,
the centralized feasibility classifier (Algorithms 1–4), the canonical
DRIP and dedicated O(n²σ) leader election (Theorem 3.15), the negative
results of Section 4 as executable experiments, plus graph/tag workload
generators, analysis tooling, contrast baselines, a census engine
(:mod:`repro.engine`) with canonical-form memoization and sharded,
resumable sweeps, and a batch classification service
(:mod:`repro.service`) that serves ``decide``/``elect`` over HTTP with
request coalescing and backpressure.

Quickstart::

    >>> from repro import Configuration, decide, elect
    >>> cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
    >>> decide(cfg).feasible
    True
    >>> elect(cfg).leader
    1
"""

from .core import (
    CanonicalProtocol,
    ClassifierTrace,
    Configuration,
    ConfigurationError,
    ElectionResult,
    FeasibilityReport,
    classify,
    decide,
    elect,
    elect_leader,
    is_feasible,
    line_configuration,
)
from .radio import (
    COLLISION,
    LISTEN,
    SILENCE,
    TERMINATE,
    DRIP,
    Commitment,
    History,
    LeaderElectionAlgorithm,
    Message,
    RadioSimulator,
    ScheduleOblivious,
    Transmit,
    make_patient,
    simulate,
)
__version__ = "1.0.0"

#: Service-layer re-exports, resolved lazily (PEP 562): the asyncio +
#: http.server stack should not tax `import repro` for consumers that
#: only want decide/elect — the same discipline that keeps repro.engine
#: out of the top-level import.
_SERVICE_EXPORTS = ("BatchClassifier", "Ticket", "serial_report")


def __getattr__(name):
    """Lazy attribute hook for the service-layer re-exports."""
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchClassifier",
    "COLLISION",
    "CanonicalProtocol",
    "ClassifierTrace",
    "Commitment",
    "Configuration",
    "ConfigurationError",
    "DRIP",
    "ElectionResult",
    "FeasibilityReport",
    "History",
    "LISTEN",
    "LeaderElectionAlgorithm",
    "Message",
    "RadioSimulator",
    "SILENCE",
    "ScheduleOblivious",
    "TERMINATE",
    "Ticket",
    "Transmit",
    "__version__",
    "classify",
    "decide",
    "elect",
    "elect_leader",
    "is_feasible",
    "line_configuration",
    "make_patient",
    "serial_report",
    "simulate",
]
