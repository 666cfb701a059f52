"""Cross-validation harness: every layer checked against every other.

For one configuration, :func:`validate` runs

1. the default classifier (the compiled core) and the paper's faithful
   Refine, ``classify(config, algorithm="reference")`` (must produce
   identical traces),
2. the canonical DRIP as a distributed execution on the simulator,
3. the Lemma 3.9 equivalence — for every phase boundary ``r_{j-1}``, the
   partition of nodes by history prefix ``H[0..r_{j-1}]`` must equal the
   classifier partition ``vCLASS,j``,
4. the simulation-based feasibility ground truth — feasible iff some node
   ends with a unique history (Lemmas 3.11/3.16),
5. the automorphism necessary condition — a classifier "Yes" on a
   configuration with no globally fixed node would be a soundness bug,
6. the election outcome (unique leader iff feasible; leader identity;
   O(n²σ) bound).

Experiment E1 sweeps this over every small configuration; the property
tests sample it over random ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.classifier import classify
from ..core.configuration import Configuration
from ..core.election import elect_leader
from ..core.trace import traces_equal
from ..core.partition import partition_key
from .automorphisms import has_fixed_node


@dataclass
class ValidationReport:
    """Outcome of cross-validating one configuration."""

    config: Configuration
    feasible: bool
    leader: object
    rounds: int
    checks_run: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        """Multi-line human-readable report."""
        status = "OK" if self.ok else "FAILED: " + "; ".join(self.failures)
        return (
            f"validate(n={self.config.n}, σ={self.config.span}): "
            f"feasible={self.feasible} leader={self.leader} "
            f"rounds={self.rounds} [{self.checks_run} checks] {status}"
        )


def validate(config: Configuration, *, check_automorphisms: bool = True) -> ValidationReport:
    """Run the full cross-validation stack on one configuration."""
    trace = classify(config)
    report = ValidationReport(
        config=trace.config,
        feasible=trace.feasible,
        leader=trace.leader,
        rounds=0,
    )

    def check(condition: bool, message: str) -> None:
        report.checks_run += 1
        if not condition:
            report.failures.append(message)

    # 1. default vs the paper's faithful classifier --------------------
    reference = classify(config, algorithm="reference")
    check(
        traces_equal(trace, reference),
        "classify trace differs from the faithful reference classifier",
    )

    # 2 + 6. distributed execution of the canonical protocol ------------
    election = elect_leader(config, trace=trace, check=False)
    report.rounds = election.rounds
    execution = election.execution

    check(
        execution.all_spontaneous(),
        "forced wakeup in canonical execution (Lemma 3.6 violated)",
    )
    dones = set(execution.done_local.values())
    check(len(dones) == 1, f"unsynchronized termination rounds {sorted(dones)}")
    check(
        election.rounds <= election.round_bound(),
        f"rounds {election.rounds} exceed O(n²σ) budget {election.round_bound()}",
    )

    # 3. Lemma 3.9: class partition == history-prefix partition ----------
    ends = election.protocol.data.phase_ends
    for j in range(1, trace.num_iterations + 2):
        if j - 1 >= len(ends):
            break
        upto = ends[j - 1]
        sim_partition = tuple(
            tuple(g) for g in execution.prefix_partition(upto)
        )
        cls_partition = partition_key(trace.classes_at(j))
        check(
            sim_partition == cls_partition,
            f"Lemma 3.9 violated at phase boundary r_{j - 1}={upto}: "
            f"history partition {sim_partition} != class partition "
            f"{cls_partition}",
        )

    # 4. simulation ground truth -----------------------------------------
    unique = execution.unique_history_nodes()
    check(
        bool(unique) == trace.feasible,
        f"simulation ground truth ({'unique' if unique else 'no unique'} "
        f"history) contradicts classifier decision {trace.decision}",
    )

    # 5. automorphism necessary condition --------------------------------
    if check_automorphisms and trace.feasible:
        check(
            has_fixed_node(trace.config),
            "classifier said Yes but no node is fixed by all "
            "tag-preserving automorphisms",
        )

    # 6. election outcome -------------------------------------------------
    if trace.feasible:
        check(
            election.elected and election.leader == trace.leader,
            f"election produced leaders {election.leaders!r}, classifier "
            f"isolated {trace.leader!r}",
        )
    else:
        check(
            not election.leaders,
            f"infeasible configuration elected {election.leaders!r}",
        )

    return report


def validate_many(configs, **kwargs) -> List[ValidationReport]:
    """Validate an iterable of configurations; return all reports."""
    return [validate(c, **kwargs) for c in configs]


def all_ok(configs, **kwargs) -> bool:
    """True iff every configuration passes validation."""
    return all(r.ok for r in validate_many(configs, **kwargs))
