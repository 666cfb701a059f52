"""Classifier execution traces.

The canonical DRIP (Section 3.3.1) is *constructed from* the execution of
``Classifier``: the hard-coded lists ``L_j`` are read off the sequence of
partitions, labels and representatives. ``ClassifierTrace`` records exactly
that sequence, using the paper's indexing convention:

* quantities subscripted ``j`` (``vCLASS,j``, ``numClasses_{G,j}``,
  ``reps_j``, ``vLBL,j``) denote the value *at the end of iteration j−1*
  of ``Classifier`` (iteration 0 = ``Init-Aug``);
* ``iterations[i-1]`` stores the outcome of iteration ``i`` (the i-th
  ``Partitioner`` call), so ``classes_at(j)`` for ``j >= 2`` reads
  ``iterations[j-2]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .partition import (
    Label,
    class_members,
    partition_key,
    singleton_classes,
)

#: Decision strings, matching the paper's output vocabulary.
YES = "Yes"
NO = "No"


@dataclass
class IterationRecord:
    """Outcome of one ``Partitioner`` call (one Classifier iteration)."""

    index: int  #: iteration number i >= 1
    labels: Dict[object, Label]  #: labels assigned during this iteration
    classes_after: Dict[object, int]  #: vCLASS at the end of the iteration
    reps_after: Tuple[Optional[object], ...]  #: 1-based reps (index 0 None)
    num_classes_after: int

    def members(self) -> Dict[int, List[object]]:
        """Class number -> sorted member list after this iteration."""
        return class_members(self.classes_after)


@dataclass
class ClassifierTrace:
    """Complete record of a ``Classifier`` run on one configuration."""

    config: object  #: the (normalized) Configuration classified
    sigma: int
    initial_classes: Dict[object, int]
    initial_reps: Tuple[Optional[object], ...]
    iterations: List[IterationRecord] = field(default_factory=list)
    decision: str = ""  #: YES or NO
    decided_at: int = 0  #: iteration index i at which the decision fired
    leader: Optional[object] = None  #: rep of the smallest singleton class
    leader_class: Optional[int] = None
    total_ops: int = 0  #: OpCounter total, when metering was enabled

    # ------------------------------------------------------------------
    # paper-indexed accessors
    # ------------------------------------------------------------------
    @property
    def feasible(self) -> bool:
        return self.decision == YES

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def classes_at(self, j: int) -> Dict[object, int]:
        """``vCLASS,j`` for all v: classes at the end of iteration j−1."""
        if j < 1 or j > self.num_iterations + 1:
            raise IndexError(f"no partition with index {j}")
        if j == 1:
            return self.initial_classes
        return self.iterations[j - 2].classes_after

    def num_classes_at(self, j: int) -> int:
        """``numClasses_{G,j}``."""
        if j == 1:
            return max(self.initial_classes.values())
        return self.iterations[j - 2].num_classes_after

    def reps_at(self, j: int) -> Tuple[Optional[object], ...]:
        """``reps_j``: representative array at the end of iteration j−1."""
        if j == 1:
            return self.initial_reps
        return self.iterations[j - 2].reps_after

    def labels_at(self, j: int) -> Dict[object, Label]:
        """``vLBL,j``: labels assigned during iteration j−1 (j >= 2)."""
        if j < 2:
            raise IndexError("labels_at is defined for j >= 2 (vLBL,1 is null)")
        return self.iterations[j - 2].labels

    def partition_keys(self) -> List[Tuple]:
        """Numbering-independent partitions for j = 1 .. num_iterations+1."""
        return [
            partition_key(self.classes_at(j))
            for j in range(1, self.num_iterations + 2)
        ]

    def class_count_chain(self) -> List[int]:
        """``numClasses_{G,1}, ..., numClasses_{G, num_iterations+1}``."""
        return [self.num_classes_at(j) for j in range(1, self.num_iterations + 2)]

    def final_classes(self) -> Dict[object, int]:
        """Partition when Classifier stopped (= classes_at(decided_at+1))."""
        return self.classes_at(self.num_iterations + 1)

    def final_singletons(self) -> List[int]:
        """Singleton class numbers of the final partition."""
        return singleton_classes(self.final_classes())

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line rendering of the refinement process (debug/demo)."""
        lines = [
            f"Classifier on n={self.config.n}, σ={self.sigma}: "
            f"{self.decision} after iteration {self.decided_at}"
        ]
        for j in range(1, self.num_iterations + 2):
            members = class_members(self.classes_at(j))
            rendered = ", ".join(
                f"C{k}={vs}" for k, vs in sorted(members.items())
            )
            lines.append(f"  partition_{j}: {rendered}")
        if self.feasible:
            lines.append(
                f"  leader: node {self.leader} (class {self.leader_class})"
            )
        return "\n".join(lines)


def traces_equal(a: ClassifierTrace, b: ClassifierTrace) -> bool:
    """Field-by-field equality of two traces (ignoring op metering)."""
    if (
        a.decision != b.decision
        or a.decided_at != b.decided_at
        or a.leader != b.leader
        or a.leader_class != b.leader_class
        or a.sigma != b.sigma
        or a.initial_classes != b.initial_classes
        or a.initial_reps != b.initial_reps
        or len(a.iterations) != len(b.iterations)
    ):
        return False
    for ra, rb in zip(a.iterations, b.iterations):
        if (
            ra.index != rb.index
            or ra.labels != rb.labels
            or ra.classes_after != rb.classes_after
            or ra.reps_after != rb.reps_after
            or ra.num_classes_after != rb.num_classes_after
        ):
            return False
    return True
