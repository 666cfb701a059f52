"""Round-complexity measurement and growth-rate estimation.

Used by the scaling experiments (E2, E3, E4): measure a quantity over
a parameter sweep, then estimate the polynomial growth exponent from a
log-log least-squares fit, and compare measurements against the
paper's explicit bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple


@dataclass
class SweepPoint:
    x: float  #: swept parameter (n, m, σ, ...)
    value: float  #: measured quantity (rounds, ops, ...)
    bound: float = float("nan")  #: the paper's bound at this x, if any

    @property
    def within_bound(self) -> bool:
        return not (self.value > self.bound)  # NaN-tolerant


@dataclass
class SweepResult:
    name: str
    points: List[SweepPoint]

    def growth_exponent(self, tail: int = 0) -> float:
        """Least-squares slope of log(value) against log(x).

        For a quantity Θ(x^k) over a geometric sweep this converges to k;
        experiments assert a band around the paper's exponent. For
        quantities of the form a·x^k + b the additive constant biases the
        slope at small x; pass ``tail=j`` to fit only the j largest-x
        points and recover the asymptotic exponent. Pure Python, so the
        fit (and EXPERIMENTS.md) is the same with or without numpy.
        """
        logs = sorted(
            (
                (math.log(p.x), math.log(p.value))
                for p in self.points
                if p.x > 0 and p.value > 0
            ),
            key=lambda point: point[0],
        )
        if len(logs) < 2:
            raise ValueError("need at least two positive points for a fit")
        if tail and tail >= 2:
            logs = logs[-tail:]
        mean_x = sum(lx for lx, _ in logs) / len(logs)
        mean_v = sum(lv for _, lv in logs) / len(logs)
        sxx = sum((lx - mean_x) ** 2 for lx, _ in logs)
        sxv = sum((lx - mean_x) * (lv - mean_v) for lx, lv in logs)
        return sxv / sxx

    def all_within_bounds(self) -> bool:
        """True iff no point exceeds its bound."""
        return all(p.within_bound for p in self.points)

    def violations(self) -> List[SweepPoint]:
        """Points exceeding their bound."""
        return [p for p in self.points if not p.within_bound]

    def as_table(self) -> List[Tuple]:
        """Rows for :func:`repro.reporting.tables.format_table`."""
        return [
            (
                f"{p.x:g}",
                f"{p.value:g}",
                "-" if math.isnan(p.bound) else f"{p.bound:g}",
                "yes" if p.within_bound else "NO",
            )
            for p in self.points
        ]

    TABLE_HEADERS = ("x", "measured", "bound", "within")


def sweep(
    name: str,
    xs: Sequence[float],
    measure: Callable[[float], float],
    bound: Callable[[float], float] = None,
) -> SweepResult:
    """Evaluate ``measure`` (and optionally ``bound``) over ``xs``."""
    points = [
        SweepPoint(
            x=float(x),
            value=float(measure(x)),
            bound=float(bound(x)) if bound is not None else float("nan"),
        )
        for x in xs
    ]
    return SweepResult(name=name, points=points)


def ratio_trend(result: SweepResult) -> List[float]:
    """value/bound ratios — should stay ≤ 1 and roughly flat for a tight
    bound, or shrink for a loose one."""
    out = []
    for p in result.points:
        if math.isnan(p.bound) or p.bound == 0:
            out.append(float("nan"))
        else:
            out.append(p.value / p.bound)
    return out


def is_superlinear(result: SweepResult, margin: float = 0.15) -> bool:
    """Growth exponent at least ~1 (within ``margin``)."""
    return result.growth_exponent() >= 1.0 - margin


def is_linear(result: SweepResult, margin: float = 0.25) -> bool:
    """Growth exponent within ``margin`` of 1."""
    return abs(result.growth_exponent() - 1.0) <= margin
