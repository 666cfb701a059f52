"""Machine-readable perf trajectory: one JSON artifact per benchmark.

The speedup gates in ``benchmarks/bench_e*.py`` assert a floor and move
on; the *measured* numbers used to live only in scrollback. This module
gives each gated experiment a durable, machine-readable record —
``BENCH_E23.json`` and friends — so the performance trajectory of the
repo can be tracked across commits (CI uploads the files as artifacts).

Schema (``"schema": 1``)::

    {
      "schema": 1,
      "experiment": "E23",          // experiment id
      "workload": {...},            // what was timed (sizes, families)
      "timings_s": {"reference": 1.9, "compiled": 0.08},
      "speedup": 23.7,              // ratio the gate checks
      "floor": 5.0,                 // the gate's threshold
      "pass": true,                 // every gate cleared; null if skipped
      "host": {...}                 // interpreter/OS/cpus (see host_metadata)
    }

Two optional keys appear only when set, so readers of the fields above
are unaffected: ``"limits_s"`` (ceilings some entries of ``timings_s``
are gated against) and ``"skipped"`` (why the gate was not decided on
this host, e.g. ``"<4 CPUs"``; ``"pass"`` is then ``null``).

Artifacts are written to :func:`bench_json_dir` — the current directory
unless the ``REPRO_BENCH_JSON_DIR`` environment variable points
elsewhere (CI sets it to the artifact staging directory). Writes are
atomic (tmp + rename), so a crashed benchmark never leaves a torn file.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Environment variable overriding where ``BENCH_E*.json`` files land.
BENCH_JSON_DIR_ENV = "REPRO_BENCH_JSON_DIR"

#: Current artifact schema version.
BENCH_SCHEMA_VERSION = 1


@dataclass
class BenchResult:
    """One gated benchmark measurement, ready to serialize.

    ``timings_s`` maps contender name (e.g. ``"reference"``,
    ``"compiled"``) to wall seconds; ``speedup`` is the ratio the gate
    asserts against ``floor``; ``limits_s`` holds ceilings for named
    timings; ``passed`` records whether every gate cleared, or is
    ``None`` with ``skipped`` saying why the host could not decide.
    ``workload`` is a small JSON-able dict describing what was timed.
    """

    experiment: str
    workload: Dict[str, object] = field(default_factory=dict)
    timings_s: Dict[str, float] = field(default_factory=dict)
    speedup: float = 0.0
    floor: float = 0.0
    passed: Optional[bool] = False
    limits_s: Dict[str, float] = field(default_factory=dict)
    skipped: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """The schema-versioned JSON payload."""
        out = {
            "schema": BENCH_SCHEMA_VERSION,
            "experiment": self.experiment,
            "workload": self.workload,
            "timings_s": {k: round(v, 6) for k, v in self.timings_s.items()},
            "speedup": round(self.speedup, 3),
            "floor": self.floor,
            "pass": self.passed,
            "host": host_metadata(),
        }
        if self.limits_s:
            out["limits_s"] = self.limits_s
        if self.skipped is not None:
            out["skipped"] = self.skipped
        return out


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Prefers ``os.sched_getaffinity(0)`` — which reflects cgroup/affinity
    limits, the number that matters inside containers and CI runners
    where ``os.cpu_count()`` reports the whole host — and falls back to
    ``os.cpu_count()`` on platforms without affinity support (macOS,
    Windows) or when the call fails.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return os.cpu_count() or 2


def host_metadata() -> Dict[str, object]:
    """Where a benchmark number came from: interpreter, OS, core count.

    Timings are only comparable across commits when the hardware and
    runtime match, so every ``BENCH_E*.json`` embeds this block (the
    addition is schema-compatible: readers of the original fields are
    unaffected). ``numpy`` is ``None`` when the accelerated stack is
    absent — those runs time the pure-Python paths.
    """
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "available_cpus": available_cpus(),
        "numpy": numpy_version,
    }


def bench_json_dir() -> str:
    """Directory receiving benchmark artifacts (env override or cwd)."""
    return os.environ.get(BENCH_JSON_DIR_ENV) or os.getcwd()


def bench_json_path(experiment: str, directory: Optional[str] = None) -> str:
    """Artifact path for an experiment id, e.g. ``BENCH_E23.json``."""
    return os.path.join(
        directory or bench_json_dir(), f"BENCH_{experiment.upper()}.json"
    )


def write_bench_result(
    result: BenchResult, directory: Optional[str] = None
) -> str:
    """Atomically write ``result`` as JSON; returns the path written.

    Benchmarks call this *before* asserting their floor, so a failing
    gate still leaves the measured numbers behind for diagnosis.
    """
    path = bench_json_path(result.experiment, directory)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path
