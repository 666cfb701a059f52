"""Campaign bundles: self-contained manifests and bit-for-bit replay.

A campaign bundle is a directory holding one ``manifest.json`` with
everything needed to reproduce any trial without the original process:
the campaign spec (seeds and strategy mix), and per trial the finalized
configuration spec, adversary spec, round budget, backend, outcome and a
result *digest*. The digest is a SHA-256 over a canonical rendering of
the :class:`~repro.radio.events.ExecutionResult` (per-node histories,
wake rounds/kinds, termination rounds, total rounds, elected leaders) —
or, for failed trials, over the failure diagnostics — so "replays
bit-for-bit" is checkable by digest equality alone.

:func:`replay_trial` is the check: rebuild the configuration and the
adversary from the record, re-run the trial through the same backend,
and compare digests.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.configuration import config_from_spec, config_spec

__all__ = [
    "BUNDLE_FORMAT",
    "ReplayReport",
    "config_spec",
    "config_from_spec",
    "execution_digest",
    "failure_digest",
    "read_bundle",
    "replay_trial",
    "write_bundle",
]

#: Manifest format version (bumped on incompatible layout changes).
BUNDLE_FORMAT = 1


def _digest(payload: object) -> str:
    """SHA-256 hex digest of a canonical JSON rendering."""
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execution_digest(execution, leaders: List[object]) -> str:
    """Digest of a completed execution (the bit-for-bit replay check).

    Covers every field :class:`~repro.radio.events.ExecutionResult`
    equality covers — per-node history renderings, wake rounds and
    kinds, local termination rounds, total rounds elapsed — plus the
    decided leaders. Two executions with equal results always digest
    equally, on either backend.
    """
    rows = [
        [
            str(v),
            execution.histories[v].render(),
            execution.wake_rounds.get(v),
            execution.wake_kinds.get(v),
            execution.done_local.get(v),
        ]
        for v in sorted(execution.histories, key=str)
    ]
    return _digest(
        {
            "rows": rows,
            "rounds_elapsed": execution.rounds_elapsed,
            "leaders": [str(v) for v in leaders],
        }
    )


def failure_digest(kind: str, detail: Dict) -> str:
    """Digest of a failed trial (timeout / match error / crash).

    ``detail`` carries the deterministic diagnostics — e.g. the
    :class:`~repro.radio.backends.base.SimulationTimeout` round/state
    counts, which both backends report identically — so a failure
    replays to the same digest just like a success does.
    """
    return _digest({"failure": kind, **detail})


def write_bundle(
    directory: str,
    spec,
    results: List[Dict],
    metrics: Optional[Dict] = None,
) -> str:
    """Write a campaign bundle; return the manifest path.

    One ``json.dumps`` (the C encoder) renders the manifest, written
    atomically (temp file + rename): a crashed writer leaves no torn bundle.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "manifest.json")
    payload = {
        "format": BUNDLE_FORMAT,
        "campaign": spec.as_dict(),
        "trials": len(results),
        "results": results,
        "metrics": metrics,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    os.replace(tmp, path)
    return path


def read_bundle(path: str) -> Dict:
    """Load a bundle manifest (accepts the directory or the file path)."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    fmt = manifest.get("format")
    if fmt != BUNDLE_FORMAT:
        raise ValueError(
            f"bundle format {fmt!r} is not supported (expected "
            f"{BUNDLE_FORMAT})"
        )
    return manifest


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one recorded trial against its digest."""

    index: int
    outcome: str  #: outcome of the replayed execution
    recorded_outcome: str  #: outcome the manifest recorded
    digest: str
    recorded_digest: str

    @property
    def match(self) -> bool:
        """True iff the replay reproduced the record bit-for-bit."""
        return (
            self.digest == self.recorded_digest
            and self.outcome == self.recorded_outcome
        )

    def describe(self) -> str:
        """One-line replay verdict for CLI output."""
        verdict = "MATCH" if self.match else "MISMATCH"
        return (
            f"trial {self.index}: {verdict} "
            f"(outcome {self.outcome} / recorded {self.recorded_outcome}, "
            f"digest {self.digest[:12]} / recorded "
            f"{self.recorded_digest[:12]})"
        )


def replay_trial(
    manifest: Dict, index: int, *, backend: Optional[str] = None
) -> ReplayReport:
    """Re-execute a recorded trial from the manifest alone.

    Rebuilds the configuration (:func:`config_from_spec`) and the
    adversary (:func:`repro.adversary.adversary_from_spec`) from the
    trial record, re-runs classification and simulation under the
    recorded round budget and backend (overridable via ``backend``, e.g.
    to cross-check the other backend on explicit schedules), and
    compares result digests.
    """
    from ..adversary import adversary_from_spec
    from .runner import execute_trial

    results = manifest["results"]
    record = results[index] if 0 <= index < len(results) else None
    if record is None or record["index"] != index:  # not in trial order
        record = next((r for r in results if r["index"] == index), None)
    if record is None:
        raise KeyError(f"manifest holds no trial with index {index}")
    config = config_from_spec(record["config"])
    jammer = (
        adversary_from_spec(record["adversary"])
        if record.get("adversary") is not None
        else None
    )
    replayed = execute_trial(
        config,
        jammer,
        max_rounds=record["max_rounds"],
        backend=backend if backend is not None else record["backend"],
    )
    return ReplayReport(
        index=index,
        outcome=replayed["outcome"],
        recorded_outcome=record["outcome"],
        digest=replayed["digest"],
        recorded_digest=record["digest"],
    )
