"""The package imports and answers identically without numpy.

numpy only backs the vectorized paths (the batch kernel, the vectorized
closed-form replay, the log-log fits of the scaling experiments). A
subprocess that blocks it (``sys.modules["numpy"] = None``) must still
import ``repro``, resolve batched ``auto`` to the compiled core, and
produce the same census rows, campaign records, service reports and
replayed histories as this process.
"""

import json
import os
import subprocess
import sys

from repro.campaigns import CampaignSpec, run_campaign
from repro.core.classifier import classify
from repro.core.configuration import line_configuration
from repro.core.replay import replay_histories
from repro.engine import RandomGnpWorkload, sharded_census
from repro.graphs.families import g_m, h_m
from repro.service import serial_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

BLOCKED = f"""
import json, runpy, sys
sys.modules["numpy"] = None
from repro.core.batch import HAVE_NUMPY, resolve_batch_algorithm
answers = runpy.run_path({__file__!r})["answers"]()
print(json.dumps({{"have_numpy": HAVE_NUMPY,
                  "auto": resolve_batch_algorithm("auto"),
                  "answers": answers}}))
"""


def answers():
    """Census rows, campaign records, service reports and replayed
    histories, as JSON-able values."""
    workload = RandomGnpWorkload([4, 5, 6], span=2, p=0.35, samples=8, seed=3)
    rows = sharded_census(workload, num_shards=3).result.rows
    spec = CampaignSpec(
        name="no-numpy",
        seed=5,
        trials=12,
        n_values=(4, 5),
        span=2,
        strategies=(
            {"strategy": "none", "weight": 1.0},
            {"strategy": "random_budget", "weight": 1.0, "budget": 2},
            {"strategy": "crash_sleep", "weight": 1.0, "count": 1},
        ),
    )
    configs = [line_configuration([0, 1, 0]), g_m(2), h_m(2)]
    return {
        "census": [
            [list(g), r.total, r.feasible, r.iterations_sum, r.rounds_sum]
            for g, r in sorted(rows.items())
        ],
        "campaign": run_campaign(spec).results,
        "reports": [serial_report(cfg, "elect") for cfg in configs],
        "replay": [
            {str(v): h.render() for v, h in replay_histories(trace).items()}
            for trace in map(classify, configs)
            if trace.feasible
        ],
    }


def test_numpy_blocked_run_matches_this_process():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert blocked["have_numpy"] is False
    assert blocked["auto"] == "compiled"
    assert blocked["answers"] == json.loads(json.dumps(answers()))
