"""Smoke tests: every example script runs to completion.

Examples are the public face of the library; a release where
``python examples/quickstart.py`` crashes is broken no matter what the
unit tests say. Each script is executed in a subprocess with a generous
timeout. ``generate_experiments_md.py`` runs in
``tests/test_experiments_md.py``, which also checks its output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"

#: scripts executed with no arguments
PLAIN_SCRIPTS = [
    "quickstart.py",
    "paper_families.py",
    "impossibility_demo.py",
    "census_random.py",
    "single_hop_contrast.py",
    "program_export.py",
    "model_variants.py",
    "wired_contrast.py",
    "timeline_debug.py",
]


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    # The scripts run with cwd=examples, so a relative PYTHONPATH entry
    # (the usual `PYTHONPATH=src pytest` invocation) would not resolve;
    # prepend the absolute src/ directory.
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=str(EXAMPLES),
        env=env,
    )


@pytest.mark.parametrize("script", PLAIN_SCRIPTS)
def test_example_runs_clean(script):
    result = run_example(script)
    assert result.returncode == 0, (
        f"{script} failed\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"

