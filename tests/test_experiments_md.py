"""EXPERIMENTS.md is fresh: regenerating it changes only host timings.

``examples/generate_experiments_md.py`` runs once, writing to a
temporary file. Every claim check of the experiment registry must pass,
and the output must equal the committed EXPERIMENTS.md line by line,
except in table columns whose header ends in ``(host)`` and in the
total-time footer. After changing an experiment, regenerate the file::

    PYTHONPATH=src python examples/generate_experiments_md.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.reporting.experiments import HOST_MARK

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "EXPERIMENTS.md"
FOOTER = "*Total generation time:"


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiments") / "EXPERIMENTS.md"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "generate_experiments_md.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return out.read_text(encoding="utf-8")


def failed_checks(text):
    """``section: check`` for every failed (❌) check line."""
    failed, section = [], None
    for line in text.splitlines():
        if line.startswith("## "):
            section = line[3:]
        elif line.startswith("- ❌ "):
            failed.append(f"{section}: {line[4:]}")
    return failed


def _cells(line):
    return [c.strip() for c in re.split(r"(?<!\\)\|", line.strip()[1:-1])]


def stale_lines(committed, generated):
    """Every line where ``generated`` differs from ``committed`` outside
    the ``(host)`` columns and the footer, as a readable message."""
    old_lines, new_lines = committed.splitlines(), generated.splitlines()
    stale, host, previous = [], set(), ""
    for number, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        if old.startswith("|") and not previous.startswith("|"):  # a header
            host = {j for j, h in enumerate(_cells(old)) if h.endswith(HOST_MARK)}
        previous = old
        if old == new or (old.startswith(FOOTER) and new.startswith(FOOTER)):
            continue
        if old.startswith("|") and new.startswith("|"):
            a, b = _cells(old), _cells(new)
            if len(a) == len(b) and all(
                x == y for j, (x, y) in enumerate(zip(a, b)) if j not in host
            ):
                continue
        stale.append(f"line {number}: committed {old!r}, generated {new!r}")
    if len(old_lines) != len(new_lines):
        stale.append(f"{len(old_lines)} committed lines, {len(new_lines)} generated")
    return stale


def test_every_check_passes(generated):
    assert generated.startswith("# EXPERIMENTS")
    failed = failed_checks(generated)
    assert not failed, "failed checks:\n" + "\n".join(failed)


def test_committed_experiments_md_is_fresh(generated):
    stale = stale_lines(COMMITTED.read_text(encoding="utf-8"), generated)
    assert not stale, (
        "EXPERIMENTS.md is stale; regenerate it with "
        "`PYTHONPATH=src python examples/generate_experiments_md.py`:\n"
        + "\n".join(stale[:20])
    )


def test_only_host_cells_and_the_footer_may_differ():
    text = COMMITTED.read_text(encoding="utf-8")
    host_row = next(
        line for line in text.splitlines() if line.startswith("| G_32 (n=129) |")
    )
    timings = _cells(host_row)
    edited_host = host_row.replace(timings[1], "9" + timings[1], 1)
    assert stale_lines(text, text.replace(host_row, edited_host)) == []
    footer = next(line for line in text.splitlines() if line.startswith(FOOTER))
    assert stale_lines(text, text.replace(footer, FOOTER + " 99.9s.*")) == []
    deterministic = "| 16 | 65 | 785 | 15 | 12938 |"
    assert deterministic in text
    edited = text.replace(deterministic, "| 16 | 65 | 786 | 15 | 12938 |")
    assert len(stale_lines(text, edited)) == 1
    assert failed_checks(text.replace("- ✅ beep ⊆ cd", "- ❌ beep ⊆ cd")) == [
        "E11 — Channel ablation: collision detection / no-CD / beeping: beep ⊆ cd"
    ]


def test_reporting_imports_load_no_experiment_code():
    """perfbench imports ``repro.reporting.bench``: that import, and
    ``import repro``, must not load the registry or what it imports."""
    code = (
        "import sys, repro, repro.reporting.bench; "
        "print([m for m in sys.modules if m.startswith(("
        "'repro.reporting.experiments', 'repro.baselines', "
        "'repro.wired', 'repro.variants'))])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "[]"
