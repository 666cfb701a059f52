#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper claim vs measured, for E1–E18.

Every section of EXPERIMENTS.md is one entry of the experiment registry
``repro.reporting.experiments``: this script runs each entry, prints its
time, and writes the rendered document — it is an artifact of the code,
never hand-edited. ``tests/test_experiments_md.py`` regenerates it and
compares it with the committed copy.

Run:  python examples/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.reporting.experiments import EXPERIMENTS, render


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "EXPERIMENTS.md"
    t0 = time.perf_counter()
    results = []
    for experiment in EXPERIMENTS:
        start = time.perf_counter()
        results.append((experiment, experiment.run()))
        seconds = time.perf_counter() - start
        print(f"{experiment.id.lower()}: {seconds:.1f}s", flush=True)
    out.write_text(render(results, time.perf_counter() - t0), encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
