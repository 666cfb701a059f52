"""End-to-end benchmark of the census, campaign and service paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census_small_queue --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, scaled
to a nominal host speed (see ``hostclock.py``);
``--trace 1`` runs a warm-up, an untraced baseline and a traced pass and
reports the per-layer ledger. The metric names and units are those declared in
``BENCHMARK.json``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output was wrong. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    from repro.reporting.bench import host_metadata

    import campaign
    import census
    import service
    from common import Ledger, git_rev, layer_metrics, midmean, scratch_dir, timed_setups
    from hostclock import HostClock, scale
except ImportError as exc:
    print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
    sys.exit(2)


class Outcome:
    """What one run measured: metrics, checked operations, failures."""

    def __init__(self, metrics, attempted, failed, notes=None):
        self.metrics = metrics
        self.attempted = attempted
        self.failed = failed
        self.notes = notes or {}


def subdir(tmp, name):
    """A new directory ``name`` under ``tmp``."""
    path = os.path.join(tmp, str(name))
    os.makedirs(path)
    return path


def repeat_passes(seconds, one_pass, clock):
    """Call ``one_pass(rep)`` until ``seconds`` have passed (at least once).

    ``one_pass`` returns ``(per-pass metrics, attempted, failed)``; its
    metrics are times. Each pass runs between two samples of ``clock``,
    and its times are scaled to the nominal host speed. Returns the list
    of scaled per-pass metrics, the summed counts and the clock samples.
    """
    per_pass, attempted, failed = [], 0, 0
    samples = [clock.sample()]
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        metrics, tried, wrong = one_pass(len(per_pass))
        samples.append(clock.sample())
        factor = scale(samples[-2], samples[-1])
        per_pass.append({name: value * factor for name, value in metrics.items()})
        attempted += tried
        failed += wrong
    return per_pass, attempted, failed, samples


def run_metrics(setup_s, per_pass):
    """A run's end-to-end metrics: each the midmean of its pass values.

    The mean of the middle half of the passes ignores single outlier
    passes, such as one whose reference samples caught a brief stall.
    """
    metrics = {"setup_s": setup_s}
    for name in per_pass[0]:
        metrics[name] = midmean(p[name] for p in per_pass)
    return metrics


def run_notes(per_pass, samples, **extra):
    """The ``run`` line's notes: pass count and the host's reference speed."""
    return {"passes": len(per_pass), "reference_ms": midmean(samples) * 1e3, **extra}


def as_batch(one_pass):
    """Adapt a batch pass returning ``([cold_s, warm_s], ...)`` to metrics.

    A batch pass holds one warm operation, so its tail is that operation.
    """

    def metrics_pass(rep):
        (cold, warm), attempted, failed = one_pass(rep)
        metrics = {"cold_ms": cold * 1e3, "warm_ms": warm * 1e3, "warm_tail_ms": warm * 1e3}
        return metrics, attempted, failed

    return metrics_pass


def untraced_baseline(one_pass):
    """Untraced passes to compare a traced pass against.

    The first pass in a process pays one-off warm-up costs, so it only
    warms up; the second is the baseline. Returns the baseline pass's
    result and the checks of both passes, ``(result, attempted, failed)``.
    """
    attempted = failed = 0
    for rep in ("warmup", "baseline"):
        result, tried, wrong = one_pass(rep)
        attempted += tried
        failed += wrong
    return result, attempted, failed


def census_workload(setup, untraced, traced):
    """Runner for a census workload (cold census, then a restart)."""

    def run(seed, seconds, trace, tmp, clock):
        (workload, oracle), setup_s = timed_setups(lambda: setup(seed), clock)

        def one_pass(rep):
            walls, runs = untraced(workload, subdir(tmp, f"pass{rep}"))
            return walls, len(runs), sum(r.result.rows != oracle for r in runs)

        if not trace:
            per_pass, attempted, failed, samples = repeat_passes(
                seconds, as_batch(one_pass), clock
            )
            return Outcome(
                run_metrics(setup_s, per_pass), attempted, failed, run_notes(per_pass, samples)
            )
        walls, attempted, failed = untraced_baseline(one_pass)
        ledger = Ledger()
        t0 = time.perf_counter()
        busy, rows, extra = traced(workload, subdir(tmp, "traced"), ledger)
        overhead = (time.perf_counter() - t0) / sum(walls)
        attempted += len(rows)
        failed += sum(r != oracle for r in rows)
        return Outcome(
            layer_metrics(ledger, busy_s=busy, overhead=overhead, extra=extra),
            attempted,
            failed,
        )

    return run


def campaign_workload(seed, seconds, trace, tmp, clock):
    """Runner for ``campaign_mixed`` (campaign + bundle, then full replay)."""
    (spec, expected), setup_s = timed_setups(lambda: campaign.setup(seed), clock)
    first = []

    def one_pass(rep):
        walls, results, replays = campaign.campaign_pass(spec, os.path.join(tmp, f"b{rep}"))
        wrong = campaign.failures(results, replays, expected)
        if not first:
            first.append(results)
        elif results != first[0]:
            wrong += 1
        return walls, len(results) + len(replays), wrong

    if not trace:
        per_pass, attempted, failed, samples = repeat_passes(
            seconds, as_batch(one_pass), clock
        )
        return Outcome(
            run_metrics(setup_s, per_pass), attempted, failed, run_notes(per_pass, samples)
        )
    walls, attempted, failed = untraced_baseline(one_pass)
    ledger = Ledger()
    wall, results, replays, extra = campaign.traced_pass(spec, os.path.join(tmp, "traced"), ledger)
    attempted += len(results) + len(replays)
    failed += campaign.failures(results, replays, expected) + int(results != first[0])
    return Outcome(
        layer_metrics(ledger, busy_s=wall, overhead=wall / sum(walls), extra=extra),
        attempted,
        failed,
    )


def service_workload(seed, seconds, trace, tmp, clock):
    """Runner for ``service_mixed`` (repeated open-loop passes)."""
    traffic, setup_s = timed_setups(lambda: service.setup(seed), clock)
    checked, cpus = [], []

    def one_pass(_rep):
        results, cpu = service.one_pass(traffic)
        checked.extend(results)
        cpus.append(cpu)
        wrong = sum(not ok for _lat, _late, ok in results)
        return service.latency_metrics(traffic, results), len(results), wrong

    if not trace:
        per_pass, attempted, failed, samples = repeat_passes(seconds, one_pass, clock)
        notes = run_notes(per_pass, samples, lateness_ms=service.lateness_ms(checked))
        return Outcome(run_metrics(setup_s, per_pass), attempted, failed, notes)
    _metrics, attempted, failed = untraced_baseline(one_pass)
    ledger = Ledger()
    traced, traced_cpu, extra = service.traced_pass(traffic, ledger)
    attempted += len(traced)
    failed += sum(not ok for _lat, _late, ok in traced)
    notes = {"lateness_ms": service.lateness_ms(traced)}
    return Outcome(
        layer_metrics(ledger, busy_s=traced_cpu, overhead=traced_cpu / cpus[-1], extra=extra),
        attempted,
        failed,
        notes,
    )


WORKLOADS = {
    "census_large": census_workload(census.large_setup, census.large_pass, census.large_traced),
    "census_small_queue": census_workload(
        census.queue_setup, census.queue_pass, census.queue_traced
    ),
    "campaign_mixed": campaign_workload,
    "service_mixed": service_workload,
}


def declared_units(trace: bool):
    """``{metric: unit}`` declared in ``BENCHMARK.json`` for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = declared_units(bool(args.trace))
    with scratch_dir() as tmp, HostClock() as clock:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), tmp, clock)
    if set(outcome.metrics) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(outcome.metrics) ^ set(units))} "
            "differ from BENCHMARK.json"
        )
    for name, unit in units.items():
        print(f"{name:32s} {outcome.metrics[name]:14.6f} {unit}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "host": host_metadata(),
        **outcome.notes,
    }
    print("run " + json.dumps(stamp, sort_keys=True))
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
