"""Command-line interface.

Commands: ``classify`` (feasibility of one configuration), ``elect``
(dedicated election), ``census`` (engine-backed random census),
``serve`` (batch classification HTTP service), ``defeat`` (Prop 4.4
adversary), ``program`` (canonical-DRIP export/run), ``variants``
(cross-model census), ``wired`` (radio vs wired contrast), ``minspan``
(least feasible span), ``timeline`` (space-time grid), ``quotient``
(classifier quotient / symmetry skeleton), ``campaign`` (seeded
adversarial robustness campaigns with replayable bundles).

::

    repro-radio classify --line 0,1,0
    repro-radio classify --family hm:3
    repro-radio elect --family gm:2 --verbose
    repro-radio census --n 6,8,10 --span 2 --p 0.3 --samples 20 --seed 1
    repro-radio census --n 8 --samples 200 --shards 8 --rounds --cache census.sqlite
    repro-radio census --n 8 --samples 200 --queue queue.sqlite --workers 4 \\
        --rounds --cache census.sqlite
    repro-radio serve --port 8765 --cache service.sqlite
    repro-radio defeat

(Also runnable as ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.classifier import ALGORITHM_NAMES, classify, resolve_algorithm
from .core.configuration import Configuration, line_configuration
from .core.election import elect_leader
from .reporting.tables import format_table, kv_block


def _parse_family(spec: str) -> Configuration:
    from .graphs import families

    kind, _, arg = spec.partition(":")
    m = int(arg) if arg else 2
    table = {"gm": families.g_m, "hm": families.h_m, "sm": families.s_m}
    if kind not in table:
        raise SystemExit(f"unknown family {kind!r} (choose gm, hm, sm)")
    return table[kind](m)


def _parse_config(args: argparse.Namespace) -> Configuration:
    if args.line:
        tags = [int(t) for t in args.line.split(",")]
        return line_configuration(tags)
    if args.family:
        return _parse_family(args.family)
    if args.gnp:
        from .engine.workloads import seeded_config

        n, p, span, seed = args.gnp.split(",")
        return seeded_config(int(seed), int(n), int(span), float(p))
    raise SystemExit("specify a configuration: --line, --family or --gnp")


def _int_list(text: str) -> List[int]:
    """Argument type of ``--n``: a comma-separated list of ints."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--line", help="comma-separated tags of a path, e.g. 0,1,0")
    p.add_argument("--family", help="paper family, e.g. hm:3, sm:5, gm:2")
    p.add_argument(
        "--gnp", help="random configuration 'n,p,span,seed', e.g. 12,0.3,2,7"
    )


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    from .radio.backends import BACKEND_NAMES

    p.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help=(
            "simulation backend: the per-round reference loop, the "
            "event-driven fast executor, or auto (fast when the protocol "
            "is schedule-oblivious; see docs/simulation.md)"
        ),
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "append a JSONL run-event trace of this command to PATH "
            "(schema in docs/observability.md; render it with "
            "'repro-radio trace summarize PATH')"
        ),
    )
    p.add_argument(
        "--obs",
        action="store_true",
        help=(
            "enable in-memory tracing/telemetry without writing an event "
            "log; a span-tree/hotspot summary is printed to stderr at exit"
        ),
    )


def _add_algorithm_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--algorithm",
        choices=ALGORITHM_NAMES,
        default="auto",
        help=(
            "classifier implementation: the faithful O(n³Δ) reference, "
            "the compiled incremental core, the vectorized batch "
            "kernel, or auto (compiled for one configuration; batch for "
            "population sweeps when numpy is available — see "
            "docs/performance.md) — all bit-for-bit equal"
        ),
    )


def cmd_classify(args: argparse.Namespace) -> int:
    """Decide feasibility of one configuration (Theorem 3.17)."""
    from . import obs
    from .core.partition import OpCounter

    cfg = _parse_config(args)
    algorithm = resolve_algorithm(args.algorithm)
    # the batch kernel cannot meter ops; profile it on wall time alone
    meters = args.profile and algorithm != "batch"
    counter = OpCounter() if meters else None
    # --profile is span-based: the timing below is the cli.classify
    # span's recorded duration, so the profile measures exactly what a
    # --trace event log would. Enable in-memory tracing if the user
    # didn't already (--trace/--obs).
    profile_enabled_obs = False
    if args.profile and not obs.STATE.enabled:
        obs.enable()
        profile_enabled_obs = True
    with obs.span("cli.classify", algorithm=algorithm, n=cfg.n) as sp:
        trace = classify(cfg, algorithm=algorithm, counter=counter)
    elapsed = sp.duration or 0.0
    if profile_enabled_obs:
        obs.disable()
    if args.verbose:
        print(trace.describe())
    print(
        kv_block(
            "Classifier",
            [
                ("decision", trace.decision),
                ("iterations", trace.num_iterations),
                ("leader", trace.leader if trace.feasible else "-"),
                ("n", trace.config.n),
                ("span", trace.sigma),
                ("max degree", trace.config.max_degree),
            ],
        )
    )
    if args.profile:
        iters = max(trace.num_iterations, 1)
        rows = [
            ("algorithm", algorithm),
            ("wall time", f"{elapsed * 1e3:.3f} ms"),
            ("per iteration", f"{elapsed * 1e3 / iters:.3f} ms"),
        ]
        if counter is not None:
            rows += [
                ("triple ops", counter.triple_ops),
                ("label ops", counter.label_ops),
                ("total ops", counter.total),
            ]
        else:
            rows.append(("total ops", f"- ({algorithm} does not meter)"))
        print(kv_block("Profile", rows))
    return 0


def cmd_elect(args: argparse.Namespace) -> int:
    """Run the dedicated election algorithm (Theorem 3.15)."""
    cfg = _parse_config(args)
    result = elect_leader(cfg, backend=args.backend)
    print(result.describe())
    if args.verbose:
        stats = result.backend_stats
        if stats is not None:
            print(f"  {stats.describe()}")
        if result.elected:
            leader_history = result.execution.histories[result.leader]
            print(f"leader history: {leader_history.render()}")
    return 0 if result.elected or not result.trace.feasible else 1


def _census_queue_mode(args: argparse.Namespace) -> int:
    """The distributed roles of ``census`` (see docs/distributed.md).

    ``--role worker`` attaches to an existing queue and drains it with
    ``--workers`` forked worker processes, then polls until the queue is
    finished (the job comes from the queue metadata, not the command
    line, so it drains a campaign queue too); ``--role coordinator``
    enumerates the census into the queue, waits for external workers,
    and merges; ``--role auto`` does everything: coordinator plus
    ``--workers`` local worker processes.
    """
    import functools

    from .analysis.census import group_by_n
    from .engine import (
        DEFAULT_LEASE_TTL,
        QueueError,
        RandomGnpWorkload,
        WorkQueue,
        collect_queue,
        create_census_queue,
        distributed_census,
        queue_worker,
    )
    from .engine.queue import drain_with_local_workers

    lease_ttl = (
        args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL
    )
    if args.role == "worker":
        # a worker may be launched before its coordinator has created
        # the queue, or while it is writing the file's tables; wait
        # until the path opens as a queue instead of racing it
        import time as _time

        deadline = (
            _time.monotonic() + args.queue_timeout
            if args.queue_timeout
            else None
        )
        while True:
            try:
                WorkQueue(args.queue).close()
                break
            except QueueError:
                if deadline is not None and _time.monotonic() > deadline:
                    raise SystemExit(
                        f"census: no work queue at {args.queue!r} after "
                        f"{args.queue_timeout}s"
                    )
                _time.sleep(0.2)
        drain_with_local_workers(
            args.queue,
            functools.partial(queue_worker, lease_ttl=args.lease_ttl),
            num_workers=args.workers,
            poll=0.5,
        )
        with WorkQueue(args.queue) as queue:
            counts = queue.counts()
        if args.stats_json:
            _print_stats_json(queue=lambda: counts)
        else:
            print(
                f"  queue: {counts['pending']} pending, "
                f"{counts['leased']} leased, {counts['done']} done, "
                f"{counts['failed']} failed"
            )
        return 0

    workload = RandomGnpWorkload(
        args.n, args.span, args.p, args.samples, args.seed
    )
    num_shards = (
        args.shards if args.shards != 1 else max(4 * args.workers, 1)
    )
    if args.role == "coordinator":
        queue = create_census_queue(
            args.queue,
            workload,
            num_shards=num_shards,
            measure_rounds=args.rounds,
            algorithm=args.algorithm,
            group_by=group_by_n,
            cache_path=args.cache,
            lease_ttl=lease_ttl,
        )
        if not args.stats_json:
            print(f"  {queue.describe()} — waiting for workers")
        queue.close()
        run = collect_queue(args.queue, wait=True, timeout=args.queue_timeout)
    else:  # auto: coordinator + local workers in one call
        run = distributed_census(
            workload,
            args.queue,
            num_workers=args.workers,
            num_shards=args.shards if args.shards != 1 else None,
            measure_rounds=args.rounds,
            algorithm=args.algorithm,
            group_by=group_by_n,
            cache_path=args.cache,
            lease_ttl=lease_ttl,
        )
    with WorkQueue(args.queue) as queue:
        counts = queue.counts()
    if args.stats_json:
        _print_stats_json(engine=run.stats.as_dict, queue=lambda: counts)
        return 0
    result = run.result
    print(
        format_table(
            result.TABLE_HEADERS,
            result.as_table(),
            title=(
                f"Feasibility census: p={args.p}, span={args.span}, "
                f"{args.samples} samples per n ({args.workers} worker(s))"
            ),
        )
    )
    print(f"  {run.describe()}")
    print(
        f"  queue: {counts['total']} shard(s), {counts['retried']} retried, "
        f"{counts['reclaimed']} reclaimed"
    )
    if args.stats:
        print(kv_block("Engine stats", sorted(run.stats.as_dict().items())))
        print(kv_block("Queue stats", sorted(counts.items())))
    return 0


def _print_stats_json(**groups) -> None:
    """Emit ``obs.snapshot()`` as the sole stdout output (machine mode).

    Each keyword is a group provider (an ``as_dict``-style callable)
    registered for the snapshot only, so scripts parse JSON instead of
    scraping the human table.
    """
    import json as _json

    from . import obs

    for name, provider in groups.items():
        obs.registry.register_group(name, provider)
    try:
        print(_json.dumps(obs.snapshot(), indent=2, sort_keys=True))
    finally:
        for name in groups:
            obs.registry.unregister_group(name)


def cmd_census(args: argparse.Namespace) -> int:
    """Feasibility census over random configurations (engine-backed)."""
    import sqlite3

    from .analysis.census import group_by_n
    from .engine import (
        QueueError,
        RandomGnpWorkload,
        ResultCache,
        sharded_census,
    )

    if args.shards < 1:
        raise SystemExit("census: --shards must be >= 1")
    if args.cache and not args.rounds:
        raise SystemExit(
            "census: --cache requires --rounds (a census that only "
            "classifies computes no keys and uses no cache)"
        )
    if args.queue is None and args.role != "auto":
        raise SystemExit("census: --role requires --queue")
    if args.queue is None and args.workers is not None:
        raise SystemExit(
            "census: --workers requires --queue (it counts queue worker "
            "processes; an in-process census runs in this process)"
        )
    if args.queue:
        if args.workers is None:
            args.workers = 1
        try:
            return _census_queue_mode(args)
        except (QueueError, ValueError) as exc:  # a bad parameter or --cache
            raise SystemExit(f"census: {exc}")
        except OSError as exc:
            raise SystemExit(f"census: queue I/O failed: {exc}")
    try:
        workload = RandomGnpWorkload(
            args.n, args.span, args.p, args.samples, args.seed
        )
        cache = ResultCache(args.cache) if args.cache else ResultCache()
    except ValueError as exc:  # a bad parameter, or a cache that is not a store
        raise SystemExit(f"census: {exc}")
    try:
        run = sharded_census(
            workload,
            group_by=group_by_n,
            measure_rounds=args.rounds,
            num_shards=args.shards,
            cache=cache,
            algorithm=args.algorithm,
        )
    except sqlite3.Error as exc:
        raise SystemExit(f"census: cache I/O failed: {exc}")
    cache.close()
    result = run.result
    if args.stats_json:
        _print_stats_json(engine=run.stats.as_dict, cache=cache.stats.as_dict)
        return 0
    print(
        format_table(
            result.TABLE_HEADERS,
            result.as_table(),
            title=(
                f"Feasibility census: p={args.p}, span={args.span}, "
                f"{args.samples} samples per n"
            ),
        )
    )
    print(f"  {run.describe()}")
    print(f"  {cache.describe()}")
    if args.stats:
        engine_counts = sorted(run.stats.as_dict().items())
        cache_counts = sorted(cache.stats.as_dict().items())
        print(kv_block("Engine stats", engine_counts))
        print(kv_block("Cache stats", cache_counts))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve batch classification over HTTP (see docs/service.md)."""
    from .engine import ResultCache
    from .service import BatchClassifier, make_server
    from .service.server import run_server

    try:
        cache = ResultCache(args.cache) if args.cache else ResultCache()
    except ValueError as exc:  # not a result store, or no directory for one
        raise SystemExit(f"serve: {exc}")
    classifier = BatchClassifier(
        cache,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        algorithm=args.algorithm,
    )
    try:
        server = make_server(
            args.host,
            args.port,
            classifier,
            max_connections=args.max_connections,
            request_timeout=args.request_timeout,
            drain_timeout=args.drain_timeout,
        )
    except OSError as exc:
        raise SystemExit(f"serve: cannot bind {args.host}:{args.port}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    run_server(server)
    cache.close()
    return 0


def cmd_defeat(args: argparse.Namespace) -> int:
    """Run the Proposition 4.4 universal-algorithm adversary."""
    from .baselines.universal_candidates import candidate_portfolio, defeat

    rows = []
    all_defeated = True
    for cand in candidate_portfolio():
        rep = defeat(cand, probe_m=args.probe_m, backend=args.backend)
        all_defeated &= rep.defeated
        rows.append(
            (
                rep.candidate,
                rep.first_tag0_transmission
                if rep.first_tag0_transmission is not None
                else "-",
                f"H_{(rep.first_tag0_transmission or 0) + 1}",
                "crash" if rep.crashed else len(rep.leaders),
                "yes" if rep.defeated else "NO",
            )
        )
    print(
        format_table(
            ("candidate", "t", "killer", "leaders", "defeated"),
            rows,
            title="Proposition 4.4 adversary: every universal candidate fails",
        )
    )
    return 0 if all_defeated else 1


def cmd_program(args: argparse.Namespace) -> int:
    """Compile a canonical-DRIP program to JSON, or run one."""
    from .core.program import (
        compile_program,
        dumps,
        load,
        program_algorithm,
    )
    from .radio.simulator import simulate

    if args.run:
        program = load(args.run)
        cfg = _parse_config(args)
        algo = program_algorithm(program)
        execution = simulate(
            cfg.normalize(),
            algo.factory,
            max_rounds=cfg.span + program.done_round + 2,
        )
        leaders = execution.decide_leaders(algo.decision)
        print(
            kv_block(
                "Program run",
                [
                    ("program phases", program.num_phases),
                    ("done round", program.done_round),
                    ("leaders", leaders if leaders else "-"),
                ],
            )
        )
        return 0
    cfg = _parse_config(args)
    program = compile_program(cfg)
    text = dumps(program, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(text)} bytes, "
              f"{program.num_phases} phase(s), feasible={program.feasible})")
    else:
        print(text)
    return 0


def cmd_variants(args: argparse.Namespace) -> int:
    """Cross-model feasibility census (cd / no-cd / beep)."""
    from .reporting.tables import format_table as ft
    from .variants.census import cross_model_census, exhaustive_cross_model_census
    from .variants.channels import BEEP, CD, NO_CD

    if args.exhaustive:
        n, max_tag = (int(x) for x in args.exhaustive.split(","))
        census = exhaustive_cross_model_census(n, max_tag)
        title = f"Cross-model census: all connected configs n={n}, tags 0..{max_tag}"
    else:
        from .engine.workloads import seeded_config

        census = cross_model_census(
            seeded_config(args.seed + k, args.n, args.span, args.p)
            for k in range(args.samples)
        )
        title = (
            f"Cross-model census: {args.samples} random configs "
            f"n={args.n}, span={args.span}"
        )
    print(ft(census.TABLE_HEADERS, census.as_table(), title=title))
    checks = [
        ("no-cd ⊆ cd", census.inclusion_holds(NO_CD, CD)),
        ("beep ⊆ cd", census.inclusion_holds(BEEP, CD)),
        ("no-cd ⊆ beep", census.inclusion_holds(NO_CD, BEEP)),
        ("beep ⊆ no-cd", census.inclusion_holds(BEEP, NO_CD)),
    ]
    for label, ok in checks:
        print(f"  {label}: {'holds' if ok else 'violated'}")
    return 0


def cmd_wired(args: argparse.Namespace) -> int:
    """Radio vs wired (view refinement) feasibility contrast."""
    from .analysis.views import radio_vs_wired
    from .graphs.enumeration import enumerate_configurations
    from .reporting.tables import format_table as ft

    n, max_tag = (int(x) for x in args.exhaustive.split(","))
    census = radio_vs_wired(enumerate_configurations(n, max_tag))
    print(
        ft(
            census.TABLE_HEADERS,
            census.as_table(),
            title=f"Radio vs wired feasibility: n={n}, tags 0..{max_tag}",
        )
    )
    print(
        "  dominance (radio ⊆ wired): "
        + ("holds" if census.dominance_holds() else "VIOLATED")
    )
    return 0 if census.dominance_holds() else 1


def cmd_minspan(args: argparse.Namespace) -> int:
    """Least span making a graph shape feasible."""
    from .analysis.extremal import min_feasible_span
    from .graphs import generators as gen

    shapes = {
        "path": lambda n: gen.path_edges(n),
        "cycle": lambda n: gen.cycle_edges(n),
        "star": lambda n: gen.star_edges(n),
        "complete": lambda n: gen.complete_edges(n),
        "wheel": lambda n: gen.wheel_edges(n),
    }
    if args.shape not in shapes:
        raise SystemExit(f"unknown shape {args.shape!r} (choose {sorted(shapes)})")
    edges = shapes[args.shape](args.n)
    result = min_feasible_span(edges, args.n, max_span=args.max_span)
    print(
        kv_block(
            f"Minimal feasible span: {args.shape} n={args.n}",
            [
                ("span", result.span if result.span is not None else "> max-span"),
                ("exhaustive", result.exhaustive),
                ("witness tags", result.witness if result.witness else "-"),
            ],
        )
    )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render a canonical election as a space-time grid."""
    from .core.canonical import CanonicalProtocol
    from .radio.simulator import simulate
    from .reporting.timeline import legend, timeline, transmission_density

    cfg = _parse_config(args)
    trace = classify(cfg, algorithm=args.algorithm)
    protocol = CanonicalProtocol.from_trace(trace)
    network = trace.config
    execution = simulate(
        network,
        protocol.factory,
        max_rounds=protocol.round_budget(network.span),
        record_trace=True,
    )
    leaders = execution.decide_leaders(protocol.decision)
    print(f"decision: {trace.decision}; leaders: {leaders or '-'}")
    print(legend())
    end = args.end if args.end is not None else None
    print(timeline(execution, start=args.start, end=end))
    print(f"transmission density: {transmission_density(execution):.3f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a JSONL run-event trace (``trace summarize PATH``)."""
    from .obs import EventSchemaError, summarize_file

    try:
        summary = summarize_file(args.path, validate=not args.no_validate)
    except OSError as exc:
        raise SystemExit(f"trace: cannot read {args.path!r}: {exc}")
    except EventSchemaError as exc:
        raise SystemExit(f"trace: invalid event log: {exc}")
    print(summary.render(top=args.top, max_depth=args.depth))
    return 0


def cmd_queue_status(args: argparse.Namespace) -> int:
    """Show a work queue's shard-state summary (``queue status PATH``)."""
    from .engine import QueueError, WorkQueue

    try:
        with WorkQueue(args.path) as queue:
            counts = queue.counts()
            meta = queue.meta()
            shards = queue.shard_states() if args.shards or args.json else []
    except QueueError as exc:
        raise SystemExit(f"queue: {exc}")
    if args.json:
        import json as _json

        print(
            _json.dumps(
                {"counts": counts, "meta": meta, "shards": shards},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = [("job", meta.get("queue", "?"))]
    rows += [(k, counts[k]) for k in
             ("total", "pending", "leased", "done", "failed", "retried",
              "reclaimed")]
    workload = meta.get("workload")
    if isinstance(workload, dict):
        rows.append(("workload", workload.get("kind", "?")))
    elif workload is not None:
        rows.append(("workload", workload))
    rows.append(("items", meta.get("total", "?")))
    print(kv_block(f"Queue {args.path}", rows))
    if args.shards:
        print(
            format_table(
                ("shard", "range", "status", "attempts", "owner", "error"),
                [
                    (
                        s["index"],
                        f"[{s['start']},{s['stop']})",
                        s["status"],
                        s["attempts"],
                        s["owner"] or "-",
                        s["error"] or "-",
                    )
                    for s in shards
                ],
            )
        )
    return 0


def cmd_queue_requeue(args: argparse.Namespace) -> int:
    """Force leased/failed shards back to pending (``queue requeue``).

    An operator tool for queues whose workers are known dead; run it
    only when no worker is active (live leases are reset too).
    """
    from .engine import QueueError, WorkQueue

    try:
        with WorkQueue(args.path) as queue:
            reset = queue.requeue(include_failed=args.include_failed)
            print(f"requeued {reset} shard(s)")
            print(f"  {queue.describe()}")
    except QueueError as exc:
        raise SystemExit(f"queue: {exc}")
    return 0


def _parse_strategy_mix(spec: str) -> List[dict]:
    """Parse ``--mix`` entries like ``none=1,reactive=2,crash_sleep=1``.

    Each comma-separated entry is ``strategy`` or ``strategy=weight``;
    strategy parameters beyond the weight use their zoo defaults (run a
    campaign through the Python API for full parameter control).
    """
    entries: List[dict] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        entries.append(
            {"strategy": name.strip(), "weight": float(weight) if weight else 1.0}
        )
    if not entries:
        raise SystemExit("campaign: --mix must name at least one strategy")
    return entries


def _campaign_spec_from_args(args: argparse.Namespace):
    from .campaigns import CampaignSpec

    try:
        return CampaignSpec(
            name=args.name,
            seed=args.seed,
            trials=args.trials,
            n_values=tuple(args.n),
            span=args.span,
            p=args.p,
            strategies=tuple(_parse_strategy_mix(args.mix)),
            backend=args.backend,
        )
    except ValueError as exc:
        raise SystemExit(f"campaign: {exc}")


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run a seeded robustness campaign and write its bundle."""
    from .campaigns import distributed_campaign, run_campaign

    spec = _campaign_spec_from_args(args)
    if args.queue:
        extra = {} if args.lease_ttl is None else {"lease_ttl": args.lease_ttl}
        run = distributed_campaign(
            spec, args.queue, num_workers=max(1, args.workers), **extra
        )
    else:
        run = run_campaign(spec)
    if args.out:
        manifest = run.write_bundle(args.out)
        print(f"bundle: {manifest}")
    if args.json:
        import json as _json

        print(_json.dumps(run.metrics, indent=2, sort_keys=True))
        return 0
    print(run.describe())
    return 0


def cmd_campaign_replay(args: argparse.Namespace) -> int:
    """Replay recorded trials from a bundle; non-zero exit on mismatch."""
    from .campaigns import read_bundle, replay_trial

    try:
        manifest = read_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"campaign: cannot read bundle: {exc}")
    if args.index is not None:
        indices = [args.index]
    elif args.all:
        indices = [r["index"] for r in manifest["results"]]
    else:
        witnesses = (manifest.get("metrics") or {}).get("witnesses") or {}
        indices = sorted({i for ids in witnesses.values() for i in ids})
        if not indices:
            indices = [r["index"] for r in manifest["results"][:3]]
    failures = 0
    for index in indices:
        report = replay_trial(manifest, index, backend=args.backend)
        print(report.describe())
        if not report.match:
            failures += 1
    if failures:
        print(f"{failures} of {len(indices)} replay(s) MISMATCHED")
        return 1
    print(f"all {len(indices)} replay(s) matched bit-for-bit")
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    """Show the classifier quotient / symmetry skeleton."""
    from .analysis.quotient import classifier_quotient, infeasibility_certificate

    cfg = _parse_config(args)
    cert = infeasibility_certificate(cfg)
    if cert is None:
        print("configuration is feasible; classifier quotient:")
        print(classifier_quotient(cfg).render())
    else:
        print("configuration is INFEASIBLE; symmetry skeleton:")
        print(cert.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-radio",
        description=(
            "Deterministic leader election in anonymous radio networks "
            "(Miller, Pelc, Yadav; SPAA 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide feasibility of a configuration")
    _add_config_args(p)
    p.add_argument("-v", "--verbose", action="store_true")
    _add_algorithm_arg(p)
    p.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print OpCounter totals and span-based wall time for the "
            "chosen algorithm (speedups observable without the benchmark "
            "harness)"
        ),
    )
    _add_obs_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("elect", help="run the dedicated election algorithm")
    _add_config_args(p)
    p.add_argument("-v", "--verbose", action="store_true")
    _add_backend_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_elect)

    p = sub.add_parser("census", help="feasibility census over random configs")
    p.add_argument(
        "--n", type=_int_list, default="6,8,10", help="comma-separated sizes"
    )
    p.add_argument("--span", type=int, default=2)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", action="store_true", help="measure election rounds")
    p.add_argument(
        "--shards", type=int, default=1, help="split the workload into N shards"
    )
    p.add_argument(
        "--cache",
        help=(
            "SQLite result cache file, reused across runs "
            "(requires --rounds: a census that only classifies uses no cache)"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="queue worker processes (requires --queue; default 1)",
    )
    p.add_argument(
        "--queue",
        metavar="PATH",
        help=(
            "distributed mode: durable SQLite work queue shared by "
            "cooperating worker processes (see docs/distributed.md); "
            "rerunning against a half-finished queue resumes it"
        ),
    )
    p.add_argument(
        "--role",
        choices=("auto", "coordinator", "worker"),
        default="auto",
        help=(
            "distributed role: 'coordinator' enumerates the census into "
            "--queue and waits for external workers, 'worker' attaches "
            "to an existing queue of any job kind and drains it with "
            "--workers processes, 'auto' (default) runs coordinator plus "
            "--workers local worker processes"
        ),
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help=(
            "seconds a leased shard stays claimed without a heartbeat "
            "before it is reclaimed (default 30)"
        ),
    )
    p.add_argument(
        "--queue-timeout",
        type=float,
        default=None,
        help=(
            "distributed mode: seconds a coordinator waits for workers "
            "to finish the queue, and a worker waits for the queue file "
            "to appear (default: wait indefinitely)"
        ),
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print detailed engine/cache hit, miss and collapse counters",
    )
    p.add_argument(
        "--stats-json",
        action="store_true",
        help=(
            "machine-readable mode: print the obs.snapshot() dict (with "
            "this run's engine/cache counters as groups) as JSON instead "
            "of the human table — see docs/observability.md"
        ),
    )
    _add_algorithm_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser(
        "serve", help="serve batch classification over HTTP (JSON endpoint)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 picks a free port")
    p.add_argument(
        "--cache", help="SQLite result cache file (shared with census)"
    )
    p.add_argument(
        "--max-batch", type=int, default=64, help="max requests per engine batch"
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="cold-miss queue bound; submits beyond it block (backpressure)",
    )
    p.add_argument(
        "--max-connections",
        type=int,
        default=128,
        help="concurrent connection cap; extras get an immediate 503",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help=(
            "per-request deadline in seconds (body read + classification); "
            "slow reads get 408, slow classifications 503 with their "
            "pending batch slots freed"
        ),
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to let in-flight requests finish on shutdown",
    )
    _add_algorithm_arg(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace", help="inspect JSONL run-event traces (--trace logs)"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="render the span tree, top-N hotspots and shard progress",
    )
    ps.add_argument("path", help="JSONL event log written by --trace")
    ps.add_argument(
        "--top", type=int, default=10, help="hotspot rows to show"
    )
    ps.add_argument(
        "--depth", type=int, default=4, help="span-tree depth to render"
    )
    ps.add_argument(
        "--no-validate",
        action="store_true",
        help="skip per-event schema validation while reading",
    )
    ps.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "queue",
        help=(
            "inspect/repair a work queue (census --queue, "
            "campaign run --queue)"
        ),
    )
    qsub = p.add_subparsers(dest="queue_command", required=True)
    qs = qsub.add_parser(
        "status", help="shard-state counts and metadata of a work queue"
    )
    qs.add_argument("path", help="SQLite work queue file (--queue PATH)")
    qs.add_argument(
        "--shards", action="store_true", help="also list per-shard rows"
    )
    qs.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    qs.set_defaults(func=cmd_queue_status)
    qr = qsub.add_parser(
        "requeue",
        help=(
            "force leased (and with --include-failed, failed) shards back "
            "to pending; run only when no worker is active"
        ),
    )
    qr.add_argument("path", help="SQLite work queue file")
    qr.add_argument(
        "--include-failed",
        action="store_true",
        help="also requeue permanently failed shards with a fresh attempt budget",
    )
    qr.set_defaults(func=cmd_queue_requeue)

    p = sub.add_parser(
        "campaign",
        help="seeded adversarial robustness campaigns (see docs/robustness.md)",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)
    cr = csub.add_parser(
        "run", help="run a Monte Carlo campaign and write a replayable bundle"
    )
    cr.add_argument("--name", default="cli", help="campaign name for the bundle")
    cr.add_argument("--seed", type=int, default=1)
    cr.add_argument("--trials", type=int, default=100)
    cr.add_argument(
        "--n",
        type=_int_list,
        default="4,5,6",
        help="comma-separated config sizes",
    )
    cr.add_argument("--span", type=int, default=2)
    cr.add_argument("--p", type=float, default=0.3)
    cr.add_argument(
        "--mix",
        default="none=1,random_budget=1,reactive=1,crash_sleep=1",
        help=(
            "adversary strategy mix as 'name=weight,...' over "
            "none, random_budget, phase_targeting, reactive, crash_sleep"
        ),
    )
    cr.add_argument(
        "--out", metavar="DIR", help="write the bundle manifest to DIR"
    )
    cr.add_argument(
        "--queue",
        metavar="PATH",
        help=(
            "distributed mode: fan shards through a durable SQLite work "
            "queue at PATH with --workers worker processes"
        ),
    )
    cr.add_argument(
        "--workers", type=int, default=2, help="worker processes with --queue"
    )
    cr.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="seconds a leased shard survives without a heartbeat",
    )
    cr.add_argument(
        "--json", action="store_true", help="print metrics as JSON"
    )
    _add_backend_arg(cr)
    _add_obs_args(cr)
    cr.set_defaults(func=cmd_campaign_run)
    cp = csub.add_parser(
        "replay",
        help=(
            "re-execute recorded trials from a bundle manifest and check "
            "their digests bit-for-bit (witness trials by default)"
        ),
    )
    cp.add_argument("bundle", help="bundle directory or manifest.json path")
    cp.add_argument(
        "--index", type=int, default=None, help="replay one specific trial"
    )
    cp.add_argument(
        "--all", action="store_true", help="replay every recorded trial"
    )
    cp.add_argument(
        "--backend",
        default=None,
        help=(
            "override the recorded simulation backend (reference, fast "
            "or auto); default replays on the backend the record names"
        ),
    )
    cp.set_defaults(func=cmd_campaign_replay)

    p = sub.add_parser("defeat", help="run the Prop 4.4 universal-algorithm adversary")
    p.add_argument("--probe-m", type=int, default=64)
    _add_backend_arg(p)
    p.set_defaults(func=cmd_defeat)

    p = sub.add_parser(
        "program",
        help="compile a configuration's canonical DRIP to JSON, or run one",
    )
    _add_config_args(p)
    p.add_argument("--out", help="write the program JSON here (default stdout)")
    p.add_argument("--run", help="run a previously exported program file")
    p.set_defaults(func=cmd_program)

    p = sub.add_parser(
        "variants", help="cross-model feasibility census (cd / no-cd / beep)"
    )
    p.add_argument(
        "--exhaustive", help="'n,max_tag': enumerate all small configurations"
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--span", type=int, default=2)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser(
        "wired", help="radio vs wired (view refinement) feasibility contrast"
    )
    p.add_argument("--exhaustive", default="4,1", help="'n,max_tag'")
    p.set_defaults(func=cmd_wired)

    p = sub.add_parser(
        "minspan", help="least span making a graph shape feasible"
    )
    p.add_argument("--shape", default="path")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--max-span", type=int, default=4)
    p.set_defaults(func=cmd_minspan)

    p = sub.add_parser(
        "timeline", help="render a canonical election as a space-time grid"
    )
    _add_config_args(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int, default=None)
    _add_algorithm_arg(p)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser(
        "quotient", help="show the classifier quotient / symmetry skeleton"
    )
    _add_config_args(p)
    p.set_defaults(func=cmd_quotient)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The global observability flags (``--trace PATH`` / ``--obs``, on the
    commands that do real work) are honored here: tracing is enabled
    before the command runs and disabled after, so every span the
    command's layers open lands in one run-event log. A command whose
    stdout reader goes away (``| head``) exits 1 without a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        code = _run_command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader went away (``| head``): stop quietly, and send
        # what is still buffered to devnull so the final flush cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run_command(args: argparse.Namespace) -> int:
    trace_path = getattr(args, "trace", None)
    want_obs = bool(trace_path) or getattr(args, "obs", False)
    if not want_obs:
        return args.func(args)
    from . import obs

    obs.enable(trace_path=trace_path)
    try:
        return args.func(args)
    finally:
        tracer = obs.disable()
        if getattr(args, "obs", False) and tracer is not None:
            from .obs.summary import summarize_events

            print(summarize_events(tracer.events).render(), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
