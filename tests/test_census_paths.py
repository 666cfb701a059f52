"""Every way to run a census gives the same rows, down to the CLI table.

A census runs three ways: the serial oracle
(:func:`repro.analysis.census.census`), the in-process engine
(:func:`repro.engine.sharded_census`, behind :func:`random_census` and
the plain ``repro-radio census``), and the durable work queue
(:func:`repro.engine.distributed_census`, behind ``census --queue``),
which is also the only way to resume one. The HTTP service answers the
same questions one batch at a time, so its ``elect`` reports must add
up to the same rows. These tests run two seeded populations through all
of them, and through every classifier algorithm, and resume a
half-finished queue from the CLI: one whose members are all feasible,
and one with infeasible members (``null`` rounds) and members that
take more than one iteration.
"""

import json
import threading
import urllib.request

import pytest

from repro.analysis.census import (
    CensusResult,
    CensusRow,
    census,
    group_by_n,
    random_census,
    random_census_workload,
)
from repro.cli import build_parser, main
from repro.core.batch import HAVE_NUMPY
from repro.core.classifier import ALGORITHM_NAMES
from repro.engine import (
    ResultCache,
    WorkQueue,
    collect_queue,
    create_census_queue,
    distributed_census,
    queue_worker,
    sharded_census,
)
from repro.reporting.tables import format_table
from repro.service import config_to_json, make_server
from repro.testing import random_census_configs

#: every classifier algorithm (``batch`` only where numpy is importable)
ALGORITHMS = [a for a in ALGORITHM_NAMES if a != "batch" or HAVE_NUMPY]

#: seeded populations ``(n values, span, p, samples, seed)`` and their
#: oracle rows ``(n, total, feasible, iterations_sum, rounds_sum)``
POPULATIONS = {
    "all-feasible": (
        ([5, 6, 7], 2, 0.3, 8, 11),
        [(5, 8, 8, 8, 64), (6, 8, 8, 8, 64), (7, 8, 8, 8, 64)],
    ),
    "some-infeasible": (
        ([3, 4, 5, 6], 1, 0.5, 8, 11),
        [(3, 8, 6, 8, 30), (4, 8, 8, 8, 40), (5, 8, 6, 9, 30), (6, 8, 7, 10, 45)],
    ),
}


def table_lines(text):
    """The table rows of a CLI or rendered census table."""
    return [line for line in text.splitlines() if line.startswith(("|", "+"))]


def cli(capsys, opts, *args):
    assert main([*opts, *args]) == 0
    return capsys.readouterr().out


def served_census(configs):
    """Census rows grouped by ``n``, rebuilt from a live service's answer
    to one ``elect`` batch POST of ``configs``."""
    server = make_server(port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    batch = {"requests": [{**config_to_json(c), "mode": "elect"} for c in configs]}
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/classify",
            data=json.dumps(batch).encode("utf-8"),
            timeout=60,
        ) as resp:
            responses = json.loads(resp.read())["responses"]
    finally:
        server.shutdown()
        server.server_close()
        server.classifier.close()
        thread.join(timeout=5)
    result = CensusResult()
    for response in responses:
        report = response["report"]
        row = result.rows.setdefault(response["n"], CensusRow(group=response["n"]))
        row.total += 1
        row.feasible += int(report["feasible"])
        row.iterations_sum += report["iterations"]
        if report["feasible"]:
            row.rounds_sum += report["rounds"]
    return result


@pytest.fixture(scope="module", params=list(POPULATIONS))
def population(request):
    return POPULATIONS[request.param][0]


@pytest.fixture(scope="module")
def cli_opts(population):
    """The population as ``repro-radio census`` spells it."""
    ns, span, p, samples, seed = population
    return [
        "census", "--n", ",".join(map(str, ns)), "--span", str(span),
        "--p", str(p), "--samples", str(samples), "--seed", str(seed),
        "--rounds",
    ]


@pytest.fixture(scope="module")
def workload(population):
    return random_census_workload(*population)


@pytest.fixture(scope="module")
def oracle(population):
    return census(
        random_census_configs(*population),
        group_by=group_by_n,
        measure_rounds=True,
    )


def test_every_census_path_gives_the_oracle_rows(
    population, cli_opts, workload, oracle, tmp_path, capsys
):
    pinned = next(rows for pop, rows in POPULATIONS.values() if pop == population)
    assert [
        (r.group, r.total, r.feasible, r.iterations_sum, r.rounds_sum)
        for r in oracle.rows.values()
    ] == pinned
    kw = dict(group_by=group_by_n, measure_rounds=True)
    cache = ResultCache()
    runs = {
        "random_census": random_census(*population, measure_rounds=True),
        "sharded x1": sharded_census(workload, cache=cache, **kw).result,
        "sharded x5": sharded_census(workload, num_shards=5, **kw).result,
    }
    warm = sharded_census(workload, num_shards=5, cache=cache, **kw)
    assert warm.stats.classified == 0
    runs["sharded x5, warm cache"] = warm.result
    runs["distributed x2"] = distributed_census(
        workload, str(tmp_path / "api.sqlite"), num_workers=2, **kw
    ).result
    runs["HTTP service, one elect batch"] = served_census(
        random_census_configs(*population)
    )
    for algorithm in ALGORITHMS:
        runs[f"sharded, algorithm={algorithm}"] = sharded_census(
            workload, algorithm=algorithm, **kw
        ).result
    for name, result in runs.items():
        assert result.rows == oracle.rows, name

    expected = table_lines(format_table(oracle.TABLE_HEADERS, oracle.as_table()))
    assert table_lines(cli(capsys, cli_opts)) == expected
    queued = cli(
        capsys, cli_opts, "--queue", str(tmp_path / "cli.sqlite"), "--workers", "2"
    )
    assert table_lines(queued) == expected
    for algorithm in ALGORITHMS:
        out = cli(capsys, cli_opts, "--algorithm", algorithm)
        assert table_lines(out) == expected, algorithm


def test_cli_queue_resumes_a_half_finished_census(
    cli_opts, workload, tmp_path, capsys
):
    path = str(tmp_path / "census.sqlite")
    create_census_queue(
        path, workload, num_shards=4, measure_rounds=True, group_by=group_by_n
    ).close()
    assert queue_worker(path, max_shards=1)["shards"] == 1
    with WorkQueue(path) as queue:
        assert queue.counts()["done"] == 1

    resumed = cli(capsys, cli_opts, "--shards", "4", "--queue", path)
    assert table_lines(resumed) == table_lines(cli(capsys, cli_opts))
    with WorkQueue(path) as queue:
        counts = queue.counts()
    assert counts["done"] == counts["total"] == 4


def test_cli_worker_role_drains_a_census_queue(
    workload, oracle, tmp_path, capsys
):
    """``census --role worker --workers 2`` drains a queue whose census
    comes from its metadata, and the collected rows are the oracle's."""
    path = str(tmp_path / "census.sqlite")
    create_census_queue(
        path, workload, num_shards=4, measure_rounds=True, group_by=group_by_n
    ).close()
    assert main(["census", "--queue", path, "--role", "worker", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "queue: 0 pending, 0 leased, 4 done, 0 failed" in out
    assert collect_queue(path, wait=False).result.rows == oracle.rows


def test_workers_require_a_queue(cli_opts):
    with pytest.raises(SystemExit, match="--workers requires --queue"):
        main([*cli_opts, "--workers", "2"])


def test_checkpoint_is_not_an_option(cli_opts, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*cli_opts, "--checkpoint", "ckpt"])
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err
