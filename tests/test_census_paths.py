"""Every way to run a census gives the same rows, down to the CLI table.

A census runs three ways: the serial oracle
(:func:`repro.analysis.census.census`), the in-process engine
(:func:`repro.engine.sharded_census`, behind :func:`random_census` and
the plain ``repro-radio census``), and the durable work queue
(:func:`repro.engine.distributed_census`, behind ``census --queue``),
which is also the only way to resume one. These tests run one seeded
population through all of them, and resume a half-finished queue from
the CLI.
"""

import pytest

from repro.analysis.census import (
    census,
    group_by_n,
    random_census,
    random_census_workload,
)
from repro.cli import build_parser, main
from repro.engine import (
    ResultCache,
    WorkQueue,
    census_queue_worker,
    create_census_queue,
    distributed_census,
    sharded_census,
)
from repro.reporting.tables import format_table
from repro.testing import random_census_configs

#: one seeded population, as the CLI spells it and as the API takes it
N_VALUES, SPAN, P, SAMPLES, SEED = [5, 6, 7], 2, 0.3, 8, 11
CLI_OPTS = [
    "census", "--n", "5,6,7", "--span", "2", "--p", "0.3",
    "--samples", "8", "--seed", "11", "--rounds",
]


def table_lines(text):
    """The table rows of a CLI or rendered census table."""
    return [line for line in text.splitlines() if line.startswith(("|", "+"))]


def cli(capsys, *args):
    assert main([*CLI_OPTS, *args]) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def workload():
    return random_census_workload(N_VALUES, SPAN, P, SAMPLES, SEED)


@pytest.fixture(scope="module")
def oracle():
    return census(
        random_census_configs(N_VALUES, SPAN, P, SAMPLES, SEED),
        group_by=group_by_n,
        measure_rounds=True,
    )


def test_every_census_path_gives_the_oracle_rows(
    workload, oracle, tmp_path, capsys
):
    kw = dict(group_by=group_by_n, measure_rounds=True)
    cache = ResultCache()
    runs = {
        "random_census": random_census(
            N_VALUES, SPAN, P, SAMPLES, SEED, measure_rounds=True
        ),
        "sharded x1": sharded_census(workload, cache=cache, **kw).result,
        "sharded x5": sharded_census(workload, num_shards=5, **kw).result,
    }
    warm = sharded_census(workload, num_shards=5, cache=cache, **kw)
    assert warm.stats.classified == 0
    runs["sharded x5, warm cache"] = warm.result
    runs["distributed x2"] = distributed_census(
        workload, str(tmp_path / "api.sqlite"), num_workers=2, **kw
    ).result
    for name, result in runs.items():
        assert result.rows == oracle.rows, name

    expected = table_lines(format_table(oracle.TABLE_HEADERS, oracle.as_table()))
    assert table_lines(cli(capsys)) == expected
    queued = cli(capsys, "--queue", str(tmp_path / "cli.sqlite"), "--workers", "2")
    assert table_lines(queued) == expected


def test_cli_queue_resumes_a_half_finished_census(workload, tmp_path, capsys):
    path = str(tmp_path / "census.sqlite")
    create_census_queue(
        path, workload, num_shards=4, measure_rounds=True, group_by=group_by_n
    ).close()
    assert census_queue_worker(path, max_shards=1).shards_total == 1
    with WorkQueue(path) as queue:
        assert queue.counts()["done"] == 1

    resumed = cli(capsys, "--shards", "4", "--queue", path)
    assert table_lines(resumed) == table_lines(cli(capsys))
    with WorkQueue(path) as queue:
        counts = queue.counts()
    assert counts["done"] == counts["total"] == 4


def test_workers_require_a_queue():
    with pytest.raises(SystemExit, match="--workers requires --queue"):
        main([*CLI_OPTS, "--workers", "2"])


def test_checkpoint_is_not_an_option(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*CLI_OPTS, "--checkpoint", "ckpt"])
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err
