"""Sharded census pipeline: equality with the serial path, CLI.

The pipeline's contract is bit-for-bit equality with
:func:`repro.analysis.census.census` for every shard count and cache
state — these tests pin that contract, including on the rendered table
bytes. ``tests/test_census_paths.py`` extends it across every way to
run a census, the work queue and its resume included.
"""

import pytest

from repro.analysis.census import census, group_by_n
from repro.engine import (
    EnumerationWorkload,
    RandomGnpWorkload,
    ResultCache,
    SequenceWorkload,
    as_workload,
    batch_records,
    plan_shards,
    sharded_census,
)
from repro.reporting.tables import format_table
from repro.testing import random_census_configs

from conftest import random_config_batch


def render(result) -> str:
    """The census table bytes (what the CLI prints)."""
    return format_table(result.TABLE_HEADERS, result.as_table())


@pytest.fixture(scope="module")
def workload():
    return RandomGnpWorkload([5, 6, 7], span=2, p=0.3, samples=8, seed=11)


@pytest.fixture(scope="module")
def serial(workload):
    return census(iter(workload), measure_rounds=True)


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_balanced_contiguous_cover(self):
        shards = plan_shards(10, 3)
        assert [(s.start, s.stop) for s in shards] == [(0, 4), (4, 7), (7, 10)]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_more_shards_than_items(self):
        shards = plan_shards(2, 5)
        assert [(s.start, s.stop) for s in shards] == [(0, 1), (1, 2)]

    def test_single_shard(self):
        (s,) = plan_shards(7, 1)
        assert (s.start, s.stop, s.size) == (0, 7, 7)

    def test_zero_items(self):
        assert plan_shards(0, 4) == []

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class TestWorkloads:
    def test_random_workload_slices_match_full_iteration(self, workload):
        full = list(workload)
        assert len(full) == len(workload) == 24
        sliced = list(workload.generate(0, 10)) + list(workload.generate(10, 24))
        assert sliced == full

    def test_random_workload_matches_serial_census_order(self, workload):
        # same seeding formula as the engine-free oracle generator ->
        # comparable row-for-row
        direct = census(
            random_census_configs([5, 6, 7], span=2, p=0.3, samples=8, seed=11),
            group_by=group_by_n,
        )
        engine = sharded_census(workload, group_by=lambda c: c.n, num_shards=4)
        assert engine.result.rows == direct.rows

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"n_values": [5, 0]}, "every n must be >= 1, got 0"),
            ({"span": -1}, "span must be >= 0"),
            ({"p": 1.5}, r"p must be in \[0, 1\]"),
            ({"p": -0.1}, r"p must be in \[0, 1\]"),
            ({"samples": -1}, "samples must be >= 0"),
        ],
        ids=["n", "span", "p-high", "p-low", "samples"],
    )
    def test_random_workload_refuses_bad_parameters(self, kw, message):
        args = {"n_values": [5], "span": 2, "p": 0.3, "samples": 4, "seed": 1}
        with pytest.raises(ValueError, match=message):
            RandomGnpWorkload(**{**args, **kw})

    def test_enumeration_workload_slices(self):
        w = EnumerationWorkload(3, 1)
        assert list(w.generate(2, 5)) == list(w)[2:5]

    def test_as_workload_coerces_sequences(self):
        batch = random_config_batch(4, base_seed=9, n_hi=5)
        w = as_workload(batch)
        assert isinstance(w, SequenceWorkload)
        assert list(w) == batch
        assert as_workload(w) is w


# ----------------------------------------------------------------------
# equality with the serial census
# ----------------------------------------------------------------------
class TestEquality:
    @pytest.mark.parametrize("num_shards", [1, 2, 5, 24, 100])
    def test_any_shard_count_bit_for_bit(self, workload, serial, num_shards):
        run = sharded_census(workload, num_shards=num_shards, measure_rounds=True)
        assert run.result.rows == serial.rows
        assert render(run.result) == render(serial)  # byte-identical table

    def test_warm_cache_bit_for_bit(self, workload, serial):
        cache = ResultCache()
        sharded_census(workload, cache=cache, measure_rounds=True)
        run = sharded_census(
            workload, num_shards=7, cache=cache, measure_rounds=True
        )
        assert run.stats.classified == 0
        assert render(run.result) == render(serial)

    def test_rounds_upgrade_on_cached_entries(self, workload, serial):
        # a cache populated WITHOUT rounds (batch_records, the service's
        # path; a classify-only census caches nothing) must upgrade
        cache = ResultCache()
        batch_records(workload, cache, measure_rounds=False)
        assert len(cache) > 0
        run = sharded_census(workload, cache=cache, measure_rounds=True)
        assert run.result.rows == serial.rows

    def test_foreign_cache_records_self_heal(self, workload, serial):
        # a cache polluted by a different evaluator's records (against
        # the one-cache-per-evaluator convention) is reclassified and
        # overwritten, not crashed on
        from repro.analysis.extremal import _feasible_record
        from repro.engine import cached_evaluate

        cache = ResultCache()
        for cfg in workload:
            cached_evaluate(cfg, cache, _feasible_record)
        run = sharded_census(workload, cache=cache, measure_rounds=True)
        assert run.stats.classified > 0
        assert render(run.result) == render(serial)

    def test_exhaustive_population_with_dedup(self):
        w = EnumerationWorkload(4, 1)
        direct = census(iter(w), measure_rounds=True)
        run = sharded_census(w, num_shards=6, measure_rounds=True)
        assert run.result.rows == direct.rows
        # the canonical cache classified strictly fewer than total configs,
        # and every item is accounted for exactly once
        assert run.stats.classified < run.stats.total_configs
        assert (
            run.stats.classified + run.stats.cache_hits + run.stats.deduped
            == run.stats.total_configs
        )
        # a classify-only census keys nothing: it classifies every item
        keyless = sharded_census(w, num_shards=6)
        assert keyless.result.rows == census(iter(w)).rows
        assert keyless.stats.classified == keyless.stats.total_configs == 90
        assert keyless.stats.cache_hits == keyless.stats.deduped == 0

    def test_random_census_engine_default_equals_reference(self):
        kw = dict(span=2, p=0.3, samples=6, seed=4)
        reference = census(random_census_configs([5, 6], **kw), group_by=group_by_n)
        workload = RandomGnpWorkload([5, 6], **kw)
        engine = sharded_census(workload, group_by=group_by_n).result
        sharded = sharded_census(workload, group_by=group_by_n, num_shards=3).result
        assert render(engine) == render(reference) == render(sharded)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def run_census(self, capsys, *extra):
        from repro.cli import main

        assert (
            main(
                [
                    "census",
                    "--n",
                    "5,6",
                    "--span",
                    "2",
                    "--samples",
                    "6",
                    "--seed",
                    "2",
                    *extra,
                ]
            )
            == 0
        )
        return capsys.readouterr().out

    def test_census_sharded_output_matches_plain(self, capsys, tmp_path):
        plain = self.run_census(capsys, "--rounds")
        sharded = self.run_census(
            capsys, "--rounds", "--shards", "3", "--cache", str(tmp_path / "c.sqlite")
        )
        table = lambda out: [  # noqa: E731
            line for line in out.splitlines() if line.startswith(("|", "+"))
        ]
        assert table(plain) == table(sharded)
        assert "engine:" in sharded and "cache:" in sharded

    def test_census_cache_reuse_across_invocations(self, capsys, tmp_path):
        cache = str(tmp_path / "c.sqlite")
        self.run_census(capsys, "--rounds", "--cache", cache)
        out = self.run_census(capsys, "--rounds", "--cache", cache)
        assert ", 0 classified" in out  # second CLI run fully cache-served
