"""Unit tests for feasibility censuses."""

import os
import subprocess
import sys

from repro.analysis.census import CensusRow, census, group_by_n
from repro.core.configuration import Configuration, line_configuration
from repro.engine import RandomGnpWorkload, sharded_census
from repro.graphs.families import h_m, s_m

from conftest import random_config_batch


class TestCensus:
    def test_counts(self):
        result = census([h_m(1), h_m(2), s_m(1)])
        assert result.total == 3
        assert result.feasible == 2

    def test_grouping_default_by_n_span(self):
        result = census([h_m(1), s_m(1)])
        assert (4, 2) in result.rows  # H_1 span 2
        assert (4, 1) in result.rows  # S_1 span 1

    def test_custom_grouping(self):
        result = census([h_m(1), h_m(2), s_m(2)], group_by=lambda c: c.n)
        assert set(result.rows) == {4}
        row = result.rows[4]
        assert row.total == 3 and row.feasible == 2

    def test_measure_rounds(self):
        result = census([h_m(1), s_m(1)], measure_rounds=True)
        rows = result.sorted_rows()
        feasible_rows = [r for r in rows if r.feasible]
        assert all(r.mean_rounds > 0 for r in feasible_rows)

    def test_table_shape(self):
        result = census([h_m(1), s_m(1)])
        table = result.as_table()
        assert len(table) == len(result.rows)
        assert len(table[0]) == len(result.TABLE_HEADERS)


class TestCensusRow:
    def test_fractions(self):
        row = CensusRow(group="g", total=4, feasible=1, iterations_sum=8, rounds_sum=20)
        assert row.feasible_fraction == 0.25
        assert row.mean_iterations == 2.0
        assert row.mean_rounds == 20.0

    def test_empty_row_safe(self):
        row = CensusRow(group="g")
        assert row.feasible_fraction == 0.0
        assert row.mean_iterations == 0.0
        assert row.mean_rounds == 0.0


class TestRandomCensus:
    """The engine's random census, grouped by n (``repro-radio census``)."""

    def test_deterministic(self):
        a, b = (
            sharded_census(
                RandomGnpWorkload([5, 6], span=2, p=0.4, samples=5, seed=3),
                group_by=group_by_n,
            ).result
            for _ in range(2)
        )
        assert a.total == b.total == 10  # 2 sizes x 5 samples
        assert [r.feasible for r in a.sorted_rows()] == [
            r.feasible for r in b.sorted_rows()
        ]

    def test_groups_by_n(self):
        result = sharded_census(
            RandomGnpWorkload([4, 7], span=1, p=0.5, samples=3, seed=1),
            group_by=group_by_n,
        ).result
        assert set(result.rows) == {4, 7}

    def test_span_zero_never_feasible_for_n_ge_2(self):
        # span 0 = simultaneous wakeup: infeasible for every n >= 2.
        result = sharded_census(
            RandomGnpWorkload([4, 6], span=0, p=0.5, samples=6, seed=9),
            group_by=group_by_n,
        ).result
        assert result.feasible == 0


def _freeze(result):
    return {
        k: (r.total, r.feasible, r.iterations_sum, r.rounds_sum)
        for k, r in result.rows.items()
    }


def test_analysis_census_auto_equals_serial():
    cfgs = random_config_batch(50, base_seed=33)
    auto = _freeze(census(cfgs, measure_rounds=True))
    serial = _freeze(census(cfgs, measure_rounds=True, algorithm="reference"))
    assert auto == serial


def test_the_serial_census_loads_neither_the_engine_nor_the_kernel():
    """The oracle must stay independent of the fast paths it checks."""
    code = (
        "import sys\n"
        "from repro.analysis.census import census\n"
        "from repro.graphs.families import h_m, s_m\n"
        "census([h_m(1), h_m(2), s_m(1)], measure_rounds=True)\n"
        "print(sorted(m for m in sys.modules if m == 'repro.core.batch'\n"
        "             or m.startswith('repro.engine')))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
