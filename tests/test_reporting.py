"""Unit tests for the reporting helpers."""

import os

import pytest

import repro.reporting.bench as bench_mod
from repro.reporting.bench import available_cpus
from repro.reporting.series import ascii_chart, series_table, slope_annotation
from repro.reporting.tables import format_table, kv_block


class TestFormatTable:
    def test_basic(self):
        out = format_table(("a", "b"), [(1, 2), (30, 40)])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        assert "| 30" in out and "| 40" in out

    def test_title(self):
        out = format_table(("x",), [(1,)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_column_count_validated(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_alignment_numeric_right(self):
        out = format_table(("n", "name"), [(1, "aa"), (100, "b")])
        row = [l for l in out.splitlines() if "aa" in l][0]
        assert row.startswith("|   1")  # right-aligned number

    def test_explicit_aligns(self):
        out = format_table(("n",), [("x",)], aligns=["r"])
        assert "| x |" in out

    def test_float_formatting(self):
        out = format_table(("v",), [(3.14159265,)])
        assert "3.142" in out

    def test_empty_rows(self):
        out = format_table(("a",), [])
        assert "| a |" in out


class TestKvBlock:
    def test_alignment(self):
        out = kv_block("T", [("k", 1), ("longer", "v")])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].index(":") == lines[2].index(":")


class TestAsciiChart:
    def test_renders_points(self):
        out = ascii_chart([1, 2, 3], [1, 4, 9], title="squares")
        assert "squares" in out
        assert out.count("*") == 3

    def test_empty(self):
        assert "empty" in ascii_chart([], [], title="t")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_chart([1], [1, 2])

    def test_flat_series(self):
        out = ascii_chart([1, 2], [5, 5])
        assert "*" in out


class TestSeries:
    def test_series_table(self):
        out = series_table([1, 2], [10, 20], headers=("x", "y"))
        assert "| 10 |" in out

    def test_slope_annotation(self):
        text = slope_annotation([2, 4, 8], [4, 16, 64])
        assert "2.00" in text

    def test_slope_na(self):
        assert "n/a" in slope_annotation([1], [1])


class TestAvailableCpus:
    """Container-awareness of the CPU count benchmarks record and gate
    on: prefer the affinity mask (the cgroup/CI-correct number), fall
    back to ``os.cpu_count()`` where the platform has no affinity
    support."""

    def test_prefers_sched_getaffinity(self, monkeypatch):
        monkeypatch.setattr(
            bench_mod.os, "sched_getaffinity", lambda pid: {0, 3, 7}
        )
        monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: 64)
        assert available_cpus() == 3

    def test_falls_back_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(bench_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: 6)
        assert available_cpus() == 6

    def test_falls_back_when_cpu_count_unknown(self, monkeypatch):
        monkeypatch.delattr(bench_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: None)
        assert available_cpus() == 2

    def test_single_affinity_cpu_counts_one(self, monkeypatch):
        monkeypatch.setattr(
            bench_mod.os, "sched_getaffinity", lambda pid: {5}
        )
        assert available_cpus() == 1

    def test_matches_real_platform(self):
        """On this platform the helper agrees with whichever source it
        actually selected — both branches covered above, this pins the
        live wiring."""
        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 2)
        )
        assert available_cpus() == expected
