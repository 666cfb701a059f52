"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestClassify:
    def test_line(self, capsys):
        assert main(["classify", "--line", "0,1,0"]) == 0
        out = capsys.readouterr().out
        assert "Yes" in out

    def test_family(self, capsys):
        assert main(["classify", "--family", "sm:2"]) == 0
        assert "No" in capsys.readouterr().out

    def test_verbose(self, capsys):
        main(["classify", "--line", "0,1", "-v"])
        assert "partition_1" in capsys.readouterr().out

    def test_gnp(self, capsys):
        assert main(["classify", "--gnp", "8,0.3,2,5"]) == 0
        out = capsys.readouterr().out
        assert "decision" in out

    def test_missing_config(self):
        with pytest.raises(SystemExit):
            main(["classify"])

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["classify", "--family", "zz:1"])

    @pytest.mark.parametrize("algorithm", ["auto", "compiled", "reference"])
    def test_algorithm_knob_same_answer(self, algorithm, capsys):
        assert main(
            ["classify", "--line", "0,1,0", "--algorithm", algorithm]
        ) == 0
        assert "Yes" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify", "--line", "0,1", "--algorithm", "quantum"])

    def test_profile_prints_op_totals_and_timing(self, capsys):
        assert main(
            ["classify", "--family", "gm:4", "--profile",
             "--algorithm", "compiled"]
        ) == 0
        out = capsys.readouterr().out
        assert "Profile" in out
        assert "algorithm" in out and "compiled" in out
        assert "per iteration" in out
        assert "triple ops" in out and "label ops" in out

    def test_profile_batch_has_wall_time_but_no_ops(self, capsys):
        pytest.importorskip("numpy")
        assert main(
            ["classify", "--line", "0,1,0", "--profile",
             "--algorithm", "batch"]
        ) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "batch does not meter" in out


class TestElect:
    def test_feasible(self, capsys):
        assert main(["elect", "--family", "hm:2"]) == 0
        assert "leader=" in capsys.readouterr().out

    def test_infeasible(self, capsys):
        assert main(["elect", "--family", "sm:2"]) == 0
        assert "no leader" in capsys.readouterr().out

    def test_verbose_history(self, capsys):
        main(["elect", "--line", "0,1", "-v"])
        assert "leader history" in capsys.readouterr().out


class TestCensus:
    def test_runs(self, capsys):
        assert main(
            ["census", "--n", "4,5", "--span", "1", "--samples", "3", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "census" in out.lower()
        assert " 4 |" in out and " 5 |" in out  # one row per size

    def test_algorithm_knob_identical_table(self, capsys):
        """The census table is bit-for-bit identical across algorithms."""
        base = ["census", "--n", "4,5", "--span", "1", "--samples", "4",
                "--seed", "3"]
        outputs = []
        for algorithm in ("reference", "compiled"):
            assert main(base + ["--algorithm", algorithm]) == 0
            out = capsys.readouterr().out
            outputs.append(out[: out.index("engine:")])  # table only
        assert outputs[0] == outputs[1]

    def test_stats_flag_prints_counters(self, capsys):
        assert main(
            ["census", "--n", "4", "--samples", "3", "--seed", "2", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "Engine stats" in out and "Cache stats" in out
        assert "coalesced" in out and "misses" in out

    def test_compact_cache_flag(self, tmp_path, capsys):
        from repro.analysis.census import random_census_workload
        from repro.engine import ResultCache, batch_records

        cache = str(tmp_path / "census.jsonl")
        # classify-only records, written through batch_records as the
        # service writes them (a classify-only census caches nothing)
        seeded = ResultCache(cache)
        batch_records(random_census_workload([4], 2, 0.3, 3, 2), seeded)
        seeded.close()
        base = ["census", "--n", "4", "--samples", "3", "--seed", "2", "--cache", cache]
        # the --rounds run upgrades every record: superseded lines appear
        assert main(base + ["--rounds", "--compact-cache"]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "dropped 3 superseded" in out
        with open(cache, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        keys = [json.loads(line)["key"] for line in lines]
        assert len(keys) == len(set(keys))  # no superseded duplicates left

    @pytest.mark.parametrize("mode", ["in-process", "queue"])
    def test_stats_json_prints_one_snapshot(self, mode, tmp_path, capsys):
        from repro import obs

        if mode == "in-process":
            extra = ["--rounds", "--cache", str(tmp_path / "census.jsonl")]
            groups = ["cache", "engine"]
        else:
            extra = ["--queue", str(tmp_path / "q.sqlite"), "--workers", "2"]
            groups = ["engine", "queue"]
        registered = obs.snapshot()["groups"]
        assert main(
            ["census", "--n", "4,5", "--span", "1", "--samples", "3",
             "--seed", "2", "--stats-json", *extra]
        ) == 0
        snap = json.loads(capsys.readouterr().out)  # one document, no more
        assert sorted(snap["groups"]) == groups
        assert snap["groups"]["engine"]["total_configs"] == 6
        if mode == "queue":
            queue = snap["groups"]["queue"]
            assert queue["done"] == queue["total"]
        assert obs.snapshot()["groups"] == registered  # groups unregistered

    def test_compact_cache_requires_cache(self):
        with pytest.raises(SystemExit):
            main(["census", "--n", "4", "--samples", "2", "--compact-cache"])

    def test_cache_requires_rounds(self, tmp_path):
        cache = tmp_path / "census.jsonl"
        for extra in ([], ["--compact-cache"]):
            with pytest.raises(SystemExit, match="--rounds"):
                main(["census", "--n", "4", "--samples", "2",
                      "--cache", str(cache), *extra])
        assert not cache.exists()

    def test_compact_cache_rejects_queue(self, tmp_path):
        with pytest.raises(SystemExit, match="--queue"):
            main(["census", "--n", "4", "--samples", "2", "--rounds",
                  "--cache", str(tmp_path / "c.jsonl"), "--queue",
                  str(tmp_path / "q.sqlite"), "--workers", "2",
                  "--compact-cache"])
        assert not (tmp_path / "q.sqlite").exists()


class TestDefeat:
    def test_all_defeated(self, capsys):
        assert main(["defeat", "--probe-m", "24"]) == 0
        out = capsys.readouterr().out
        assert "DEFEAT" in out.upper() or "yes" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
