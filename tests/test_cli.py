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

    def test_verbose_trace_ends_on_its_own_line(self, capsys):
        assert main(["classify", "--gnp", "12,0.3,2,7", "-v"]) == 0
        lines = capsys.readouterr().out.splitlines()
        block = lines.index("Classifier")
        assert lines[block - 1] == "  leader: node 0 (class 1)"

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

    @pytest.mark.parametrize("mode", ["in-process", "queue"])
    def test_stats_json_prints_one_snapshot(self, mode, tmp_path, capsys):
        from repro import obs

        if mode == "in-process":
            extra = ["--rounds", "--cache", str(tmp_path / "census.sqlite")]
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

    def test_cache_requires_rounds(self, tmp_path):
        cache = tmp_path / "census.sqlite"
        with pytest.raises(SystemExit, match="--rounds"):
            main(["census", "--n", "4", "--samples", "2", "--cache", str(cache)])
        assert not cache.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["census", "--n", "4", "--samples", "2", "--rounds"],
        ["census", "--n", "4", "--samples", "2", "--rounds", "--workers", "2",
         "--queue", "{queue}"],
        # the bad cap makes a serve that accepted the file exit, not serve
        ["serve", "--port", "0", "--max-connections", "0"],
    ],
    ids=["census", "census-queue", "serve"],
)
def test_a_file_that_is_not_a_result_store_is_refused(command, tmp_path):
    """A JSONL cache of an earlier build is not a store, and a store cannot
    be created in a directory that does not exist: the command exits with
    the message before any work, leaves the file as it was and creates no
    queue."""
    cache = tmp_path / "old.jsonl"
    cache.write_text('{"key":"k","record":{"feasible":true}}\n')
    before = cache.read_bytes()
    queue = tmp_path / "q.sqlite"
    argv = [arg.format(queue=queue) for arg in command]
    with pytest.raises(SystemExit, match="not a result cache"):
        main([*argv, "--cache", str(cache)])
    assert cache.read_bytes() == before
    missing = tmp_path / "missing" / "c.sqlite"
    with pytest.raises(SystemExit, match="does not exist"):
        main([*argv, "--cache", str(missing)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]


@pytest.mark.parametrize("queue", [False, True], ids=["in-process", "queue"])
@pytest.mark.parametrize(
    "bad",
    [("--n", "0"), ("--span", "-1"), ("--p", "1.5"), ("--samples", "-1")],
    ids=["n", "span", "p", "samples"],
)
def test_a_bad_census_parameter_is_refused_before_any_work(bad, queue, tmp_path):
    # the bad value comes last, so it overrides the good one
    argv = [
        "census", "--n", "5", "--samples", "4", "--rounds",
        "--cache", str(tmp_path / "c.sqlite"), *bad,
    ]
    if queue:
        argv += ["--queue", str(tmp_path / "q.sqlite"), "--workers", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("census: ")
    assert "\n" not in message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["census", "--n", "a"],
        ["census", "--n", "a", "--queue", "{queue}"],
        ["campaign", "run", "--n", "a"],
    ],
    ids=["census", "census-queue", "campaign-run"],
)
def test_a_bad_size_list_is_a_usage_error(command, tmp_path, capsys):
    queue = tmp_path / "q.sqlite"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(queue=queue) for arg in command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--n: expected comma-separated integers" in err
    assert not queue.exists()


def test_a_closed_stdout_ends_the_command_without_a_traceback(tmp_path):
    import os
    import subprocess
    import sys

    log = tmp_path / "t.jsonl"
    assert main(["census", "--n", "4", "--samples", "3", "--trace", str(log)]) == 0
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", "summarize", str(log)],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr


class TestDefeat:
    def test_all_defeated(self, capsys):
        assert main(["defeat", "--probe-m", "24"]) == 0
        out = capsys.readouterr().out
        assert "DEFEAT" in out.upper() or "yes" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
