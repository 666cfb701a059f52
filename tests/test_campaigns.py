"""Tests for Monte Carlo robustness campaigns (repro.campaigns)."""

import json
import os
import random
import time

import pytest

from repro.campaigns import (
    BUNDLE_FORMAT,
    CampaignSpec,
    config_from_spec,
    config_spec,
    create_campaign_queue,
    derive_trial,
    distributed_campaign,
    execute_trial,
    read_bundle,
    replay_trial,
    run_campaign,
    run_trial,
    serial_trial_loop,
    write_bundle,
)
from repro.engine import collect_queue, queue_worker
from repro.graphs.families import h_m

MIXED = (
    {"strategy": "none", "weight": 1.0},
    {"strategy": "random_budget", "weight": 1.0, "budget": 2},
    {"strategy": "phase_targeting", "weight": 1.0, "phase": 1, "hits": 1},
    {"strategy": "reactive", "weight": 1.0, "probability": 0.5, "budget": 1},
    {"strategy": "crash_sleep", "weight": 1.0, "count": 1},
)


def small_spec(**overrides):
    base = dict(
        name="t",
        seed=20260808,
        trials=24,
        n_values=(4, 5),
        span=2,
        strategies=MIXED,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpec:
    def test_roundtrip(self):
        spec = small_spec()
        assert CampaignSpec.from_dict(spec.as_dict()) == spec
        assert (
            CampaignSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
            == spec
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)
        with pytest.raises(ValueError):
            small_spec(n_values=())
        with pytest.raises(ValueError):
            small_spec(strategies=({"strategy": "martian", "weight": 1},))
        with pytest.raises(ValueError):
            small_spec(strategies=({"strategy": "none", "weight": 0},))

    def test_derive_trial_is_deterministic(self):
        spec = small_spec()
        for i in (0, 7, 23):
            a = derive_trial(spec, i)
            b = derive_trial(spec, i)
            assert a.seed == b.seed == spec.trial_seed(i)
            assert a.config == b.config
            assert a.strategy == b.strategy
        with pytest.raises(IndexError):
            derive_trial(spec, 24)

    def test_mix_draw_covers_all_strategies(self):
        spec = small_spec(trials=100)
        drawn = {
            derive_trial(spec, i).strategy["strategy"] for i in range(100)
        }
        assert drawn == {s["strategy"] for s in MIXED}


class TestConfigSpec:
    def test_roundtrip(self):
        cfg = h_m(3).normalize()
        assert config_from_spec(config_spec(cfg)) == cfg
        assert (
            config_from_spec(json.loads(json.dumps(config_spec(cfg)))) == cfg
        )

    def test_rejects_unstable_labels(self):
        cfg = h_m(2).relabel({v: (v,) for v in h_m(2).nodes})
        with pytest.raises(TypeError):
            config_spec(cfg)


class TestRunners:
    def test_run_campaign_equals_serial_loop(self):
        spec = small_spec()
        assert run_campaign(spec).results == serial_trial_loop(spec)

    def test_distributed_equals_in_process(self, tmp_path):
        spec = small_spec()
        run = distributed_campaign(
            spec, str(tmp_path / "q.sqlite"), num_workers=2
        )
        assert run.results == run_campaign(spec).results
        assert run.metrics == run_campaign(spec).metrics

    def test_distributed_does_not_wait_out_a_poll(self, tmp_path):
        """Local workers exit once nothing is leasable; only the drain
        guard, which a healthy run never enters, sleeps ``poll``."""
        spec = small_spec()
        t0 = time.monotonic()
        run = distributed_campaign(
            spec, str(tmp_path / "q.sqlite"), num_workers=2, poll=3.0
        )
        assert time.monotonic() - t0 < 3.0
        assert run.results == run_campaign(spec).results

    def test_trial_fault_isolation(self):
        """A pathological trial degrades to a recorded failure record,
        never an exception out of run_trial."""
        spec = small_spec(trials=60, strategies=MIXED)
        results = run_campaign(spec).results
        assert len(results) == 60
        assert all("outcome" in r and "digest" in r for r in results)

    def test_timeout_outcome_is_recorded(self):
        """A starved round budget lands in the 'timeout' bucket with a
        digest built from the deterministic diagnostics."""
        cfg = h_m(2)
        record = execute_trial(cfg, None, max_rounds=1, backend="reference")
        assert record["outcome"] == "timeout"
        assert record["digest"]
        assert record["leaders"] == []

    def test_metrics_shape(self):
        run = run_campaign(small_spec())
        metrics = run.metrics
        assert set(metrics) >= {
            "outcomes",
            "survival_rate",
            "boundary",
            "witnesses",
        }
        assert sum(metrics["outcomes"].values()) == 24
        for row in metrics["boundary"]:
            assert row["survived"] <= row["feasible"] <= row["trials"]
        assert run.describe()


class TestBundles:
    def test_write_read_replay(self, tmp_path):
        spec = small_spec()
        run = run_campaign(spec)
        manifest_path = run.write_bundle(str(tmp_path / "bundle"))
        manifest = read_bundle(manifest_path)
        assert manifest["campaign"] == spec.as_dict()
        assert manifest["trials"] == spec.trials
        for record in manifest["results"]:
            report = replay_trial(manifest, record["index"])
            assert report.match, report.describe()

    def test_replay_detects_tampering(self, tmp_path):
        spec = small_spec(trials=4)
        run = run_campaign(spec)
        results = [dict(r) for r in run.results]
        results[0]["digest"] = "0" * 64
        write_bundle(str(tmp_path / "b"), spec, results)
        manifest = read_bundle(str(tmp_path / "b"))
        assert not replay_trial(manifest, 0).match
        assert replay_trial(manifest, 1).match

    def test_replay_finds_trials_in_any_order(self, tmp_path):
        """Records need not sit at the position of their index: a
        shuffled manifest replays every trial, and an index it does not
        hold still raises ``KeyError``."""
        spec = small_spec(trials=8)
        results = list(run_campaign(spec).results)
        random.Random(3).shuffle(results)
        assert [r["index"] for r in results] != list(range(8))
        missing = results.pop(2)["index"]
        write_bundle(str(tmp_path / "b"), spec, results)
        manifest = read_bundle(str(tmp_path / "b"))
        for record in manifest["results"]:
            report = replay_trial(manifest, record["index"])
            assert report.index == record["index"]
            assert report.match, report.describe()
        for index in (missing, -1, 8):
            with pytest.raises(KeyError):
                replay_trial(manifest, index)

    def test_manifest_bytes_are_one_json_dumps(self, tmp_path):
        """The manifest is exactly the compact sorted ``json.dumps``
        rendering of its payload, written atomically (no temp file
        left behind)."""
        spec = small_spec(trials=6)
        run = run_campaign(spec)
        path = run.write_bundle(str(tmp_path / "b"))
        payload = {
            "format": BUNDLE_FORMAT,
            "campaign": spec.as_dict(),
            "trials": len(run.results),
            "results": run.results,
            "metrics": run.metrics,
        }
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
        assert os.listdir(str(tmp_path / "b")) == ["manifest.json"]

    def test_unknown_index_and_format(self, tmp_path):
        spec = small_spec(trials=2)
        run = run_campaign(spec)
        path = run.write_bundle(str(tmp_path / "b"))
        manifest = read_bundle(path)
        with pytest.raises(KeyError):
            replay_trial(manifest, 99)
        broken = dict(manifest)
        broken["format"] = 99
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(broken, fh)
        with pytest.raises(ValueError):
            read_bundle(path)


class TestQueue:
    def test_create_is_idempotent_and_resumable(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "q.sqlite")
        queue = create_campaign_queue(path, spec, num_shards=4)
        queue.close()
        # worker drains one shard, then a fresh coordinator resumes
        queue_worker(path, wait=False, max_shards=1)
        queue = create_campaign_queue(path, spec, num_shards=4)
        assert queue.counts()["done"] == 1
        queue.close()
        queue_worker(path, wait=False)
        run = collect_queue(path, wait=False)
        assert run.results == run_campaign(spec).results
