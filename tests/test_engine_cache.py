"""Engine cache correctness: canonical keying and the SQLite store.

The load-bearing property: classifying a configuration and a relabeled
isomorph of it produces ONE cache entry and identical reports — that is
what makes the canonical-form memoization sound.
"""

import hashlib
import json
import sqlite3
import time

import pytest

from repro.core.classifier import classify
from repro.core.configuration import Configuration
from repro.engine import (
    ResultCache,
    cached_evaluate,
    canonical_key,
    census_record,
    certificate_key,
    default_keyer,
    labeled_key,
)

from conftest import random_config_batch

#: The seed's brute-force canonization ceiling; the refinement canonizer
#: removed it, and the tests below pin that keying collapses beyond it.
OLD_CANONICAL_N_LIMIT = 10


def _put_burst(path: str, prefix: str, count: int) -> None:
    """Subprocess body: hammer `count` puts into a shared store."""
    cache = ResultCache(path)
    for i in range(count):
        cache.put(f"{prefix}{i}", {"writer": prefix, "i": i, "pad": "x" * 64})
    cache.close()


def relabel(cfg: Configuration, perm) -> Configuration:
    """Apply a node permutation (dict old -> new) to a configuration."""
    return Configuration(
        [(perm[u], perm[v]) for u, v in cfg.edges],
        {perm[v]: cfg.tag(v) for v in cfg.nodes},
    )


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_relabeled_isomorph_same_canonical_key(self):
        cfg = Configuration([(0, 1), (1, 2), (2, 3), (1, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        iso = relabel(cfg, {0: 3, 1: 0, 2: 2, 3: 1})
        assert canonical_key(cfg) == canonical_key(iso)

    def test_tag_shift_same_key(self):
        cfg = Configuration([(0, 1), (1, 2)], {0: 1, 1: 2, 2: 1})
        shifted = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
        assert canonical_key(cfg) == canonical_key(shifted)
        assert labeled_key(cfg) == labeled_key(shifted)

    def test_non_isomorphic_different_key(self):
        path = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
        triangle = Configuration([(0, 1), (1, 2), (0, 2)], {0: 0, 1: 1, 2: 0})
        other_tags = Configuration([(0, 1), (1, 2)], {0: 1, 1: 0, 2: 0})
        assert canonical_key(path) != canonical_key(triangle)
        assert canonical_key(path) != canonical_key(other_tags)

    def test_labeled_key_does_not_collapse_isomorphs(self):
        cfg = Configuration([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2})
        iso = relabel(cfg, {0: 2, 1: 1, 2: 0})
        assert labeled_key(cfg) != labeled_key(iso)
        assert canonical_key(cfg) == canonical_key(iso)

    def test_default_keyer_is_canonical_at_every_size(self):
        small = Configuration([(0, 1)], {0: 0, 1: 1})
        assert default_keyer(small) == canonical_key(small)
        big_n = OLD_CANONICAL_N_LIMIT + 2
        big = Configuration(
            [(i, i + 1) for i in range(big_n - 1)],
            {i: i % 2 for i in range(big_n)},
        )
        # above the seed's brute-force ceiling, the keyer still canonizes
        assert default_keyer(big) == canonical_key(big)
        # ... and therefore collapses relabeled isomorphs the old
        # labeled-key fallback kept apart
        iso = relabel(big, {i: (i * 7 + 3) % big_n for i in range(big_n)})
        assert default_keyer(big) == default_keyer(iso)
        assert labeled_key(big) != labeled_key(iso)

    def test_certificate_key_collapses_isomorphs(self):
        cfg = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        iso = relabel(cfg, {0: 3, 1: 1, 2: 0, 3: 2})
        assert certificate_key(cfg) == certificate_key(iso)
        other = Configuration([(0, 1), (1, 2), (2, 3)], {0: 2, 1: 1, 2: 0, 3: 0})
        assert certificate_key(cfg) != certificate_key(other)

    def test_parent_scheme_entry_is_a_miss(self, tmp_path):
        """A store holding an entry under the parent scheme — the
        unprefixed digest of the brute-force-defined form — gives the
        versioned keyer a miss and a fresh record, never the stored one."""
        from repro.engine.keys import KEY_SCHEME, _digest
        from repro.testing import bruteforce_canonical_form

        cfg = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        n, tagvec, edges = bruteforce_canonical_form(cfg)
        parent_key = _digest([n, list(tagvec), [list(e) for e in edges]])
        stale = {"feasible": "stale", "iterations": -1, "rounds": None}
        path = str(tmp_path / "parent.sqlite")
        ResultCache(path).put(parent_key, stale)

        cache = ResultCache(path)
        assert cache.peek(parent_key) == stale  # the old entry is loaded ...
        key = canonical_key(cfg)
        assert key.startswith(KEY_SCHEME + ":") and key != parent_key
        record = cached_evaluate(cfg, cache, census_record)
        assert record == census_record(cfg) != stale  # ... but never served
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_canonical_key_random_isomorph_batch(self):
        import random

        for i, cfg in enumerate(random_config_batch(10, base_seed=77, n_hi=6)):
            nodes = list(cfg.nodes)
            shuffled = list(nodes)
            random.Random(i).shuffle(shuffled)
            iso = relabel(cfg, dict(zip(nodes, shuffled)))
            assert canonical_key(cfg) == canonical_key(iso)


# ----------------------------------------------------------------------
# cache behavior
# ----------------------------------------------------------------------
class TestResultCache:
    def test_isomorph_yields_one_entry_and_identical_report(self):
        cfg = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        iso = relabel(cfg, {0: 2, 1: 3, 2: 1, 3: 0})
        cache = ResultCache()
        rec_a = cached_evaluate(cfg, cache, census_record)
        rec_b = cached_evaluate(iso, cache, census_record)
        assert len(cache) == 1  # one canonical entry for the pair
        assert rec_a is rec_b  # literally the same cached record
        # and the cached verdict matches a fresh classification of both
        assert rec_a["feasible"] == classify(cfg).feasible == classify(iso).feasible
        assert rec_a["iterations"] == classify(iso).num_iterations
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_put_overwrites_without_growth(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert len(cache) == 1
        assert cache.peek("k") == {"v": 2}

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        c1 = ResultCache(path)
        c1.put("k1", {"feasible": True, "iterations": 2, "rounds": None})
        c1.put("k2", {"feasible": False, "iterations": 1, "rounds": None})
        c2 = ResultCache(path)
        assert len(c2) == 2
        assert c2.stats.loaded == 2
        assert c2.get("k1") == {"feasible": True, "iterations": 2, "rounds": None}

    def test_last_line_wins_on_duplicate_keys(self, tmp_path):
        """The last put of a key wins across a reopen, in one row."""
        path = str(tmp_path / "cache.sqlite")
        writer = ResultCache(path)
        writer.put("k", {"v": 1})
        writer.put("k", {"v": 2})
        writer.close()
        assert ResultCache(path).peek("k") == {"v": 2}
        assert _rows(path) == [("k", '{"v":2}')]

    def test_persistent_handle_flushes_per_line(self, tmp_path):
        """A put is in the store before close(); a put after close()
        reopens the store."""
        path = str(tmp_path / "cache.sqlite")
        writer = ResultCache(path)
        writer.put("k1", {"v": 1})
        assert len(ResultCache(path)) == 1
        writer.put("k2", {"v": 2})
        writer.close()
        assert len(ResultCache(path)) == 2
        writer.put("k3", {"v": 3})
        assert len(ResultCache(path)) == 3
        writer.close()

    def test_a_cache_that_is_never_written_creates_no_file(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = ResultCache(str(path))
        cache.put_many([])
        cache.close()
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["jsonl", "other-sqlite"])
    def test_a_file_that_is_not_a_store_is_refused_and_left_unchanged(
        self, kind, tmp_path
    ):
        path = tmp_path / "old"
        if kind == "jsonl":  # a cache written by an earlier build
            path.write_text('{"key":"k","record":{"v":1}}\n')
        else:  # a SQLite file in rollback-journal mode, without the table
            conn = sqlite3.connect(str(path))
            conn.execute("CREATE TABLE other (x)")
            conn.commit()
            conn.close()
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        with pytest.raises(ValueError, match="not a result cache") as err:
            ResultCache(str(path))
        assert str(path) in str(err.value)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]

    def test_a_store_another_process_is_creating_loads_empty(self, tmp_path):
        """Between a writer's creating the file and its table, a reader
        (a second census worker, say) sees an empty store, not a foreign
        file."""
        from repro.engine.queue import connect

        path = str(tmp_path / "cache.sqlite")
        connect(path).close()  # the file and its WAL header, no table yet
        cache = ResultCache(path)
        assert len(cache) == 0
        cache.put("k", {"v": 1})
        cache.close()
        assert ResultCache(path).peek("k") == {"v": 1}

    def test_a_decide_then_elect_pass_leaves_one_row_per_key(self, tmp_path):
        """The rounds upgrade replaces a key's classify-only record in
        its row: the store holds one row per distinct key."""
        from repro.engine import RandomGnpWorkload, batch_records

        workload = RandomGnpWorkload([5, 6, 7], span=2, p=0.3, samples=8, seed=11)
        path = str(tmp_path / "cache.sqlite")
        cache = ResultCache(path)
        batch_records(workload, cache, measure_rounds=False)
        decided = len(cache)
        batch_records(workload, cache, measure_rounds=True)
        cache.close()
        rows = _rows(path)
        assert len(rows) == len(cache) == decided
        records = [json.loads(record) for _, record in rows]
        assert any(r["feasible"] for r in records)
        assert all(r["rounds"] is not None for r in records if r["feasible"])

    def test_two_processes_appending_concurrently_never_tear_lines(
        self, tmp_path
    ):
        """Two writer processes — the distributed census's workers
        sharing one store — lose no put: SQLite serializes their writes,
        and the store then holds every key from both."""
        import multiprocessing

        path = str(tmp_path / "shared.sqlite")
        n_each = 200
        procs = [
            multiprocessing.Process(
                target=_put_burst, args=(path, prefix, n_each)
            )
            for prefix in ("a", "b")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0, 0]
        keys = {key for key, _ in _rows(path)}
        assert keys == {
            f"{prefix}{i}" for prefix in ("a", "b") for i in range(n_each)
        }
        merged = ResultCache(path)
        assert len(merged) == merged.stats.loaded == 2 * n_each
        assert merged.peek("a0") == {"writer": "a", "i": 0, "pad": "x" * 64}


def _rows(path: str):
    """Every ``(key, record)`` row of a store, read with plain SQL."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT key, record FROM records ORDER BY key").fetchall()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the headline: repeat census >= 5x faster through the cache
# ----------------------------------------------------------------------
def test_repeated_census_at_least_5x_faster():
    """Acceptance gate: the second run of the same workload through the
    engine is >= 5x faster than the first, because every configuration is
    answered from the canonical-form cache without classification or
    election. The workload uses sizable spans so the classified work
    dominates the irreducible warm-path cost (workload regeneration plus
    keying); the warm time is the best of three runs to shield the ratio
    from scheduler noise."""
    from repro.engine import RandomGnpWorkload, sharded_census

    workload = RandomGnpWorkload([24], span=30, p=0.15, samples=12, seed=3)
    cache = ResultCache()

    t0 = time.perf_counter()
    first = sharded_census(workload, cache=cache, measure_rounds=True)
    cold = time.perf_counter() - t0

    warm = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        second = sharded_census(workload, cache=cache, measure_rounds=True)
        warm = min(warm, time.perf_counter() - t0)
        assert second.result.rows == first.result.rows
        assert second.stats.classified == 0  # pure cache hits

    assert cold / warm >= 5.0, f"cold={cold:.4f}s warm={warm:.4f}s"
