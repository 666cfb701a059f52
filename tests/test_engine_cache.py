"""Engine cache correctness: canonical keying, LRU, JSONL persistence.

The load-bearing property: classifying a configuration and a relabeled
isomorph of it produces ONE cache entry and identical reports — that is
what makes the canonical-form memoization sound.
"""

import json
import os
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


def _append_burst(path: str, prefix: str, count: int) -> None:
    """Subprocess body: hammer `count` appends into a shared store."""
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
        """A JSONL cache holding an entry under the parent scheme — the
        unprefixed digest of the brute-force-defined form — gives the
        versioned keyer a miss and a fresh record, never the stored one."""
        from repro.engine.keys import KEY_SCHEME, _digest
        from repro.testing import bruteforce_canonical_form

        cfg = Configuration([(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 2})
        n, tagvec, edges = bruteforce_canonical_form(cfg)
        parent_key = _digest([n, list(tagvec), [list(e) for e in edges]])
        stale = {"feasible": "stale", "iterations": -1, "rounds": None}
        path = tmp_path / "parent.jsonl"
        path.write_text(json.dumps({"key": parent_key, "record": stale}) + "\n")

        cache = ResultCache(str(path))
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

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        assert cache.get("a") == {"x": 1}  # refresh a; b is now LRU
        cache.put("c", {"x": 3})
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_put_overwrites_without_growth(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert len(cache) == 1
        assert cache.peek("k") == {"v": 2}

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        c1 = ResultCache(path)
        c1.put("k1", {"feasible": True, "iterations": 2, "rounds": None})
        c1.put("k2", {"feasible": False, "iterations": 1, "rounds": None})
        c2 = ResultCache(path)
        assert len(c2) == 2
        assert c2.stats.loaded == 2
        assert c2.get("k1") == {"feasible": True, "iterations": 2, "rounds": None}

    def test_truncated_trailing_line_ignored(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        c1 = ResultCache(path)
        c1.put("k1", {"v": 1})
        c1.put("k2", {"v": 2})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k3", "record"')  # crashed mid-append
        c2 = ResultCache(path)
        assert len(c2) == 2
        assert "k3" not in c2

    def test_put_after_a_torn_tail_keeps_its_record(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        ResultCache(path).put("a", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key":"torn","rec')  # crashed mid-append
        reopened = ResultCache(path)
        reopened.put("b", {"v": 2})
        reopened.close()
        cache = ResultCache(path)
        assert cache.peek("a") == {"v": 1} and cache.peek("b") == {"v": 2}
        assert cache.compact() == 1  # only the torn line goes
        assert len(ResultCache(path)) == 2

    def test_last_line_wins_on_duplicate_keys(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": "k", "record": {"v": 1}}) + "\n")
            fh.write(json.dumps({"key": "k", "record": {"v": 2}}) + "\n")
        assert ResultCache(path).peek("k") == {"v": 2}

    def test_persistent_handle_flushes_per_line(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        writer = ResultCache(path)
        writer.put("k1", {"v": 1})
        # line-buffered handle: the record is on disk before close()
        assert len(ResultCache(path)) == 1
        writer.put("k2", {"v": 2})
        writer.close()
        assert len(ResultCache(path)) == 2
        writer.put("k3", {"v": 3})  # handle reopens lazily after close
        assert len(ResultCache(path)) == 3

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_two_processes_appending_concurrently_never_tear_lines(
        self, tmp_path
    ):
        """Each put is one O_APPEND write(2), so concurrent writer
        processes — the distributed census sharing one cache file —
        interleave only at line granularity: every line parses, every
        key from both writers survives."""
        import multiprocessing

        path = str(tmp_path / "shared.jsonl")
        n_each = 200
        procs = [
            multiprocessing.Process(
                target=_append_burst, args=(path, prefix, n_each)
            )
            for prefix in ("a", "b")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2 * n_each
        parsed = [json.loads(line) for line in lines]  # no torn lines
        keys = {obj["key"] for obj in parsed}
        assert keys == {
            f"{prefix}{i}" for prefix in ("a", "b") for i in range(n_each)
        }
        # replay sees every record from both writers
        merged = ResultCache(path)
        assert len(merged) == 2 * n_each
        assert merged.peek("a0") == {"writer": "a", "i": 0, "pad": "x" * 64}


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
class TestCompact:
    def test_compact_drops_superseded_lines(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache(path)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 1})
        cache.put("a", {"v": 2})  # supersedes the first "a" line
        cache.put("a", {"v": 3})
        assert cache.compact() == 2
        assert cache.stats.compacted == 2
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert [ln["key"] for ln in lines] == ["a", "b"]  # first-seen order
        assert lines[0]["record"] == {"v": 3}  # ... with the last record
        replayed = ResultCache(path)
        assert replayed.peek("a") == {"v": 3}
        assert replayed.peek("b") == {"v": 1}

    def test_compact_keeps_entries_evicted_from_memory(self, tmp_path):
        """Compaction replays the file, not the LRU: a disk entry whose
        memory copy was evicted must survive the rewrite."""
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache(path, max_entries=1)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})  # evicts "a" from memory only
        assert "a" not in cache
        assert cache.compact() == 0
        assert ResultCache(path).peek("a") == {"v": 1}

    def test_compact_drops_truncated_lines_and_appends_still_work(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache(path)
        cache.put("k", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "x", "rec')  # crashed half-append
        assert cache.compact() == 1
        cache.put("k2", {"v": 2})  # handle reopens lazily post-compaction
        assert len(ResultCache(path)) == 2

    def test_compact_without_store_is_noop(self):
        assert ResultCache().compact() == 0


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
