"""The seeded G(n, p) populations are pinned bit for bit.

Every random census (``RandomGnpWorkload``), every campaign trial
(``seeded_config``) and every harness batch (``make_random_config``)
draws its configurations from fixed random streams. Census rows,
EXPERIMENTS.md cells and campaign digests all rest on those
populations, so any change to how they are built must leave them
identical: the same graphs, the same tags, in the same node order, with
the same hash and pickle.
"""

import hashlib
import json
import pickle

import pytest

from repro.core.configuration import (
    Configuration,
    ConfigurationError,
    config_spec,
)
from repro.engine.workloads import (
    RandomGnpWorkload,
    make_random_config,
    seeded_config,
)
from repro.graphs.generators import (
    random_connected_gnp_edges,
    random_gnp_configuration,
)
from repro.graphs.tags import uniform_random


def _digest(configs) -> str:
    specs = [config_spec(cfg) for cfg in configs]
    return hashlib.sha256(json.dumps(specs).encode()).hexdigest()


def _assert_identical(cfg: Configuration, ref: Configuration) -> None:
    # the pickles first: their bytes hold every slot, dict order included,
    # and are only comparable while neither hash is cached
    assert pickle.dumps(cfg) == pickle.dumps(ref)
    assert cfg == ref
    assert hash(cfg) == hash(ref)
    assert cfg.nodes == ref.nodes
    assert cfg.edges == ref.edges
    assert list(cfg.tags.items()) == list(ref.tags.items())
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == ref and hash(clone) == hash(ref)


@pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
@pytest.mark.parametrize("span", [0, 3])
def test_seeded_config_equals_the_validated_public_path(p, span):
    """n = 1 and n = 2 are the Prüfer decoder's special cases."""
    for n in range(1, 15):
        for seed in (0, 1, 7, 12345, 2**31 - 1):
            ref = Configuration(
                random_connected_gnp_edges(n, p, seed),
                uniform_random(range(n), span, seed + 1),
            )
            _assert_identical(seeded_config(seed, n, span, p), ref)


def test_workload_items_equal_the_validated_public_path():
    workload = RandomGnpWorkload([1, 2, 5, 9], 2, 0.35, 6, 41)
    for index, cfg in enumerate(workload):
        n = workload.n_values[index // workload.samples]
        base = workload.seed + 7919 * (index % workload.samples) + 104729 * n
        ref = Configuration(
            random_connected_gnp_edges(n, workload.p, base),
            uniform_random(range(n), workload.span, base + 1),
        )
        _assert_identical(cfg, ref)


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            (range(4, 13), 3, 0.35, 200, 7),  # census_small_queue's population
            "40d3f9b5931bc22fe1acfbe7f03b670f7982496c8ae10e26d6aea6e7edf2a820",
        ),
        (
            ([30, 31, 32], 2, 0.25, 16, 20260808),  # E27's population
            "9745193b96c68682f7c312544c4fefe10ed0e5a3a48762d2a631f8143794b55d",
        ),
    ],
    ids=["census-small-queue", "e27"],
)
def test_census_population_digest(args, digest):
    assert _digest(RandomGnpWorkload(*args)) == digest


def test_seeded_config_digest():
    configs = [
        seeded_config(seed, n, span, p)
        for seed in range(5)
        for n in (1, 2, 3, 9, 16)
        for span in (0, 3)
        for p in (0.0, 0.3, 1.0)
    ]
    assert _digest(configs) == (
        "db7a517be72c98e3a8bb6ec5e584b7bd1a4168fbfd3531ed23a267d7576a9ce3"
    )


@pytest.mark.parametrize(
    "kw, digest",
    [
        ({}, "f6fe8beda25036c576ecb95810a95deb197fd4e6303a2a183ef30e2139a27432"),
        (
            {"n_lo": 1, "n_hi": 14, "span_hi": 4, "p": 0.5},
            "d6a56bdec030edaaa9e1e0b93ce49eae7b39e535406a7cbd7c4aa575806ca295",
        ),
    ],
    ids=["defaults", "wide"],
)
def test_make_random_config_digest(kw, digest):
    configs = [make_random_config(seed, **kw) for seed in range(40)]
    assert _digest(configs) == digest


def test_builder_draws_tags_from_the_given_tag_seed():
    for n in range(1, 15):
        for seed, tag_seed in ((3, 99), (7, 7), (2**31 - 1, 0)):
            ref = Configuration(
                random_connected_gnp_edges(n, 0.35, seed),
                uniform_random(range(n), 3, tag_seed),
            )
            _assert_identical(
                random_gnp_configuration(n, 0.35, 3, seed, tag_seed=tag_seed), ref
            )


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0.3, 2, 1), "need at least one node"),
        ((5, 1.5, 2, 1), r"p must be in \[0, 1\]"),
        ((5, 0.3, -1, 1), "span must be >= 0"),
    ],
    ids=["n", "p", "span"],
)
def test_builder_refuses_what_the_public_path_refuses(args, message):
    with pytest.raises(ValueError, match=message):
        random_gnp_configuration(*args)


class TestTrustedConstructor:
    """``Configuration._from_adjacency`` skips the edge-list parse, not
    the checks on what it is handed."""

    def test_matches_the_validated_constructor(self):
        adj = [{1, 2}, {0}, {0, 3}, {2}]
        tags = {0: 1, 1: 0, 2: 2, 3: 0}
        ref = Configuration([(0, 1), (0, 2), (2, 3)], tags)
        _assert_identical(Configuration._from_adjacency(adj, dict(tags)), ref)

    @pytest.mark.parametrize("tag", [-1, 1.0, True, "0"])
    def test_refuses_a_bad_tag(self, tag):
        with pytest.raises(ConfigurationError, match="non-negative int"):
            Configuration._from_adjacency([{1}, {0}], {0: 0, 1: tag})

    def test_refuses_a_disconnected_graph(self):
        with pytest.raises(ConfigurationError, match="not connected"):
            Configuration._from_adjacency([{1}, {0}, set()], {0: 0, 1: 0, 2: 0})
