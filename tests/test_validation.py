"""Unit tests for the cross-validation harness."""

from conftest import random_config_batch

import repro.analysis.validation as validation
from repro.analysis.validation import all_ok, validate, validate_many
from repro.core.configuration import Configuration, line_configuration
from repro.graphs.families import g_m, h_m, s_m


class TestValidate:
    def test_known_feasible(self):
        report = validate(h_m(2))
        assert report.ok, report.failures
        assert report.feasible
        assert report.checks_run >= 6

    def test_known_infeasible(self):
        report = validate(s_m(2))
        assert report.ok, report.failures
        assert not report.feasible
        assert report.leader is None

    def test_families_all_ok(self):
        assert all_ok([h_m(1), h_m(3), s_m(1), s_m(3), g_m(2)])

    def test_random_batch_all_ok(self):
        reports = validate_many(random_config_batch(25, base_seed=500))
        bad = [r.describe() for r in reports if not r.ok]
        assert not bad, bad

    def test_rounds_recorded(self):
        report = validate(h_m(1))
        assert report.rounds > 0

    def test_automorphism_check_optional(self):
        r1 = validate(h_m(1), check_automorphisms=True)
        r2 = validate(h_m(1), check_automorphisms=False)
        assert r1.checks_run == r2.checks_run + 1
        assert r1.ok and r2.ok

    def test_describe_mentions_status(self):
        assert "OK" in validate(h_m(1)).describe()

    def test_edge_cases(self):
        assert validate(Configuration([], {0: 0})).ok  # single node
        assert validate(Configuration([(0, 1)], {0: 0, 1: 0})).ok  # sym pair
        assert validate(line_configuration([0] * 6)).ok  # all-zero path
        assert validate(line_configuration([0, 3, 0, 3, 0])).ok

    def test_divergence_from_the_reference_classifier_is_reported(
        self, monkeypatch
    ):
        """Check 1 compares the default classifier with the paper's
        faithful Refine: a reference trace that differs is a failure."""
        classify = validation.classify

        def diverging(config, **kwargs):
            if kwargs.get("algorithm") == "reference":
                return classify(h_m(1), **kwargs)
            return classify(config, **kwargs)

        monkeypatch.setattr(validation, "classify", diverging)
        report = validate(h_m(2))
        assert not report.ok
        assert any("reference" in failure for failure in report.failures)
