from __future__ import annotations

import math

import pytest

from normgraph.errors import MalformedInput, MalformedQuery, MismatchedQueryIds
from normgraph.evaluation import (
    action_attribution_f1,
    build_query,
    chain_completeness,
    evaluate,
    load_truth,
    parse_truth_file,
    summary_completeness,
    temporal_precision_recall,
)
from normgraph.planner import QueryPattern


class TestTemporalPrecisionRecall:
    def test_fixture_answers_against_fixture_truth(self, fixture_store, corpus_dir):
        truth = load_truth(corpus_dir / "reference.sattruth.json")
        report = evaluate(fixture_store, truth)
        assert report.metrics["temporal_precision"] == 1.0
        assert report.metrics["temporal_recall"] == 1.0
        assert report.metrics["temporal_precision_degenerate"] is False

    def test_empty_retrieval_scores_zero_not_nan(self):
        precision, recall = temporal_precision_recall(
            {"q": set()}, {"q": {"ctv-a"}})
        assert (precision, recall) == (0.0, 0.0)

    def test_anachronistic_extra_lowers_precision_only(self):
        precision, recall = temporal_precision_recall(
            {"q": {"ctv-a", "ctv-stale"}}, {"q": {"ctv-a"}})
        assert precision == 0.5
        assert recall == 1.0

    def test_mismatched_query_ids(self):
        with pytest.raises(MismatchedQueryIds):
            temporal_precision_recall({"q1": set()}, {"q2": set()})

    def test_both_empty_is_perfect(self):
        assert temporal_precision_recall({"q": set()}, {"q": set()}) == (1.0, 1.0)


class TestActionAttributionF1:
    def test_exact_match_is_one(self):
        pairs = {("a1", "w1"), ("a2", "w2"), ("a3", "w1")}
        assert action_attribution_f1({"q": pairs}, {"q": set(pairs)}) == 1.0

    def test_missing_one_of_three(self):
        truth = {("a1", "w1"), ("a2", "w2"), ("a3", "w1")}
        answer = {("a1", "w1"), ("a2", "w2")}
        f1 = action_attribution_f1({"q": answer}, {"q": truth})
        # precision 2/2, recall 2/3 -> F1 = 0.8
        assert math.isclose(f1, 0.8)

    def test_disjoint_sets_score_zero(self):
        assert action_attribution_f1(
            {"q": {("a1", "w1")}}, {"q": {("a2", "w2")}}) == 0.0


class TestChainCompleteness:
    def test_exact_chain(self):
        assert chain_completeness(
            {"q": [("ca26", "ca64")]}, {"q": [("ca26", "ca64")]}) == 1.0

    def test_reversed_chain_gets_half_credit(self):
        assert chain_completeness(
            {"q": [("ca64", "ca26")]}, {"q": [("ca26", "ca64")]}) == 0.5

    def test_empty_answer_chain(self):
        assert chain_completeness({"q": []}, {"q": [("ca26", "ca64")]}) == 0.0

    def test_partial_subsequence(self):
        assert chain_completeness(
            {"q": [("a", "c")]}, {"q": [("a", "b", "c")]}) == pytest.approx(2 / 3)

    def test_averaged_over_queries(self):
        score = chain_completeness(
            {"q1": [("a", "b")], "q2": []},
            {"q1": [("a", "b")], "q2": [("c",)]})
        assert score == 0.5


class TestSummaryCompleteness:
    def test_full_coverage(self):
        pairs = {("a1", "w1"), ("a2", "w2")}
        assert summary_completeness({"q": pairs}, {"q": set(pairs)}) == 1.0

    def test_half_coverage(self):
        assert summary_completeness(
            {"q": {("a1", "w1")}}, {"q": {("a1", "w1"), ("a2", "w2")}}) == 0.5


class TestDates:
    @pytest.mark.parametrize("clock", ["20000214", "2000-W07-1", "2000-02-30"])
    def test_a_truth_clock_that_is_not_yyyy_mm_dd_is_malformed_input(self, clock):
        with pytest.raises(MalformedInput, match="clock: not a YYYY-MM-DD date"):
            parse_truth_file({"format_version": 1, "queries": [], "clock": clock})

    @pytest.mark.parametrize("mapping", [
        {"at": "20000214"},
        {"at": "2010-13-01"},
        {"between": ["2010-01-01", "2010-W07-1"]},
        {"between": ["2012-01-01", "2010-01-01"]},
    ])
    def test_a_bad_query_date_or_reversed_window_is_a_malformed_query(self, mapping):
        with pytest.raises(MalformedQuery):
            build_query(QueryPattern.IMPACT_ANALYSIS, {"target": "art6", **mapping})


class TestFullHarness:
    def test_fixture_scores_all_ones(self, fixture_store, corpus_dir):
        truth = load_truth(corpus_dir / "reference.sattruth.json")
        report = evaluate(fixture_store, truth)
        assert report.scored_metrics() == [1.0, 1.0, 1.0, 1.0, 1.0]
        assert report.metrics["queries"] == 5

    def test_report_table_shape(self, fixture_store, corpus_dir):
        truth = load_truth(corpus_dir / "reference.sattruth.json")
        report = evaluate(fixture_store, truth)
        table = report.table()
        assert "temporal_precision" in table
        assert "1.000" in table

    def test_metrics_insensitive_to_query_order(self, fixture_store, corpus_dir):
        truth = load_truth(corpus_dir / "reference.sattruth.json")
        reversed_truth = type(truth)(queries=tuple(reversed(truth.queries)),
                                     clock=truth.clock)
        a = evaluate(fixture_store, truth).metrics
        b = evaluate(fixture_store, reversed_truth).metrics
        assert a == b
