from __future__ import annotations

import gc
import random
import re
from datetime import date, timedelta

import pytest

from normgraph.errors import (
    AmbiguousAlias,
    EmptyScope,
    MalformedQuery,
    NotYetEnacted,
    TermNotFound,
    UnknownAlias,
    UnplannableQuery,
)
from normgraph.ingest import enact, parse_document
from normgraph.model import Aspect, replace
from normgraph.planner import (
    QueryPattern,
    Strategy,
    StructuredQuery,
    canonicalize,
    policies_footer,
    resolve_work_reference,
    run,
    select_strategy,
)
from normgraph.retrieval import RetrievalMode
from normgraph.store import GraphStore, load, pick_wording, save
from normgraph.temporal import MembershipPolicy, TemporalScope

import day_rule
import synthcorpus
from reference_ids import (
    ACT_CA26,
    ACT_CA64,
    ACT_CA72,
    ACT_CA90,
    ACT_ENACT,
    ART6,
    ART6_CPT,
    ART7_CPT,
    CAP2,
    NORM_URN,
    RIGHTS_1999,
)
from test_ingest import amendment_file, apply_file, mini_doc, versions_of


def rights_from_text(text: str) -> set[str]:
    """Extract the enumerated rights from a caput sentence."""
    body = re.sub(r"^Social rights (are|include) ", "", text)
    body = body.replace(", in the manner prescribed by this Constitution.", "")
    items = [part.strip() for part in body.split(",")]
    return {re.sub(r"^and ", "", item) for item in items if item}


def pit(target: str, temporal: TemporalScope | None = None, **kwargs) -> StructuredQuery:
    return StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target=target,
                           temporal=temporal, **kwargs)


class TestCanonicalize:
    def test_alias_resolves_to_urn(self, fixture_store, clock):
        q = canonicalize(pit("Article 6"), fixture_store, clock)
        assert q.structural_target == ART6

    def test_fragment_resolves_to_urn(self, fixture_store, clock):
        q = canonicalize(pit("art6_cpt"), fixture_store, clock)
        assert q.structural_target == ART6_CPT

    def test_casefolded_alias_match(self, fixture_store, clock):
        q = canonicalize(pit("article 6"), fixture_store, clock)
        assert q.structural_target == ART6

    def test_missing_temporal_binds_to_clock(self, fixture_store, clock):
        q = canonicalize(pit("art6"), fixture_store, clock)
        assert q.temporal.kind == "instant"
        assert q.temporal.start == clock

    def test_defaults_filled(self, fixture_store, clock):
        q = canonicalize(pit("art6"), fixture_store, clock)
        assert q.k == 8
        assert q.membership is MembershipPolicy.SNAPSHOT_ANCHORED
        assert q.language == "pt"

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_a_malformed_query(self, fixture_store, clock, k):
        with pytest.raises(MalformedQuery, match=f"k must be at least 1, not {k}"):
            canonicalize(pit("art6", k=k), fixture_store, clock)

    def test_ambiguous_alias_lists_candidates(self, clock):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        other = mini_doc()
        other["norm"]["urn"] = "urn:test:other"
        other["norm"]["short_title"] = "OS"
        enact(store, parse_document(other))
        with pytest.raises(AmbiguousAlias) as exc:
            canonicalize(
                StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target="art1"),
                store, clock)
        assert set(exc.value.candidates) == {
            "urn:test:mini!art1", "urn:test:other!art1"}

    def test_aliases_that_differ_only_in_case_are_ambiguous(self, tmp_path):
        store = GraphStore()
        for urn, alias in (("urn:test:mini", "Water Act"), ("urn:test:other", "water act")):
            doc = mini_doc()
            doc["norm"].update(urn=urn, short_title=urn[-5:], aliases=[alias])
            enact(store, parse_document(doc))
        store.commit()
        save(store, tmp_path / "aliases.ndjson")
        for each in (store, load(tmp_path / "aliases.ndjson")):
            assert resolve_work_reference(each, "Water Act") == "urn:test:mini"
            with pytest.raises(AmbiguousAlias) as exc:
                resolve_work_reference(each, "WATER ACT")
            assert exc.value.candidates == ["urn:test:mini", "urn:test:other"]
            assert "urn:test:mini" in str(exc.value) and "urn:test:other" in str(exc.value)

    def test_unknown_alias(self, fixture_store, clock):
        with pytest.raises(UnknownAlias):
            canonicalize(pit("article 99"), fixture_store, clock)

    def test_theme_label_resolves(self, fixture_store, clock):
        q = canonicalize(StructuredQuery(
            QueryPattern.POINT_IN_TIME, theme_target="Social Rights"),
            fixture_store, clock)
        assert q.theme_target == "theme:social-rights"

    def test_fully_empty_query_unplannable(self, fixture_store, clock):
        with pytest.raises(UnplannableQuery):
            canonicalize(StructuredQuery(QueryPattern.RETRIEVE), fixture_store, clock)


class TestSelectStrategy:
    def test_structural_and_textual_targets_mean_structure_first(self):
        q = StructuredQuery(QueryPattern.PROVENANCE, structural_target=ART6,
                            textual_target="food")
        assert select_strategy(q) is Strategy.STRUCTURE_FIRST

    def test_textual_only_means_span_first(self):
        q = StructuredQuery(QueryPattern.PROVENANCE, textual_target="food")
        assert select_strategy(q) is Strategy.SPAN_FIRST

    def test_structural_point_in_time_is_structure_first(self):
        q = pit(ART6, TemporalScope.instant(date(1999, 6, 1)))
        assert select_strategy(q) is Strategy.STRUCTURE_FIRST

    def test_temporal_only_is_unplannable(self, fixture_store, clock):
        q = StructuredQuery(QueryPattern.RETRIEVE,
                            temporal=TemporalScope.instant(date(1999, 6, 1)))
        with pytest.raises(UnplannableQuery):
            select_strategy(q)
        with pytest.raises(UnplannableQuery):
            run(fixture_store, q, clock)

    def test_point_in_time_without_an_entry_is_unplannable(self, fixture_store, clock):
        with pytest.raises(UnplannableQuery):
            canonicalize(StructuredQuery(
                QueryPattern.POINT_IN_TIME, textual_target="food",
                temporal=TemporalScope.instant(date(1999, 6, 1))), fixture_store, clock)

    def test_no_constraints_unplannable(self):
        with pytest.raises(UnplannableQuery):
            select_strategy(StructuredQuery(QueryPattern.RETRIEVE))


class TestStrategyBranch:
    """The strategy decides whether a runner resolves its entry's scope."""

    @pytest.fixture
    def scope_calls(self, monkeypatch):
        from normgraph import planner

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        real = planner.resolve_scope
        monkeypatch.setattr(planner, "resolve_scope", counting)
        return calls

    @pytest.mark.parametrize("query, strategy, calls", [
        (StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                         textual_target="food"), "structure_first", [ART6]),
        (StructuredQuery(QueryPattern.RETRIEVE, structural_target="art6",
                         textual_target="food"), "structure_first", [ART6]),
        (StructuredQuery(QueryPattern.PROVENANCE, textual_target="food"), "span_first", []),
        (StructuredQuery(QueryPattern.RETRIEVE, textual_target="food"), "span_first", []),
        (pit("art6", TemporalScope.instant(date(2016, 1, 1))), "structure_first", []),
        (StructuredQuery(QueryPattern.POINT_IN_TIME, theme_target="Social Rights",
                         temporal=TemporalScope.instant(date(2016, 1, 1))),
         "structure_first", ["theme:social-rights"]),
        (StructuredQuery(QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
                         temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31))),
         "structure_first", [CAP2]),
    ])
    def test_resolve_scope_runs_once_for_an_entry_that_needs_it(
            self, fixture_store, clock, scope_calls, query, strategy, calls):
        answer = run(fixture_store, query, clock)
        assert answer.policies["strategy"] == strategy
        assert scope_calls == calls
        # The annex lists the scope step exactly when a scope was resolved.
        assert ("scope" in answer.annex["steps"]) == bool(calls)


class TestPointInTime:
    def test_1999_answer_lists_exactly_the_eight_rights(self, fixture_store, clock):
        answer = run(fixture_store, pit(
            "art6", TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))),
            clock)
        (work, ctv, clv) = answer.citations[0]
        assert work == ART6_CPT
        text = fixture_store.units[fixture_store.clvs[clv].text_unit].text
        assert rights_from_text(text) == set(RIGHTS_1999)
        assert "housing" not in text and "food" not in text

    def test_2000_02_15_includes_housing(self, fixture_store, clock):
        answer = run(fixture_store, pit(
            "art6", TemporalScope.instant(date(2000, 2, 15))), clock)
        assert "housing" in answer.rendered_text

    def test_before_enactment_propagates_resolved_instant(self, fixture_store, clock):
        with pytest.raises(NotYetEnacted) as exc:
            run(fixture_store, pit(
                "art6", TemporalScope.instant(date(1980, 1, 1))), clock)
        assert exc.value.at == date(1980, 1, 1)

    def test_annex_steps_for_point_in_time(self, fixture_store, clock):
        answer = run(fixture_store, pit(
            "art6", TemporalScope.instant(date(1999, 6, 1))), clock)
        # A structural entry resolves no scope, so no scope step ran.
        assert answer.annex["steps"] == [
            "canonicalize", "strategy", "ctv_select", "retrieve", "generate"]

    def test_policies_disclosed(self, fixture_store, clock):
        answer = run(fixture_store, pit(
            "art6", TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))),
            clock)
        assert answer.policies == {
            "resolution_policy": "snapshot_last",
            "membership_policy": "snapshot_anchored",
            "k": 8,
            "strategy": "structure_first",
            "language": "pt",
            "language_fallback": True,
        }
        footer = policies_footer(answer.policies)
        assert "policy: SnapshotLast" in footer
        assert "membership: SnapshotAnchored" in footer

    def test_theme_entry_snapshots_members(self, fixture_store, clock):
        answer = run(fixture_store, StructuredQuery(
            QueryPattern.POINT_IN_TIME, theme_target="Social Rights",
            temporal=TemporalScope.instant(date(2016, 1, 1))), clock)
        works = {c[0] for c in answer.citations}
        assert ART6_CPT in works and ART7_CPT in works

    def test_no_citation_is_anachronistic(self, fixture_store, clock):
        for probe in (date(1998, 5, 1), date(2005, 1, 1), date(2013, 4, 2),
                      date(2020, 1, 1)):
            answer = run(fixture_store, pit(
                "tit2_cap2", TemporalScope.instant(probe)), clock)
            for _, ctv, _ in answer.citations:
                assert fixture_store.ctvs[ctv].contains(probe)


class TestImpactAnalysis:
    def _query(self, target="tit2_cap2", start=date(2010, 1, 1),
               end=date(2019, 12, 31), **kwargs) -> StructuredQuery:
        return StructuredQuery(
            QueryPattern.IMPACT_ANALYSIS, structural_target=target,
            temporal=TemporalScope.interval(start, end), **kwargs)

    def test_chapter_window_matches_exemplar(self, fixture_store, clock):
        answer = run(fixture_store, self._query(), clock)
        pairs = {(a["action"], a["target"]) for a in answer.annex["actions"]}
        assert pairs == {
            (ACT_CA64, ART6_CPT), (ACT_CA72, ART7_CPT), (ACT_CA90, ART6_CPT)}
        dates = {a["date"] for a in answer.annex["actions"]}
        assert dates == {"2010-02-04", "2013-04-02", "2015-09-15"}
        assert "Impact dates: 2010-02-04, 2013-04-02, 2015-09-15" in answer.rendered_text

    def test_summary_groups_by_target(self, fixture_store, clock):
        rendered = run(fixture_store, self._query(), clock).rendered_text
        assert "Art. 6 (caput): 2 amendments" in rendered
        assert "Art. 7 (caput): 1 amendment" in rendered
        assert 'added "food"' in rendered
        assert "extended domestic workers' rights" in rendered

    def test_window_before_amendments_is_empty_not_error(self, fixture_store, clock):
        answer = run(fixture_store, self._query(
            start=date(1990, 1, 1), end=date(1995, 12, 31)), clock)
        assert answer.annex["actions"] == []
        assert "no changes in this window" in answer.rendered_text

    def test_interval_required(self, fixture_store, clock):
        with pytest.raises(UnplannableQuery):
            run(fixture_store, StructuredQuery(
                QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
                temporal=TemporalScope.instant(date(2010, 1, 1))), clock)

    def test_lifetime_includes_action_on_inserted_component(self, clock):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1", "2001-06-01", "", components=[
                {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}]))
        base = dict(
            structural_target="urn:test:mini!art1",
            temporal=TemporalScope.interval(date(2001, 1, 1), date(2001, 12, 31)))
        anchored = run(store, StructuredQuery(
            QueryPattern.IMPACT_ANALYSIS, **base), clock)
        lifetime = run(store, StructuredQuery(
            QueryPattern.IMPACT_ANALYSIS, membership=MembershipPolicy.LIFETIME,
            **base), clock)
        assert anchored.annex["actions"] == []
        assert [(a["action"], a["target"]) for a in lifetime.annex["actions"]] == [
            ("act:aa-2001:art1:2001-06-01", "urn:test:mini!art1_par1")]

    def test_action_time_matches_anchored_on_static_fixture(self, fixture_store, clock):
        anchored = run(fixture_store, self._query(), clock)
        action_time = run(fixture_store, self._query(
            membership=MembershipPolicy.ACTION_TIME), clock)
        assert anchored.annex["actions"] == action_time.annex["actions"]

    def test_action_time_matches_a_linear_reference_on_synthetic_corpora(self, clock):
        """Each in-window action's targets in the entry's subtree, alive on its date.

        Each store is judged uncommitted, when every read derives the time
        index afresh, and again after commit(), when the first read publishes it.
        """
        def in_subtree(store, urn, entry):
            while urn is not None and urn != entry:
                urn = store.works[urn].parent
            return urn == entry

        def alive(store, urn, day):
            return any(tv.work == urn and tv.contains(day)
                       for tv in store.ctvs.values())

        rng = random.Random(7)
        corpora = answered = unlike_anchored = 0
        for seed in range(60):
            corpus = synthcorpus.generate_corpus(seed)
            events = corpus.events()
            if not (any(e["action_type"] == "repeal" for e in events)
                    and any("new_components" in e for e in events)):
                continue
            corpora += 1
            store = synthcorpus.build_store(corpus)
            works = sorted(u for u in store.works if u.startswith(corpus.norm_urn))
            days = [corpus.enactment, *corpus.event_dates()]
            probes = [(rng.choice(works), *sorted(rng.choices(days, k=2))) for _ in range(8)]
            for stage in ("uncommitted", "committed"):
                if stage == "committed":
                    store.commit()
                for entry, t1, t2 in probes:
                    expected = sorted(
                        ({"action": a.id, "target": w, "date": a.effective_date.isoformat()}
                         for a in store.actions.values() if t1 <= a.effective_date <= t2
                         for w in a.targets
                         if in_subtree(store, w, entry) and alive(store, w, a.effective_date)),
                        key=lambda r: (r["date"], r["action"], r["target"]))
                    query = self._query(target=entry, start=t1, end=t2)
                    try:
                        got = run(store, replace(query, membership=MembershipPolicy.ACTION_TIME),
                                  clock).annex["actions"]
                    except EmptyScope:
                        got = []
                    assert got == expected, (seed, stage, entry, t1, t2)
                    answered += bool(got)
                    try:
                        unlike_anchored += run(store, query, clock).annex["actions"] != got
                    except EmptyScope:
                        unlike_anchored += bool(got)
        # 25 corpora, and on each pass 126 answers and 87 that differ from snapshot_anchored.
        assert corpora >= 20 and answered >= 200 and unlike_anchored >= 100

    def test_window_edges_on_a_loaded_snapshot(self, tmp_path, clock):
        """An action effective on t1 or on t2 is kept, one a day outside is dropped, and
        same-day actions come in id order, not in the order they were applied."""
        store = GraphStore()
        enact(store, parse_document(mini_doc(fragments=3)))
        apply_file(store, amendment_file("urn:test:mini!art3_cpt", "2003-03-02", "Three v2."))
        same_day = amendment_file("urn:test:mini!art2_cpt", "2003-03-03", "Two v2.")
        same_day["events"].append({**same_day["events"][0], "target": "urn:test:mini!art1_cpt",
                                   "new_text": {"en": "One v2."}})
        apply_file(store, same_day)
        apply_file(store, amendment_file("urn:test:mini!art3_cpt", "2003-03-04", "Three v3."))
        store.commit()
        save(store, tmp_path / "edges.ndjson")
        loaded = load(tmp_path / "edges.ndjson")
        day_before = ("act:aa-2003:art3-cpt:2003-03-02", "urn:test:mini!art3_cpt")
        same_days = [("act:aa-2003:art1-cpt:2003-03-03", "urn:test:mini!art1_cpt"),
                     ("act:aa-2003:art2-cpt:2003-03-03", "urn:test:mini!art2_cpt")]
        day_after = ("act:aa-2003:art3-cpt:2003-03-04", "urn:test:mini!art3_cpt")
        windows = {
            (date(2003, 3, 2), date(2003, 3, 4)): [day_before, *same_days, day_after],
            (date(2003, 3, 3), date(2003, 3, 3)): same_days,
            (date(2003, 3, 2), date(2003, 3, 3)): [day_before, *same_days],
            (date(2003, 3, 3), date(2003, 3, 4)): [*same_days, day_after],
        }
        for (start, end), expected in windows.items():
            for membership in MembershipPolicy:
                query = self._query(target="urn:test:mini", start=start, end=end,
                                    membership=membership)
                answer = run(loaded, query, clock)
                got = [(a["action"], a["target"]) for a in answer.annex["actions"]]
                assert got == expected, (start, end, membership)
                assert answer.annex_json() == run(store, query, clock).annex_json()

    def test_art7_scope_sees_only_ca72(self, fixture_store, clock):
        answer = run(fixture_store, self._query(target="art7"), clock)
        assert [(a["action"]) for a in answer.annex["actions"]] == [ACT_CA72]


class TestProvenance:
    def _query(self, term: str, target: str | None = "art6") -> StructuredQuery:
        return StructuredQuery(QueryPattern.PROVENANCE, structural_target=target,
                               textual_target=term)

    def test_food_chain_matches_exemplar(self, fixture_store, clock):
        answer = run(fixture_store, self._query("food"), clock)
        assert answer.annex["chains"] == [[ACT_CA26, ACT_CA64]]
        assert "valid until 2010-02-03" in answer.rendered_text
        assert "valid from 2010-02-04" in answer.rendered_text
        assert "Match confidence: Exact (1.0)" in answer.rendered_text
        assert answer.confidence == 1.0

    def test_education_present_since_enactment(self, fixture_store, clock):
        # Oracle check: the term survives into every version of the caput.
        primary = fixture_store.primary_language(ART6_CPT)
        texts = [
            fixture_store.units[fixture_store.clvs[pick_wording(
                fixture_store.clvs_by_ctv[tv.id], primary, "pt", False)].text_unit].text
            for tv in versions_of(fixture_store, ART6_CPT)
        ]
        assert all("education" in t for t in texts)
        answer = run(fixture_store, self._query("education"), clock)
        assert answer.annex["chains"] == [[ACT_ENACT]]
        assert "since original enactment" in answer.rendered_text

    def test_unknown_term_raises(self, fixture_store, clock):
        with pytest.raises(TermNotFound):
            run(fixture_store, self._query("spaceports"), clock)

    def test_span_first_without_structural_target(self, fixture_store, clock):
        answer = run(fixture_store, self._query("food", target=None), clock)
        assert answer.policies["strategy"] == "span_first"
        assert answer.annex["chains"] == [[ACT_CA26, ACT_CA64]]

    def test_annex_steps_include_causal_and_chain_steps(self, fixture_store, clock):
        answer = run(fixture_store, self._query("food"), clock)
        assert "causal_aggregation" in answer.annex["steps"]
        assert "chain_assembly" in answer.annex["steps"]

    def test_chain_soundness_consecutive_actions_share_a_version(self, fixture_store, clock):
        answer = run(fixture_store, self._query("transportation"), clock)
        for chain in answer.annex["chains"]:
            for first, second in zip(chain, chain[1:]):
                produced = {cid for cid, aid in fixture_store.produced_by.items() if aid == first}
                closer = fixture_store.actions[second]
                terminated = {fixture_store.closed_by(closer, urn).id
                              for urn in day_rule.effects(fixture_store)[second][0]}
                assert produced & terminated

    def test_multi_work_spans_yield_one_chain_per_work(self, fixture_store, clock):
        answer = run(fixture_store, StructuredQuery(
            QueryPattern.PROVENANCE, structural_target="tit2_cap2",
            textual_target="rights"), clock)
        works = [a["target"] for a in answer.annex["actions"]]
        assert ART6_CPT in works and ART7_CPT in works
        assert len(answer.annex["chains"]) >= 2


class TestRetrievePattern:
    def test_ranked_hits_with_citations(self, fixture_store, clock):
        answer = run(fixture_store, StructuredQuery(
            QueryPattern.RETRIEVE, structural_target="tit2_cap2",
            textual_target="housing rights",
            temporal=TemporalScope.instant(date(2016, 1, 1))), clock)
        assert answer.citations
        assert 0.0 <= answer.confidence <= 1.0

    def test_aspect_selection_flows_through(self, fixture_store, clock):
        answer = run(fixture_store, StructuredQuery(
            QueryPattern.RETRIEVE, structural_target=ART6_CPT,
            textual_target="housing amendment",
            temporal=TemporalScope.instant(date(2016, 1, 1)),
            aspects=frozenset({Aspect.ACTION_DESCRIPTION})), clock)
        assert answer.citations == ()
        assert answer.actions


class TestDeterminism:
    def test_identical_inputs_give_byte_identical_answers(self, fixture_store, clock):
        queries = [
            pit("art6", TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))),
            StructuredQuery(QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
                            temporal=TemporalScope.interval(date(2010, 1, 1),
                                                            date(2019, 12, 31))),
            StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                            textual_target="food"),
        ]
        for query in queries:
            first = run(fixture_store, query, clock)
            second = run(fixture_store, query, clock)
            assert first.annex_json() == second.annex_json()
            assert first.rendered_text == second.rendered_text

    def test_anachronism_exclusion_on_synthetic_corpora(self):
        rng = random.Random(99)
        probes = 0
        for seed in range(40):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            works = sorted(store.versions)
            horizon = (corpus.event_dates()[-1] if corpus.event_dates()
                       else corpus.enactment) + timedelta(days=200)
            for _ in range(10):
                urn = rng.choice(works)
                t = date.fromordinal(rng.randint(
                    corpus.enactment.toordinal(), horizon.toordinal()))
                query = StructuredQuery(
                    QueryPattern.POINT_IN_TIME, structural_target=urn,
                    temporal=TemporalScope.instant(t))
                try:
                    answer = run(store, query, t)
                except (NotYetEnacted, Exception) as exc:
                    if type(exc).__name__ in ("NotYetEnacted", "RepealedAt"):
                        continue
                    raise
                probes += 1
                for _, ctv, _ in answer.citations:
                    assert store.ctvs[ctv].contains(t)
        assert probes > 100


class TestNoReferenceCycles:
    def test_answered_queries_of_every_pattern_leave_nothing_to_the_cyclic_collector(
            self, fixture_store, clock):
        """An answer's objects are freed by reference counting alone."""
        queries = [
            pit(NORM_URN, TemporalScope.instant(date(2016, 1, 1))),
            pit("art6", TemporalScope.instant(date(1999, 6, 1)), language="en"),
            StructuredQuery(QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
                            temporal=TemporalScope.interval(date(2010, 1, 1),
                                                            date(2019, 12, 31))),
            StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                            textual_target="food"),
            StructuredQuery(QueryPattern.PROVENANCE, textual_target="include"),
            StructuredQuery(QueryPattern.RETRIEVE, textual_target="social rights housing",
                            aspects=frozenset(Aspect), mode=RetrievalMode.HYBRID),
        ]
        # The first run derives the store's indexes and does any lazy imports.
        answers = [run(fixture_store, query, clock) for query in queries]
        assert {answer.annex["pattern"] for answer in answers} == {
            "point_in_time", "impact_analysis", "provenance", "retrieve"}
        assert len(answers[0].citations) > 2  # the norm's closure was walked
        gc.collect()
        gc.disable()
        try:
            for query in queries:
                run(fixture_store, query, clock)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAnnexSchema:
    def test_every_pattern_validates_against_shipped_schema(self, fixture_store, clock):
        jsonschema = pytest.importorskip("jsonschema")
        import json
        from importlib import resources

        schema = json.loads(
            resources.files("normgraph").joinpath("annex.schema.json")
            .read_text(encoding="utf-8"))
        answers = [
            run(fixture_store, pit(
                "art6", TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))),
                clock),
            run(fixture_store, StructuredQuery(
                QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
                temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31))),
                clock),
            run(fixture_store, StructuredQuery(
                QueryPattern.PROVENANCE, structural_target="art6",
                textual_target="food"), clock),
            run(fixture_store, StructuredQuery(
                QueryPattern.RETRIEVE, structural_target="tit2_cap2",
                textual_target="housing",
                temporal=TemporalScope.instant(date(2016, 1, 1))), clock),
        ]
        for answer in answers:
            jsonschema.validate(answer.annex, schema)
