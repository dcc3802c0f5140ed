from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest

from normgraph.errors import EmptyScope
from normgraph.fixture_corpus import ART6, ART6_CPT, ART7_CPT, CAP2, NORM_URN
from normgraph.model import Aspect, interval_contains
from normgraph.retrieval import (
    HashedTfidfEmbedder,
    RetrievalMode,
    RetrievalRequest,
    cosine,
    default_embed,
    embedder_for_store,
    locate_spans,
    scoped_search,
)
from normgraph.temporal import resolve_scope

import synthcorpus


class TestDefaultEmbedder:
    def test_deterministic(self):
        a = default_embed("social rights housing")
        b = default_embed("social rights housing")
        assert np.array_equal(a, b)

    def test_unit_norm_for_nonempty_text(self):
        vec = default_embed("education and health")
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, rel_tol=1e-12)
        assert math.isclose(cosine(vec, vec), 1.0, rel_tol=1e-12)

    def test_bag_of_words_order_invariance(self):
        # Direct computation: both strings produce identical token multisets,
        # so the hashed vectors must coincide exactly.
        a = default_embed("housing education")
        b = default_embed("education housing")
        assert np.array_equal(a, b)
        assert math.isclose(cosine(a, b), 1.0, rel_tol=1e-12)

    def test_empty_text_embeds_to_zero_vector(self):
        vec = default_embed("")
        assert float(np.linalg.norm(vec)) == 0.0

    def test_dimension_configurable(self):
        assert default_embed("x", dimension=64).shape == (64,)

    def test_idf_downweights_common_tokens(self):
        embedder = HashedTfidfEmbedder(df={"the": 90, "rare": 1}, n_units=100)
        assert embedder.idf("rare") > embedder.idf("the")


class TestScopedSearch:
    def _request(self, store, entry, t, text, **kwargs):
        scope = frozenset(resolve_scope(store, entry, t))
        return RetrievalRequest(
            query_text=text, scope=scope, t=t, **kwargs)

    def test_top_hit_is_ca26_era_caput(self, fixture_store):
        t = date(2005, 1, 1)
        hits = scoped_search(fixture_store, self._request(
            fixture_store, ART6, t, "social rights housing"))
        ca26_ctv = f"{ART6_CPT}@2000-02-15"
        assert hits[0].provenance == (ART6_CPT, ca26_ctv, f"{ca26_ctv}#pt")
        assert hits[0].aspect is Aspect.CONTENT

    def test_ranking_matches_exhaustive_cosine_scoring(self, fixture_store):
        # Independent oracle: score every candidate unit directly and
        # compare the induced ordering with scoped_search's result.
        t = date(2014, 1, 1)
        scope = resolve_scope(fixture_store, CAP2, t)
        request = RetrievalRequest(
            query_text="workers rights", scope=frozenset(scope), t=t, k=10)
        hits = scoped_search(fixture_store, request)
        embedder = embedder_for_store(fixture_store)
        query = embedder.embed("workers rights")
        expected = []
        for urn in sorted(scope):
            for cid in fixture_store.versions.get(urn, ()):
                tv = fixture_store.ctvs[cid]
                if not interval_contains(tv.validity, t):
                    continue
                lv = fixture_store.content_clv(cid, "pt")
                if lv is None:
                    continue
                expected.append(
                    (lv.text_unit, cosine(query, fixture_store.embedding(lv.text_unit))))
        expected.sort(key=lambda p: (-round(p[1], 12), p[0]))
        assert [h.text_unit for h in hits] == [uid for uid, _ in expected[:10]]
        assert [h.score for h in hits] == [round(score, 12) for _, score in expected[:10]]

    def test_pre_2000_scope_excludes_housing_units(self, fixture_store):
        t = date(1995, 1, 1)
        hits = scoped_search(fixture_store, self._request(
            fixture_store, ART6, t, "social rights housing", k=20))
        for hit in hits:
            assert "housing" not in fixture_store.units[hit.text_unit].text

    def test_k_larger_than_candidates_returns_all_without_padding(self, fixture_store):
        hits = scoped_search(fixture_store, self._request(
            fixture_store, ART6, date(2005, 1, 1), "anything", k=50))
        assert 0 < len(hits) < 50

    def test_empty_scope_raises(self, fixture_store):
        with pytest.raises(EmptyScope):
            scoped_search(fixture_store, RetrievalRequest(
                query_text="x", scope=frozenset(), t=date(2005, 1, 1)))

    def test_aspect_isolation_content_only(self, fixture_store):
        hits = scoped_search(fixture_store, self._request(
            fixture_store, CAP2, date(2016, 1, 1), "amendment housing", k=50))
        assert all(h.aspect is Aspect.CONTENT for h in hits)

    def test_action_aspect_respects_query_instant(self, fixture_store):
        t = date(1995, 1, 1)
        request = RetrievalRequest(
            query_text="amendment", scope=frozenset({ART6_CPT}), t=t,
            aspects=frozenset({Aspect.ACTION_DESCRIPTION}), k=20)
        hits = scoped_search(fixture_store, request)
        # Only the 1988 enactment precedes t; the four amendments do not.
        actions = {h.provenance[2] for h in hits}
        assert actions == {"act:cf-1988:enactment"}

    def test_future_actions_flag_widens_the_candidate_set(self, fixture_store):
        request = RetrievalRequest(
            query_text="housing", scope=frozenset({ART6_CPT}), t=date(1995, 1, 1),
            aspects=frozenset({Aspect.ACTION_DESCRIPTION}), k=20,
            include_future_actions=True)
        hits = scoped_search(fixture_store, request)
        assert len(hits) == 4  # enactment + three amendments touching art6_cpt

    def test_metadata_and_theme_aspects(self, fixture_store):
        request = RetrievalRequest(
            query_text="published constitution social rights",
            scope=frozenset(resolve_scope(fixture_store, NORM_URN, date(2016, 1, 1))),
            t=date(2016, 1, 1),
            aspects=frozenset({Aspect.METADATA, Aspect.THEME_DESCRIPTION}), k=20)
        hits = scoped_search(fixture_store, request)
        aspects = {h.aspect for h in hits}
        assert Aspect.METADATA in aspects
        assert Aspect.THEME_DESCRIPTION in aspects
        assert Aspect.CONTENT not in aspects

    def test_lexical_mode_scores_bounded_and_deterministic(self, fixture_store):
        request = self._request(
            fixture_store, CAP2, date(2016, 1, 1), "housing transportation",
            mode=RetrievalMode.LEXICAL, k=10)
        first = scoped_search(fixture_store, request)
        second = scoped_search(fixture_store, request)
        assert first == second
        assert all(-1.0 <= h.score <= 1.0 for h in first)
        assert first[0].provenance[0] == ART6_CPT

    def test_hybrid_mode_deterministic(self, fixture_store):
        request = self._request(
            fixture_store, CAP2, date(2016, 1, 1), "workers rights",
            mode=RetrievalMode.HYBRID, k=10)
        assert scoped_search(fixture_store, request) == scoped_search(fixture_store, request)

    def test_scope_soundness_on_synthetic_corpora(self):
        for seed in (3, 17, 42):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            store.commit()
            roots = sorted(store.children.get(corpus.norm_urn, ()))
            if not roots:
                continue
            t = corpus.event_dates()[-1] if corpus.event_dates() else corpus.enactment
            scope = resolve_scope(store, roots[0], t)
            if not scope:
                continue
            request = RetrievalRequest(
                query_text="provision rights alpha", scope=frozenset(scope),
                t=t, k=50)
            for hit in scoped_search(store, request):
                assert hit.provenance[0] in scope
                tv = store.ctvs[hit.provenance[1]]
                assert interval_contains(tv.validity, t)


class TestLocateSpans:
    def test_food_spans_with_first_containing_flags(self, fixture_store):
        scope = resolve_scope(fixture_store, ART6, date(2016, 1, 1))
        spans = locate_spans(fixture_store, "food", scope)
        assert [(s.ctv, s.first_containing) for s in spans] == [
            (f"{ART6_CPT}@2010-02-04", True),
            (f"{ART6_CPT}@2015-09-15", False),
        ]

    def test_absent_term_yields_empty_list(self, fixture_store):
        scope = resolve_scope(fixture_store, ART6, date(2016, 1, 1))
        assert locate_spans(fixture_store, "spaceports", scope) == []

    def test_housing_first_containing_at_ca26_version(self, fixture_store):
        scope = resolve_scope(fixture_store, NORM_URN, date(2016, 1, 1))
        spans = locate_spans(fixture_store, "housing", scope)
        first = [s for s in spans if s.first_containing]
        assert [(s.work, s.ctv) for s in first] == [
            (ART6_CPT, f"{ART6_CPT}@2000-02-15")]

    def test_multiword_term_is_token_contiguous(self, fixture_store):
        scope = {ART6_CPT}
        # "education, health" tokenizes contiguously; "education work" does
        # not (health sits between them in every version).
        assert locate_spans(fixture_store, "education health", scope)
        assert locate_spans(fixture_store, "education work", scope) == []

    def test_case_folded_matching(self, fixture_store):
        assert locate_spans(fixture_store, "HOUSING", {ART6_CPT})

    def test_term_survival_in_every_successor(self, fixture_store):
        # "education" appears in the original and in all later versions.
        spans = locate_spans(fixture_store, "education", {ART6_CPT})
        assert len(spans) == 4
        assert [s.first_containing for s in spans] == [True, False, False, False]

    def test_workers_term_in_art7(self, fixture_store):
        spans = locate_spans(fixture_store, "domestic workers", {ART7_CPT})
        assert [(s.ctv, s.first_containing) for s in spans] == [
            (f"{ART7_CPT}@2013-04-02", True)]


class TestLanguageFiltering:
    def test_fallback_disabled_skips_untranslated_works(self, fixture_store):
        # Only the original Art. 6 caput has an English wording; with
        # fallback off, an English query sees nothing else.
        t = date(1999, 6, 1)
        scope = frozenset(resolve_scope(fixture_store, CAP2, t))
        hits = scoped_search(fixture_store, RetrievalRequest(
            query_text="rights", scope=scope, t=t, language="en",
            language_fallback=False, k=20))
        assert [h.provenance[0] for h in hits] == [ART6_CPT]
        assert all(
            fixture_store.units[h.text_unit].language == "en" for h in hits)

    def test_fallback_enabled_serves_primary_language(self, fixture_store):
        t = date(1999, 6, 1)
        scope = frozenset(resolve_scope(fixture_store, CAP2, t))
        hits = scoped_search(fixture_store, RetrievalRequest(
            query_text="rights", scope=scope, t=t, language="en", k=20))
        assert len(hits) > 1
