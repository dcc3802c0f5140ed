from __future__ import annotations

import math
from datetime import date
from pathlib import Path

import pytest

from normgraph.cli import main
from normgraph.errors import EmptyScope
from normgraph.model import Aspect, EMBEDDING_DIMENSION
from normgraph.retrieval import (
    HashedTfidfEmbedder,
    RetrievalMode,
    RetrievalRequest,
    SpanLocation,
    _bucket,
    cosine,
    embedder_for_store,
    locate_spans,
    scoped_search,
)
from normgraph.planner import QueryPattern, StructuredQuery, run
from normgraph.store import GraphStore
from normgraph.temporal import TemporalScope, resolve_scope

import synthcorpus
from reference_ids import ART6, ART6_CPT, ART7_CPT, CAP2, NORM_URN
from test_properties import _committed_store

DATA = Path(__file__).parent / "data"


def dense(entries: dict[int, float]) -> list[float]:
    return [entries.get(i, 0.0) for i in range(EMBEDDING_DIMENSION)]


def default_embed(text: str) -> list[float]:
    """Corpus-free hashed TF embedding (IDF degenerates to a constant), as a dense vector."""
    return dense(HashedTfidfEmbedder().embed(text))


class TestDefaultEmbedder:
    def test_deterministic(self):
        a = default_embed("social rights housing")
        b = default_embed("social rights housing")
        assert list(map(float.hex, a)) == list(map(float.hex, b))

    def test_unit_norm_for_nonempty_text(self):
        vec = default_embed("education and health")
        assert math.isclose(math.hypot(*vec), 1.0, rel_tol=1e-12)
        assert math.isclose(cosine(vec, vec), 1.0, rel_tol=1e-12)

    def test_bag_of_words_order_invariance(self):
        # Direct computation: both strings produce identical token multisets,
        # so the hashed vectors must coincide exactly.
        a = default_embed("housing education")
        b = default_embed("education housing")
        assert list(map(float.hex, a)) == list(map(float.hex, b))
        assert math.isclose(cosine(a, b), 1.0, rel_tol=1e-12)

    def test_empty_text_embeds_to_zero_vector(self):
        assert HashedTfidfEmbedder().embed("") == {}
        assert math.hypot(*default_embed("")) == 0.0

    def test_entries_are_the_correctly_rounded_normalization_by_ascending_bucket(self):
        # Two tokens in one bucket add up in first-occurrence order; the
        # norm is an exactly rounded sum of squares, whatever the order.
        assert _bucket("rare") == _bucket("housing")
        embedder = HashedTfidfEmbedder(df={"rare": 1, "the": 90}, n_units=100)
        tokens = "the rare the rights food rare the social housing".split()
        entries = embedder.embed(" ".join(tokens))
        assert list(entries) == sorted(entries) and 0.0 not in entries.values()
        buckets: dict[int, float] = {}
        for token in dict.fromkeys(tokens):
            weight = tokens.count(token) * embedder.idf(token)
            buckets[_bucket(token)] = buckets.get(_bucket(token), 0.0) + weight
        norm = math.sqrt(math.fsum(v * v for v in buckets.values()))
        assert entries == {b: buckets[b] / norm for b in sorted(buckets)}

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
        query = dense(embedder_for_store(fixture_store).embed("workers rights"))
        expected = []
        for urn in sorted(scope):
            for cid in fixture_store.versions.get(urn, ()):
                tv = fixture_store.ctvs[cid]
                if not tv.contains(t):
                    continue
                lv_id = fixture_store.clvs_by_ctv.get(cid, {}).get("pt")
                if lv_id is None:
                    continue
                uid = fixture_store.clvs[lv_id].text_unit
                unit = dense(embedder_for_store(fixture_store).embed(fixture_store.units[uid].text))
                expected.append((uid, cosine(query, unit)))
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

    # An uncommitted store keeps no text index, so each scorer derives it:
    # vector scoring once for the query and its units together.
    @pytest.mark.parametrize("mode, derivations", [(RetrievalMode.VECTOR, 1),
                                                   (RetrievalMode.LEXICAL, 1),
                                                   (RetrievalMode.HYBRID, 2)])
    def test_an_uncommitted_store_derives_its_text_index_once_per_scorer(
            self, monkeypatch, mode, derivations):
        corpus = synthcorpus.generate_corpus(1)
        store = synthcorpus.build_store(corpus)
        t = corpus.event_dates()[-1]
        request = RetrievalRequest(query_text="provision rights alpha",
                                   scope=frozenset(resolve_scope(store, corpus.norm_urn, t)),
                                   t=t, k=50, mode=mode)
        derive, calls = GraphStore._derive_text_index, []
        monkeypatch.setattr(GraphStore, "_derive_text_index",
                            lambda self: calls.append(self) or derive(self))
        assert scoped_search(store, request)
        assert len(calls) == derivations

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
                assert tv.contains(t)


class TestBlankUnitsAndZeroScores:
    """A whitespace-only unit, and candidates whose score is zero, corpus-wide.

    The store's second theme has a blank description.
    """

    def test_a_blank_unit_is_a_lexical_and_hybrid_candidate_but_never_a_vector_hit(self):
        corpus, store = _committed_store(4, themes=True)
        blank, = store.text_index.blank
        assert store.units[blank].text == "  "
        for text in ("provision", "zebra", ""):
            for mode in RetrievalMode:
                request = RetrievalRequest(text, store.work_set, corpus.enactment,
                                           aspects=frozenset(Aspect), k=10_000, mode=mode)
                hits = {hit.text_unit: hit for hit in scoped_search(store, request)}
                assert len(hits) > 1, (text, mode)
                if mode is RetrievalMode.VECTOR:
                    assert blank not in hits, text
                else:
                    assert hits[blank].aspect is Aspect.THEME_DESCRIPTION, (text, mode)
                    assert mode is RetrievalMode.HYBRID or hits[blank].score == 0.0

    @pytest.mark.parametrize("mode", list(RetrievalMode))
    def test_a_zero_score_renders_as_zero_never_as_negative_zero(self, mode):
        # No unit holds "zebra", so every vector and lexical score is zero.
        corpus, store = _committed_store(4, themes=True)
        query = StructuredQuery(QueryPattern.RETRIEVE, textual_target="zebra", mode=mode,
                                k=10_000, aspects=frozenset(Aspect),
                                temporal=TemporalScope.instant(corpus.enactment))
        answer = run(store, query, corpus.enactment)
        hits = scoped_search(store, RetrievalRequest("zebra", store.work_set, corpus.enactment,
                                                      aspects=frozenset(Aspect), k=10_000,
                                                      mode=mode))
        assert all(math.copysign(1.0, hit.score) == 1.0 for hit in hits)
        assert "-0." not in answer.rendered_text and "-0." not in answer.annex_json()
        if mode is not RetrievalMode.HYBRID:
            assert {hit.score for hit in hits} == {0.0}
            assert answer.rendered_text.count("[0.000000]") == len(hits) > 1
            assert '"confidence":0.0' in answer.annex_json()


class TestGoldenRetrieval:
    """Every aspect's scores, pinned byte for byte.

    A corpus-wide retrieval of the golden snapshot over all four aspects,
    with k above its 16 units, so every candidate is a hit: the rendered
    answer gives each hit's unit id and score (a hybrid hit's is its fused
    rank's), and the annex each hit's citation or action. Each golden file
    is the output of::

        normgraph query retrieve --snapshot tests/data/golden_fixture.ndjson \\
          --text "social rights of workers in the constitution" --at 2020-01-01 \\
          --clock 2024-01-02 --mode MODE --k 100 \\
          --aspects content,action_description,metadata,theme_description [--json]
    """

    @pytest.mark.parametrize("mode", ["lexical", "vector", "hybrid"])
    @pytest.mark.parametrize("flags, suffix", [([], ".txt"), (["--json"], "_annex.json")],
                             ids=["rendered", "annex"])
    def test_every_aspect_scores_as_the_golden_file(self, capsys, mode, flags, suffix):
        code = main(["query", "retrieve", "--snapshot", str(DATA / "golden_fixture.ndjson"),
                     "--text", "social rights of workers in the constitution",
                     "--at", "2020-01-01", "--clock", "2024-01-02", "--mode", mode, "--k", "100",
                     "--aspects", "content,action_description,metadata,theme_description",
                     *flags])
        assert code == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (DATA / f"golden_retrieve_{mode}{suffix}").read_bytes()
        if not flags:
            assert all(f"({aspect.value})" in out for aspect in Aspect)


def _located(ctv: str, position: int, language: str = "pt") -> SpanLocation:
    """The location of ``ctv``, the ``position``-th version of its work, read in ``language``."""
    work = ctv.partition("@")[0]
    return SpanLocation(work, ctv, position, f"{ctv}#{language}")


@pytest.mark.parametrize("by_postings", [False, True], ids=["walk", "postings"])
class TestLocateSpans:
    """Span location returns introductions only: a version holding the term whose
    chain predecessor does not."""

    def test_food_is_introduced_once_by_ca64(self, fixture_store, by_postings):
        # CA 90/2015's version still holds "food", so it is no introduction.
        scope = resolve_scope(fixture_store, ART6, date(2016, 1, 1))
        assert locate_spans(fixture_store, "food", scope, by_postings=by_postings) == [
            _located(f"{ART6_CPT}@2010-02-04", 2)]

    def test_absent_term_yields_empty_list(self, fixture_store, by_postings):
        scope = resolve_scope(fixture_store, ART6, date(2016, 1, 1))
        assert locate_spans(fixture_store, "spaceports", scope, by_postings=by_postings) == []

    def test_housing_is_introduced_at_the_ca26_version(self, fixture_store, by_postings):
        scope = resolve_scope(fixture_store, NORM_URN, date(2016, 1, 1))
        assert locate_spans(fixture_store, "housing", scope, by_postings=by_postings) == [
            _located(f"{ART6_CPT}@2000-02-15", 1)]

    def test_multiword_term_is_token_contiguous(self, fixture_store, by_postings):
        scope = {ART6_CPT}
        # "education, health" tokenizes contiguously in every version; "education
        # work" does not (health sits between them in every version).
        assert locate_spans(fixture_store, "education health", scope,
                            by_postings=by_postings) == [_located(f"{ART6_CPT}@1988-10-05", 0)]
        assert locate_spans(fixture_store, "education work", scope,
                            by_postings=by_postings) == []

    def test_case_folded_matching(self, fixture_store, by_postings):
        assert locate_spans(fixture_store, "HOUSING", {ART6_CPT}, by_postings=by_postings) == [
            _located(f"{ART6_CPT}@2000-02-15", 1)]

    def test_a_term_in_every_version_is_introduced_once(self, fixture_store, by_postings):
        # "education" appears in the original and in all three later versions.
        assert locate_spans(fixture_store, "education", {ART6_CPT},
                            by_postings=by_postings) == [_located(f"{ART6_CPT}@1988-10-05", 0)]

    def test_the_requested_language_is_the_cited_wording(self, fixture_store, by_postings):
        # Only the original caput has an English wording; later versions fall back to pt.
        assert locate_spans(fixture_store, "education", {ART6_CPT}, "en",
                            by_postings=by_postings) == [
            _located(f"{ART6_CPT}@1988-10-05", 0, "en")]

    def test_workers_term_in_art7(self, fixture_store, by_postings):
        assert locate_spans(fixture_store, "domestic workers", {ART7_CPT},
                            by_postings=by_postings) == [_located(f"{ART7_CPT}@2013-04-02", 1)]

    def test_introductions_come_in_work_then_chain_order(self, fixture_store, by_postings):
        # "rights" opens both chains; the scope's own order does not matter.
        assert locate_spans(fixture_store, "rights", [ART7_CPT, ART6_CPT],
                            by_postings=by_postings) == [
            _located(f"{ART6_CPT}@1988-10-05", 0), _located(f"{ART7_CPT}@1988-10-05", 0)]


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
        assert all(fixture_store.clvs[h.provenance[2]].language == "en" for h in hits)

    def test_fallback_enabled_serves_primary_language(self, fixture_store):
        t = date(1999, 6, 1)
        scope = frozenset(resolve_scope(fixture_store, CAP2, t))
        hits = scoped_search(fixture_store, RetrievalRequest(
            query_text="rights", scope=scope, t=t, language="en", k=20))
        assert len(hits) > 1
