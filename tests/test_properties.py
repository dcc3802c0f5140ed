"""Structural property tests over randomized corpora and tricky event mixes."""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest

from normgraph.errors import MissingLanguage, NotYetEnacted, RepealedAt, TermNotFound
from normgraph.ingest import add_language, apply_event, enact, parse_document, parse_event_file
from normgraph.model import (
    ActionType,
    Aspect,
    TemporalVersion,
    ValidityInterval,
    interval_contains,
    validate_graph,
)
from normgraph.planner import QueryPattern, StructuredQuery, _assemble_chain, run
from normgraph.retrieval import (
    RetrievalHit,
    RetrievalMode,
    RetrievalRequest,
    SpanLocation,
    _action_candidates,
    _bm25_scores,
    _content_candidates,
    _metadata_candidates,
    _theme_candidates,
    _vector_scores,
    cosine,
    embedder_for_store,
    locate_spans,
    scoped_search,
)
from normgraph.store import GraphStore, load, save, tokenize
from normgraph.temporal import alive_at, ctv_at, snapshot_fragments, snapshot_text

import synthcorpus
from test_ingest import amendment_file, apply_file, mini_doc


class TestAggregationClosure:
    def test_expansion_reaches_exactly_one_version_per_attached_component(self):
        for seed in range(40):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            probe_dates = [corpus.enactment] + corpus.event_dates()
            for t in probe_dates:
                root = ctv_at(store, corpus.norm_urn, t)
                reached: dict[str, str] = {}
                stack = [root]
                while stack:
                    tv = stack.pop()
                    assert tv.work not in reached, (seed, t, tv.work)
                    reached[tv.work] = tv.id
                    assert interval_contains(tv.validity, t), (seed, t, tv.id)
                    stack.extend(store.ctvs[c] for c in tv.aggregates)


class TestSameDayCompositeEvents:
    def _store_with_two_same_day_amendments(self) -> GraphStore:
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        first = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "First v2.")
        second = amendment_file("urn:test:mini!art2_cpt", "2003-06-01", "Second v2.")
        second["instrument"]["urn"] = "urn:test:act:2003-06-01;b"
        second["instrument"]["short_title"] = "AB 2003"
        apply_file(store, first)
        apply_file(store, second)
        return store

    def test_shared_ancestor_rolls_once(self):
        store = self._store_with_two_same_day_amendments()
        norm_versions = store.versions_of("urn:test:mini")
        assert [tv.validity.valid_start for tv in norm_versions] == [
            date(2000, 1, 1), date(2003, 6, 1)]
        merged = norm_versions[-1]
        child_starts = sorted(
            store.ctvs[c].validity.valid_start for c in merged.aggregates)
        # Both same-day article versions hang off the single norm version.
        assert child_starts == [date(2003, 6, 1), date(2003, 6, 1)]

    def test_producer_bijection_survives_the_merge(self):
        store = self._store_with_two_same_day_amendments()
        assert validate_graph(store) == []
        produced: dict[str, str] = {}
        for action in store.actions.values():
            for cid in action.produces:
                assert cid not in produced, cid
                produced[cid] = action.id
        for tv in store.ctvs.values():
            assert produced.get(tv.id) == tv.produced_by

    def test_snapshot_after_merge_shows_both_amendments(self):
        store = self._store_with_two_same_day_amendments()
        texts = dict(snapshot_text(store, "urn:test:mini", date(2003, 6, 1)))
        assert texts["urn:test:mini!art1_cpt"] == "First v2."
        assert texts["urn:test:mini!art2_cpt"] == "Second v2."


class TestRepealWithDescendants:
    def _store(self) -> GraphStore:
        store = GraphStore()
        enact(store, parse_document({
            "format_version": 1,
            "norm": {"urn": "urn:test:det", "title": "Detach", "short_title": "DT",
                     "publication_date": "2000-01-01", "language": "en"},
            "body": [{
                "fragment": "art1", "type": "article",
                "children": [{
                    "fragment": "art1_cpt", "type": "caput", "text": "Caput.",
                    "children": [
                        {"fragment": "art1_it1", "type": "item", "text": "Item."}],
                }],
            }],
        }))
        apply_file(store, amendment_file(
            "urn:test:det!art1_cpt", "2005-01-01", "", action_type="repeal"))
        return store

    def test_subtree_disappears_from_snapshots(self):
        store = self._store()
        assert snapshot_text(store, "urn:test:det", date(2006, 1, 1)) == []
        before = dict(snapshot_text(store, "urn:test:det", date(2004, 1, 1)))
        assert "urn:test:det!art1_it1" in before

    def test_detached_descendant_versions_stay_resolvable(self):
        # Repeals terminate only the explicitly named component; its
        # descendants keep open versions but become unreachable from the
        # norm root.
        store = self._store()
        item = ctv_at(store, "urn:test:det!art1_it1", date(2006, 1, 1))
        assert item.validity.is_open
        assert validate_graph(store) == []


class TestSnapshotRoundTripOnSyntheticCorpora:
    def test_nodes_and_bytes_survive(self, tmp_path):
        for seed in (0, 5, 23):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            store.commit()
            first = tmp_path / f"{seed}-a.ndjson"
            second = tmp_path / f"{seed}-b.ndjson"
            save(store, first)
            loaded = load(first)
            assert loaded.ctvs == store.ctvs
            assert loaded.units == store.units
            # Store equality leaves the matrix out; compare it here, bitwise.
            assert loaded.unit_rows == store.unit_rows
            assert loaded.embeddings.tobytes() == store.embeddings.tobytes()
            save(loaded, second)
            assert first.read_bytes() == second.read_bytes()

    def test_unicode_text_survives_round_trip(self, tmp_path):
        store = GraphStore()
        payload = mini_doc(1)
        payload["norm"]["language"] = "pt"
        payload["body"][0]["children"][0]["text"] = (
            "São direitos sociais a educação, a saúde — «teste» • ±1ª")
        enact(store, parse_document(payload))
        store.commit()
        path = tmp_path / "u.ndjson"
        save(store, path)
        loaded = load(path)
        assert loaded.units == store.units
        assert loaded.unit_rows == store.unit_rows
        assert loaded.embeddings.tobytes() == store.embeddings.tobytes()
        assert "educação" in path.read_text(encoding="utf-8")


# -- index-backed lookups against brute-force references ---------------------------

_SPANISH = dict(zip(synthcorpus.WORDS, [
    "alfa", "beta", "gama", "delta", "omega", "derechos", "deber", "impuesto",
    "tierra", "agua", "comercio", "salud", "caminos", "escuela", "tribunal",
]))


# One French wording given to several provisions: units with the same text.
_SHARED_FRENCH = "Les droits de la terre et de l'eau."


def _spanish_wordings(store: GraphStore, urns: list[str], t: date) -> dict[str, str]:
    """Spanish wording for each of ``urns`` whose version at ``t`` has English and no Spanish."""
    translations = {}
    for urn in urns:
        tv = _linear_version(store, urn, t)
        lv = store.content_clv(tv.id, "en") if tv else None
        if lv is not None and store.content_clv(tv.id, "es") is None:
            text = store.units[lv.text_unit].text
            translations[store.works[urn].id.fragment] = " ".join(
                _SPANISH.get(token, token) for token in tokenize(text))
    return translations


def _committed_store(seed: int, shared_french: bool = False, late_spanish: bool = False,
                     ) -> tuple[synthcorpus.SynthCorpus, GraphStore]:
    """A synthetic norm with Spanish wording on some of its enacted provisions.

    With ``shared_french`` the same provisions also get one French wording.
    With ``late_spanish`` the other provisions get Spanish on the version in
    force at the last event, so an amended one has a version without
    Spanish before one with it.
    """
    corpus = synthcorpus.generate_corpus(seed)
    store = synthcorpus.build_store(corpus)
    provisions = store.descendants(corpus.norm_urn)
    translations = _spanish_wordings(store, provisions[1::2], corpus.enactment)
    add_language(store, corpus.norm_urn, translations, "es", at=corpus.enactment)
    if late_spanish and corpus.event_dates():
        last = corpus.event_dates()[-1]
        add_language(store, corpus.norm_urn, _spanish_wordings(store, provisions[2::2], last),
                     "es", at=last)
    if shared_french:
        add_language(store, corpus.norm_urn, dict.fromkeys(translations, _SHARED_FRENCH),
                     "fr", at=corpus.enactment)
    store.commit()
    return corpus, store


def _rule(store: GraphStore, ctv: str, language: str | None, fallback: bool) -> str | None:
    """The language rule written out: the requested wording, else the primary one."""
    languages = store.clvs_by_ctv.get(ctv, {})
    work = store.works[store.ctvs[ctv].work]
    primary = store.works[work.id.norm_urn].meta("language", "en")
    chosen = languages.get(language or primary)
    return languages.get(primary) if chosen is None and fallback else chosen


def _reference_spans(store: GraphStore, term: str, scope, language=None,
                     fallback=True) -> list[SpanLocation]:
    """Re-tokenize every in-scope version's text and slide the needle over it."""
    needle = tokenize(term)
    n = len(needle)
    out: list[SpanLocation] = []
    for urn in sorted(set(scope)):
        previous = False
        for cid in store.versions.get(urn, ()):
            lv_id = _rule(store, cid, language, fallback)
            if lv_id is None:
                previous = False
                continue
            tokens = tokenize(store.units[store.clvs[lv_id].text_unit].text)
            contains = n > 0 and any(tokens[i:i + n] == needle
                                     for i in range(len(tokens) - n + 1))
            if contains:
                out.append(SpanLocation(urn, cid, first_containing=not previous))
            previous = contains
    return out


def _probe_terms(store: GraphStore, rng: random.Random) -> list[str]:
    texts = sorted(unit.text for unit in store.units.values())
    terms = list(synthcorpus.WORDS) + ["agua", "zebra", "", "!!", "Water", "version"]
    for text in rng.sample(texts, min(6, len(texts))):
        tokens = tokenize(text)
        i = rng.randrange(len(tokens) - 1)
        terms.append(" ".join(tokens[i:i + rng.randint(2, 3)]))  # adjacent phrase
        terms.append(f"{tokens[-1]} {tokens[0]}")  # both present, not adjacent
        terms.append(f"{tokens[-1]} {tokens[-1]}")  # one token repeated
    for _ in range(6):
        terms.append(" ".join(rng.sample(synthcorpus.WORDS, 2)))
    return terms


def _repealed_works(store: GraphStore) -> set[str]:
    return {
        target
        for action in store.actions.values() if action.action_type is ActionType.REPEAL
        for target in action.targets
    }


class TestIndexBackedSpans:
    def test_locate_spans_matches_retokenizing_reference(self):
        repealed = translated = 0
        for seed in range(40):
            _, store = _committed_store(seed)
            rng = random.Random(seed)
            scopes = [sorted(store.works)]
            repealed_here = sorted(_repealed_works(store))
            if repealed_here:
                scopes.append(repealed_here)
                repealed += 1
            for term in _probe_terms(store, rng):
                for scope in scopes:
                    for language in (None, "es", "en"):
                        got = locate_spans(store, term, scope, language)
                        assert got == _reference_spans(store, term, scope, language), (
                            seed, term, language)
                        for span in got:
                            chain = store.versions[span.work]
                            pre = _assemble_chain(store, span.work, span.ctv).pre_ctv
                            index = chain.index(span.ctv)
                            assert pre == (chain[index - 1] if index else None)
            translated += any(lv.language == "es" for lv in store.clvs.values())
        # The probes must have reached the cases they are meant to cover.
        assert repealed >= 5 and translated >= 30

    def test_translated_wording_is_searched_in_the_requested_language(self):
        _, store = _committed_store(3)
        unit = next(u for u in store.units.values() if u.language == "es")
        term = next(token for token in tokenize(unit.text) if token in _SPANISH.values())
        spanish = locate_spans(store, term, sorted(store.works), "es")
        assert spanish
        assert all(store.content_clv(s.ctv, "es") is not None for s in spanish)
        assert locate_spans(store, term, sorted(store.works)) == []

    @pytest.mark.parametrize("fallback", [True, False])
    def test_every_reader_reads_the_wording_the_rule_selects(self, fallback):
        """Snapshots, content candidates, span location and provenance citations."""
        gaps = cited = 0
        terms = [_SPANISH["water"], "water", _SPANISH["rights"], "rights",
                 _SPANISH["land"], _SPANISH["tax"]]
        for seed in range(0, 40, 5):
            corpus, store = _committed_store(seed, late_spanish=True)
            works = frozenset(store.works)
            for language in (None, "es", "en"):
                for t in [corpus.enactment] + corpus.event_dates():
                    reached = list(_reached(store, ctv_at(store, corpus.norm_urn, t)))
                    chosen = {tv.id: _rule(store, tv.id, language, fallback) for tv in reached}
                    if any(tv.id in store.clvs_by_ctv and chosen[tv.id] is None
                           for tv in reached):
                        with pytest.raises(MissingLanguage):
                            snapshot_fragments(store, corpus.norm_urn, t, language, fallback)
                        gaps += 1
                    else:
                        got = snapshot_fragments(store, corpus.norm_urn, t, language, fallback)
                        assert [(f.work, f.ctv, f.clv) for f in got] == [
                            (tv.work, tv.id, chosen[tv.id]) for tv in reached if chosen[tv.id]]
                    request = RetrievalRequest("", works, t, language=language,
                                               language_fallback=fallback)
                    expected = set()
                    for urn in works:
                        tv = store.version_at(urn, t)
                        clv = tv and _rule(store, tv.id, language, fallback)
                        if clv:
                            expected.add((urn, tv.id, clv))
                    assert {c.provenance for c in _content_candidates(
                        store, request, language)} == expected, (seed, t, language)
                for term in terms:
                    spans = _reference_spans(store, term, works, language, fallback)
                    assert locate_spans(store, term, works, language, fallback) == spans
                    query = StructuredQuery(QueryPattern.PROVENANCE, textual_target=term,
                                            language=language, language_fallback=fallback)
                    try:
                        answer = run(store, query, corpus.enactment)
                    except TermNotFound:
                        assert not any(s.first_containing for s in spans)
                        continue
                    for _, ctv, clv in answer.citations:
                        assert clv == _rule(store, ctv, language, fallback), (seed, term)
                        cited += 1
        # Fallback off must have hit versions with no wording in the language.
        assert cited > 50 and (gaps > 0) is not fallback

    def test_uncommitted_store_has_no_term_index(self):
        corpus = synthcorpus.generate_corpus(1)
        store = synthcorpus.build_store(corpus)
        assert locate_spans(store, "provision", sorted(store.works)) == []


def _reached(store: GraphStore, tv: TemporalVersion):
    """``tv`` and its aggregation closure, depth first in aggregate order."""
    yield tv
    for cid in tv.aggregates:
        yield from _reached(store, store.ctvs[cid])


def _linear_version(store: GraphStore, urn: str, t: date):
    return next((store.ctvs[cid] for cid in store.versions.get(urn, ())
                 if interval_contains(store.ctvs[cid].validity, t)), None)


def _boundary_days(store: GraphStore, urn: str) -> list[date]:
    chain = store.versions_of(urn)
    days = {date(1990, 1, 1), date(2100, 1, 1)}
    for tv in chain:
        start, end = tv.validity.valid_start, tv.validity.valid_end
        days.update({start - timedelta(days=1), start})
        if end is not None:
            days.update({tv.validity.last_valid_day, end, end + timedelta(days=1),
                         end + timedelta(days=400)})
    return sorted(days)


class TestBisectVersionSelection:
    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_ctv_at_and_alive_at_match_a_linear_scan(self, seed):
        corpus = synthcorpus.generate_corpus(seed)
        store = synthcorpus.build_store(corpus)
        for urn in sorted(store.works):
            chain = store.versions_of(urn)
            for t in _boundary_days(store, urn):
                expected = _linear_version(store, urn, t)
                assert alive_at(store, urn, t) is (expected is not None)
                if expected is not None:
                    assert ctv_at(store, urn, t) == expected
                elif not chain or t < chain[0].validity.valid_start:
                    with pytest.raises(NotYetEnacted):
                        ctv_at(store, urn, t)
                else:
                    with pytest.raises(RepealedAt) as info:
                        ctv_at(store, urn, t)
                    assert info.value.repealed_end == chain[-1].validity.valid_end

    def test_after_a_repeal_nothing_is_selected(self):
        seen = 0
        for seed in range(40):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            for urn in _repealed_works(store):
                end = store.versions_of(urn)[-1].validity.valid_end
                assert end is not None
                assert store.version_at(urn, end - timedelta(days=1)) is not None
                for t in (end, end + timedelta(days=1), date(2100, 1, 1)):
                    assert not alive_at(store, urn, t)
                    with pytest.raises(RepealedAt):
                        ctv_at(store, urn, t)
                seen += 1
        assert seen >= 5

    def test_version_at_tracks_a_store_being_built(self):
        # add_ctv keeps version_starts beside versions event by event.
        checked = 0
        for seed in (2, 9, 17):
            corpus = synthcorpus.generate_corpus(seed)
            store = GraphStore()
            enact(store, parse_document(corpus.doc))
            for event_file in corpus.event_files:
                parsed = parse_event_file(event_file)
                for record in parsed.events:
                    apply_event(store, record, parsed.instrument)
                    for urn in sorted(store.works):
                        assert store.version_starts.get(urn, []) == [
                            tv.validity.valid_start for tv in store.versions_of(urn)]
                        for t in _boundary_days(store, urn):
                            assert store.version_at(urn, t) == _linear_version(store, urn, t)
                            checked += 1
        assert checked > 2_000

    def test_add_ctv_out_of_order_matches_a_stable_sort(self):
        store = GraphStore()
        days = [date(2010, 1, 1), date(2000, 1, 1), date(2005, 1, 1), date(2000, 1, 1)]
        for i, start in enumerate(days):
            store.add_ctv(TemporalVersion(f"w@{i}", "w", ValidityInterval(start)))
        assert store.versions["w"] == ["w@1", "w@3", "w@2", "w@0"]
        assert store.version_starts["w"] == sorted(days)
        assert store.version_at("w", date(1999, 12, 31)) is None
        assert store.version_at("w", date(2004, 1, 1)).id == "w@3"
        assert store.version_at("w", date(2011, 1, 1)).id == "w@0"

    @pytest.mark.parametrize("seed", range(1, 40, 4))
    def test_content_candidates_match_a_linear_scan(self, seed):
        _, store = _committed_store(seed)
        works = frozenset(store.works)
        days = sorted({t for urn in works for t in _boundary_days(store, urn)})
        for t in days:
            for language in (None, "es"):
                request = RetrievalRequest(query_text="", scope=works, t=t, language=language)
                got = {c.provenance[0]: c.provenance[1]
                       for c in _content_candidates(store, request, language)}
                expected = {}
                for urn in works:
                    tv = _linear_version(store, urn, t)
                    if tv is not None and store.clvs_by_ctv.get(tv.id):
                        expected[urn] = tv.id
                assert got == expected, (seed, t, language)


# -- one vecdot over the embedding matrix against per-candidate cosine ----------------

def _cosine_reference(store: GraphStore, req: RetrievalRequest) -> list[RetrievalHit]:
    """scoped_search's ranking, scoring each candidate with its own cosine call."""
    by_unit = {}
    for cand in (_content_candidates(store, req, req.language) + _action_candidates(store, req)
                 + _metadata_candidates(store, req) + _theme_candidates(store, req)):
        by_unit.setdefault(cand.unit_id, cand)
    unit_ids = sorted(by_unit)
    query = embedder_for_store(store).embed(req.query_text)
    if req.mode is RetrievalMode.VECTOR:
        scored = sorted(((uid, cosine(query, store.embedding(uid))) for uid in unit_ids
                         if store.units[uid].retrievable), key=lambda p: (-p[1], p[0]))
    else:
        lexical = _bm25_scores(store, req.query_text, unit_ids)
        vec_order = sorted(unit_ids, key=lambda uid: (-cosine(query, store.embedding(uid)), uid))
        lex_order = sorted(unit_ids, key=lambda uid: (-lexical[uid], uid))
        vec_rank = {uid: i for i, uid in enumerate(vec_order)}
        lex_rank = {uid: i for i, uid in enumerate(lex_order)}
        fused = sorted(unit_ids, key=lambda uid: (vec_rank[uid] + lex_rank[uid], lex_rank[uid], uid))
        scored = [(uid, 1.0 / (1.0 + vec_rank[uid] + lex_rank[uid])) for uid in fused]
    return [RetrievalHit(uid, round(score, 12), by_unit[uid].provenance, by_unit[uid].aspect)
            for uid, score in scored[:req.k]]


class TestMatrixScoring:
    def test_vector_and_hybrid_match_per_candidate_cosine_bitwise(self):
        tied = 0
        for seed in range(20):
            corpus, store = _committed_store(seed, shared_french=True)
            rng = random.Random(seed)
            texts = sorted(unit.text for unit in store.units.values())
            queries = rng.sample(texts, 3) + [" ".join(rng.sample(synthcorpus.WORDS, 3)),
                                              _SHARED_FRENCH, "terre", "zebra", ""]
            works = frozenset(store.works)
            for t in [corpus.enactment] + corpus.event_dates()[::3] + [date(2100, 1, 1)]:
                for text in queries:
                    for mode in (RetrievalMode.VECTOR, RetrievalMode.HYBRID):
                        for language, k in ((None, 8), ("es", 10_000), ("fr", 10_000)):
                            req = RetrievalRequest(text, works, t, aspects=frozenset(Aspect),
                                                   language=language, k=k, mode=mode,
                                                   include_future_actions=k > 8)
                            hits = scoped_search(store, req)
                            assert hits == _cosine_reference(store, req), (
                                seed, t, text, mode, language)
                            if mode is RetrievalMode.VECTOR:
                                vector_hits = hits
                    # Unrounded scores of the French candidates, bit for bit.
                    uids = sorted({c.unit_id for c in _content_candidates(store, req, "fr")})
                    query = embedder_for_store(store).embed(text)
                    reference = [(uid, cosine(query, store.embedding(uid))) for uid in uids]
                    assert _vector_scores(store, text, uids) == reference
                    # Units with the same text tie at a nonzero score and rank by id.
                    shared = [h for h in vector_hits
                              if store.units[h.text_unit].text == _SHARED_FRENCH]
                    if len(shared) > 1 and shared[0].score > 0:
                        assert len({h.score for h in shared}) == 1
                        assert [h.text_unit for h in shared] == sorted(h.text_unit for h in shared)
                        tied += 1
        # The probes must have reached duplicate-text ties.
        assert tied >= 20
