"""Structural property tests over randomized corpora and tricky event mixes."""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from datetime import date, timedelta
from itertools import groupby
from types import SimpleNamespace
from typing import Iterator, NamedTuple

import pytest

from normgraph.errors import (
    MalformedInput, MissingLanguage, NotYetEnacted, RepealedAt, TermNotFound,
)
from normgraph.ingest import (
    add_language,
    apply_events,
    enact,
    ingest_corpus,
    parse_document,
)
from normgraph.model import (
    ActionType,
    Aspect,
    EMBEDDING_DIMENSION,
    PRESENTATION_KEYS,
    TemporalVersion,
    TextUnit,
    ctv_id,
    metadata_unit_id,
    validate_graph,
)
from normgraph import planner
from normgraph.planner import QueryPattern, StructuredQuery, run
from normgraph.retrieval import (
    HashedTfidfEmbedder,
    RetrievalHit,
    RetrievalMode,
    RetrievalRequest,
    SpanLocation,
    _action_candidates,
    _bm25_scores,
    _content_candidates,
    _metadata_candidates,
    _provenance,
    _theme_candidates,
    _vector_scores,
    cosine,
    embedder_for_store,
    locate_spans,
    scoped_search,
)
from normgraph.store import GraphStore, load, save, tokenize
from normgraph.temporal import (
    MembershipPolicy,
    TemporalScope,
    alive_at,
    ctv_at,
    resolve_scope,
    snapshot_fragments,
    snapshot_text,
)
from normgraph.themes import define_theme

import day_rule
import synthcorpus
from reference_ids import ART6
from test_ingest import aggregation, amendment_file, apply_file, mini_doc, versions_of
from test_store import entry_bits



def _candidates(find, store: GraphStore, req: RetrievalRequest) -> list[tuple[str, str, Aspect]]:
    """The (unit id, reference, aspect) of each candidate that ``find`` files."""
    found: dict[str, tuple[str, Aspect]] = {}
    find(store, req, found)
    return [(uid, ref, aspect) for uid, (ref, aspect) in found.items()]


def _scores(ranked: list[tuple[float, str]]) -> dict[str, float]:
    """A scorer's (-score, unit id) pairs as {unit id: score}, in their order."""
    return {uid: 0.0 - negated for negated, uid in ranked}

class TestAggregationClosure:
    def test_expansion_reaches_exactly_one_version_per_attached_component(self):
        for seed in range(40):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            probe_dates = [corpus.enactment] + corpus.event_dates()
            held_by = aggregation(store)
            for t in probe_dates:
                root = ctv_at(store, corpus.norm_urn, t)
                reached: dict[str, str] = {}
                stack = [root]
                while stack:
                    tv = stack.pop()
                    assert tv.work not in reached, (seed, t, tv.work)
                    reached[tv.work] = tv.id
                    assert tv.contains(t), (seed, t, tv.id)
                    stack.extend(held_by.get(tv.id, ()))


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
        norm_versions = versions_of(store, "urn:test:mini")
        assert [tv.valid_start for tv in norm_versions] == [
            date(2000, 1, 1), date(2003, 6, 1)]
        merged = norm_versions[-1]
        child_starts = sorted(
            c.valid_start for c in aggregation(store)[merged.id])
        # Both same-day article versions hang off the single norm version.
        assert child_starts == [date(2003, 6, 1), date(2003, 6, 1)]

    def test_producer_bijection_survives_the_merge(self):
        store = self._store_with_two_same_day_amendments()
        assert validate_graph(store) == []
        produced: dict[str, str] = {}
        for aid, (_, produces) in day_rule.effects(store).items():
            for urn in produces:
                cid = ctv_id(urn, store.actions[aid].effective_date)
                assert cid not in produced, cid
                produced[cid] = aid
        assert produced == store.produced_by
        assert set(produced) == set(store.ctvs)
        # The two amendments share the norm's roll, which the smaller id produces.
        assert store.produced_by["urn:test:mini@2003-06-01"] == min(
            aid for aid in store.actions if aid.endswith("2003-06-01"))

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
        assert item.valid_end is None
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
            for nodes in ("works", "ctvs", "clvs", "actions", "themes", "units"):
                assert getattr(loaded, nodes) == getattr(store, nodes), (seed, nodes)
            # Store equality leaves the embeddings out; compare them here, bitwise.
            assert entry_bits(loaded) == entry_bits(store)
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
        assert entry_bits(loaded) == entry_bits(store)
        assert "educação" in path.read_text(encoding="utf-8")


# What the replay of the actions builds.
_REPLAYED = ("ctvs", "versions", "version_starts", "produced_by")


class TestLoadReplaysWhatIngestBuilt:
    """Ingest applies each day's events in action id order and replays that day's
    actions in one call; load replays the whole action record a day at a time
    in (effective date, id) order. Both build the same versions, each filed
    under the producer the day rule gives."""

    @staticmethod
    def _assert_load_rebuilds(store: GraphStore, path) -> None:
        save(store, path)
        loaded = load(path)
        for name in _REPLAYED:
            assert getattr(loaded, name) == getattr(store, name), name
        assert store.produced_by == day_rule.produced_by(store)

    @pytest.mark.parametrize("seed", range(60))
    def test_synthetic_corpora(self, tmp_path, seed):
        store = synthcorpus.build_store(synthcorpus.generate_corpus(seed))
        store.commit()
        self._assert_load_rebuilds(store, tmp_path / "s.ndjson")

    def test_same_day_events_whose_file_order_is_not_their_id_order(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "mini.satdoc.json").write_text(json.dumps(mini_doc(3)), encoding="utf-8")
        day = "2003-06-01"
        # (file, instrument short title, event): the file names sort otherwise
        # than the ids, each of which begins with its short title's slug.
        events = [
            ("a", "ZZ 2003", amendment_file("urn:test:mini!art1_cpt", day, "Amended.")),
            ("b", "AA 2003", amendment_file("urn:test:mini!art1", day, "", components=[
                {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}])),
            ("c", "MM 2003", amendment_file("urn:test:mini!art3_cpt", day, "",
                                            action_type="repeal")),
            ("d", "BB 2003", amendment_file("urn:test:mini!art2_cpt", day, "Also amended.")),
            ("e", "CC 2004", amendment_file("urn:test:mini!art1_par1", "2004-01-01", "Later.")),
        ]
        for name, short, file_dict in events:
            file_dict["instrument"].update(urn=f"urn:test:act:{name}", short_title=short)
            (corpus / f"{name}.satev.json").write_text(json.dumps(file_dict), encoding="utf-8")
        store, _ = ingest_corpus(corpus)
        same_day = [aid for aid, action in store.actions.items()
                    if action.effective_date == date(2003, 6, 1)]
        # Filed in id order, whatever the file order.
        assert [aid.split(":")[1] for aid in same_day] == ["aa-2003", "bb-2003", "mm-2003",
                                                           "zz-2003"]
        assert validate_graph(store) == []
        self._assert_load_rebuilds(store, tmp_path / "s.ndjson")


def _one_day_corpus(tmp_path, doc: dict, events: list[tuple[str, str, dict]]):
    """Ingest ``doc`` and each (file, instrument short title, event file) under its file name.

    An event file's instrument is given its own urn and the short title, if one is given.
    """
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "mini.satdoc.json").write_text(json.dumps(doc), encoding="utf-8")
    for name, short, file_dict in events:
        if short:
            file_dict["instrument"].update(urn=f"urn:test:act:{name}", short_title=short)
        (corpus / f"{name}.satev.json").write_text(json.dumps(file_dict), encoding="utf-8")
    store, _ = ingest_corpus(corpus)
    return store


class TestTheDayRule:
    """Same-day events whose file order is the reverse of their id order (an id
    begins with its instrument's short title): ingest applies them in id order,
    whatever the file order, and the versions and producers it builds are those
    load's one replay builds."""

    DAY = "2003-06-01"

    def _producers(self, store: GraphStore, *works: str) -> list[str]:
        return [store.produced_by[f"urn:test:mini{work}@{self.DAY}"].split(":")[1]
                for work in works]

    def test_a_caput_amended_before_its_item_on_one_day(self, tmp_path):
        # The item's action has the smaller id, but each action's own effect
        # comes before any roll: the caput's amendment opens its version, so
        # the item's roll stops there, and the caput's action rolls the rest.
        doc = mini_doc(2)
        doc["body"][0]["children"][0]["children"] = [
            {"fragment": "art1_i1", "type": "item", "text": "Item one."}]
        store = _one_day_corpus(tmp_path, doc, [
            ("a", "ZZ 2003", amendment_file("urn:test:mini!art1_cpt", self.DAY, "Caput v2.")),
            ("b", "AA 2003", amendment_file("urn:test:mini!art1_i1", self.DAY, "Item v2.")),
        ])
        assert self._producers(store, "!art1_i1", "!art1_cpt", "!art1", "") == [
            "aa-2003", "zz-2003", "zz-2003", "zz-2003"]
        TestLoadReplaysWhatIngestBuilt._assert_load_rebuilds(store, tmp_path / "s.ndjson")

    def test_sibling_rolls_file_the_shared_ancestor_under_the_smaller_id(self, tmp_path):
        store = _one_day_corpus(tmp_path, mini_doc(2), [
            ("a", "ZZ 2003", amendment_file("urn:test:mini!art1_cpt", self.DAY, "One v2.")),
            ("b", "AA 2003", amendment_file("urn:test:mini!art2_cpt", self.DAY, "Two v2.")),
        ])
        # Rolls go in id order: AA's reaches the norm first, and ZZ's stops there.
        assert self._producers(store, "!art1", "!art2", "") == ["zz-2003", "aa-2003", "aa-2003"]
        TestLoadReplaysWhatIngestBuilt._assert_load_rebuilds(store, tmp_path / "s.ndjson")

    def test_an_insertion_joins_a_version_a_roll_opened_that_day(self, tmp_path):
        store = _one_day_corpus(tmp_path, mini_doc(2), [
            ("a", "ZZ 2003", amendment_file("urn:test:mini!art1_cpt", self.DAY, "One v2.")),
            ("b", "AA 2003", amendment_file("urn:test:mini!art1", self.DAY, "", components=[
                {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}])),
        ])
        assert self._producers(store, "!art1_cpt", "!art1_par1", "!art1", "") == [
            "zz-2003", "aa-2003", "aa-2003", "aa-2003"]
        assert [tv.valid_start for tv in versions_of(store, "urn:test:mini!art1")] == [
            date(2000, 1, 1), date(2003, 6, 1)]
        TestLoadReplaysWhatIngestBuilt._assert_load_rebuilds(store, tmp_path / "s.ndjson")

    def test_a_self_amending_event_cites_a_provision_its_norm_has(self, tmp_path):
        # Its enactment's replay would open a stub inside the enacted tree.
        event = amendment_file("urn:test:mini!art1_cpt", self.DAY, "One v2.")
        event["events"][0]["source_provision"] = "art99"
        event["instrument"].update(urn="urn:test:mini", title="Mini Statute", short_title="MS")
        with pytest.raises(MalformedInput, match=re.escape(
                "source provision 'art99' names no work of 'urn:test:mini', which the corpus "
                "enacts")) as exc:
            _one_day_corpus(tmp_path, mini_doc(2), [("a", None, event)])
        assert exc.value.path.endswith("a.satev.json")
        event["events"][0]["source_provision"] = "art2"
        (tmp_path / "corpus" / "a.satev.json").write_text(json.dumps(event), encoding="utf-8")
        store, _ = ingest_corpus(tmp_path / "corpus")
        assert store.actions[f"act:ms:art1-cpt:{self.DAY}"].source_provision == (
            "urn:test:mini!art2")
        TestLoadReplaysWhatIngestBuilt._assert_load_rebuilds(store, tmp_path / "s.ndjson")


class TestDerivedOnLoad:
    """A snapshot stores no statistic or embedding; load derives what commit does."""

    @pytest.mark.parametrize("seed", ["fixture", 2, 5, 7, 11, 13, 19, 23, 29, 31, 37])
    def test_a_reloaded_store_derives_what_the_committed_one_does(self, request, tmp_path, seed):
        if seed == "fixture":
            store = request.getfixturevalue("fixture_store")
            days = [date(1990, 1, 1), date(2011, 1, 1), date(2016, 1, 1)]
        else:
            corpus, store = _committed_store(seed, shared_french=True, late_spanish=True)
            days = [corpus.enactment] + corpus.event_dates()[::4]
        path = tmp_path / "s.ndjson"
        save(store, path)
        loaded = load(path)
        assert loaded.unit_embeddings == {}
        assert loaded.text_index == store.text_index
        rng = random.Random(str(seed))
        texts = sorted(unit.text for unit in store.units.values())
        queries = rng.sample(texts, 2) + [" ".join(rng.sample(synthcorpus.WORDS, 2)), "zebra"]
        works = frozenset(store.works)
        for t in days:
            for text in queries:
                for mode in RetrievalMode:
                    for language in (None, "es"):
                        req = RetrievalRequest(text, works, t, aspects=frozenset(Aspect),
                                               language=language, k=10_000, mode=mode,
                                               include_future_actions=True)
                        assert scoped_search(loaded, req) == scoped_search(store, req), (
                            t, text, mode, language)
        # Each embedding, kept by those reads or derived now, is embed(text)
        # under the committed statistics, bit for bit.
        embed = HashedTfidfEmbedder(store.text_index.df, store.text_index.n_units).embed
        assert entry_bits(loaded) == {
            uid: [(i, v.hex()) for i, v in embed(store.units[uid].text).items()]
            for uid in sorted(store.units)}


    @pytest.mark.parametrize("seed", [2, 9, 17])
    def test_the_work_set_blank_units_and_length_terms_match_a_fresh_count(self, tmp_path, seed):
        corpus, store = _translated_store(seed, late_spanish=True, themes=True)
        # Uncommitted, each read derives them afresh and none is kept.
        assert store.work_set == frozenset(store.works) and store.work_set is not store.work_set
        assert store.text_index is not store.text_index
        assert (store._work_set, store._text_index) == (None, None)
        store.commit()
        path = tmp_path / "s.ndjson"
        save(store, path)
        tokens = {uid: tokenize(unit.text) for uid, unit in store.units.items()}
        blank = {uid for uid, unit in store.units.items() if not unit.text.strip()}
        lengths = [len(words) for uid, words in tokens.items() if uid not in blank]
        avgdl = sum(lengths) / len(lengths)
        query = StructuredQuery(QueryPattern.RETRIEVE, textual_target="provision",
                                temporal=TemporalScope.instant(corpus.enactment))
        for derived in (store, load(path)):
            works = derived.work_set
            assert works == frozenset(store.works) and derived.work_set is works
            # A span-first query reads the set itself, not a copy.
            assert planner._scope_works(derived, query, corpus.enactment) == (works, False)
            assert planner._scope_works(derived, query, corpus.enactment)[0] is works
            index = derived.text_index
            assert index.blank == blank and len(blank) == 1  # the blank theme's description
            assert index.length_terms == {
                uid: 1.5 * (1.0 - 0.75 + 0.75 * len(words) / avgdl)
                for uid, words in tokens.items()}

    @pytest.mark.parametrize("seed", [3, 8, 14, 27])
    def test_statistics_match_an_independent_count(self, seed):
        # Shared French wording gives units of equal text, which df counts once each.
        _, store = _committed_store(seed, shared_french=True, late_spanish=True)
        tokens = {uid: tokenize(unit.text) for uid, unit in store.units.items()}
        lengths = [len(tokens[uid]) for uid, unit in store.units.items() if unit.retrievable]
        index = store.text_index
        assert index.n_units == len(lengths) > 0
        assert index.avgdl == sum(lengths) / len(lengths)
        assert index.length_terms == {uid: 1.5 * (1.0 - 0.75 + 0.75 * len(words) / index.avgdl)
                                      for uid, words in tokens.items()}
        assert index.blank == {uid for uid, unit in store.units.items() if not unit.text.strip()}
        assert index.df == dict(Counter(t for words in tokens.values() for t in set(words)))
        postings: dict[str, dict[str, int]] = {}
        for uid, words in tokens.items():
            for token, count in Counter(words).items():
                postings.setdefault(token, {})[uid] = count
        assert index.term_index == postings

    @pytest.mark.parametrize("text", [
        pytest.param("", id="empty"),
        pytest.param(" \t\n", id="blank"),
        pytest.param("\u2014 \u00a1\u00bf!? \u2026 \u00a7", id="punctuation-only"),
        pytest.param("tax " * 300, id="one-token-repeated"),
        pytest.param("snake_case_word", id="underscores"),
        pytest.param("cafe\u0301 caf\u00e9 CAF\u00c9", id="combining-marks"),
        pytest.param("\u0434\u043e\u043c \u5bb6 casa \u03a9mega", id="mixed-scripts"),
        pytest.param("Art. 6\u00ba \u00a7 2, 1988-10-05", id="digits-and-ordinals"),
    ])
    def test_a_unit_of_any_text_derives_alike_after_a_reload(self, tmp_path, text):
        store = GraphStore()
        payload = mini_doc(3)
        payload["body"][1]["children"][0]["text"] = text
        enact(store, parse_document(payload))
        store.commit()
        path = tmp_path / "s.ndjson"
        save(store, path)
        loaded = load(path)
        index = store.text_index
        assert loaded.text_index == index
        lengths = [len(tokenize(u.text)) for u in store.units.values() if u.retrievable]
        assert (index.n_units, index.avgdl) == (len(lengths), sum(lengths) / len(lengths))
        embed = HashedTfidfEmbedder(index.df, index.n_units).embed
        assert entry_bits(loaded) == {
            uid: [(i, v.hex()) for i, v in embed(store.units[uid].text).items()]
            for uid in sorted(store.units)}
        # Text without tokens, retrievable or not, has an embedding with no entries.
        for uid, entries in loaded.unit_embeddings.items():
            assert bool(entries) == bool(tokenize(loaded.units[uid].text))
            assert not entries or math.isclose(math.hypot(*entries.values()), 1.0)
        for mode in RetrievalMode:
            req = RetrievalRequest(text or "provision", frozenset(store.works), date(2001, 1, 1),
                                   aspects=frozenset(Aspect), k=100, mode=mode,
                                   include_future_actions=True)
            assert scoped_search(loaded, req) == scoped_search(store, req), mode


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
        languages = store.clvs_by_ctv.get(tv.id, {}) if tv else {}
        if "en" in languages and "es" not in languages:
            text = store.units[store.clvs[languages["en"]].text_unit].text
            translations[store.works[urn].fragment] = " ".join(
                _SPANISH.get(token, token) for token in tokenize(text))
    return translations


def _translated_store(seed: int, shared_french: bool = False, late_spanish: bool = False,
                      themes: bool = False) -> tuple[synthcorpus.SynthCorpus, GraphStore]:
    """A synthetic norm with Spanish wording on some of its enacted provisions, uncommitted.

    With ``shared_french`` the same provisions also get one French wording.
    With ``late_spanish`` the other provisions get Spanish on the version in
    force at the last event, so an amended one has a version without
    Spanish before one with it. With ``themes`` the first article's subtree
    and the last provision are a theme each, the second with a blank
    description that vector retrieval skips.
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
    if themes:
        define_theme(store, "Water and land", "Rights to water, land and roads.",
                     store.descendants(provisions[1]))
        define_theme(store, "Blank", "  ", [provisions[-1]])
    return corpus, store


def _committed_store(seed: int, **options) -> tuple[synthcorpus.SynthCorpus, GraphStore]:
    """``_translated_store(seed, **options)``, committed."""
    corpus, store = _translated_store(seed, **options)
    store.commit()
    return corpus, store


def _rule(store: GraphStore, ctv: str, language: str | None, fallback: bool) -> str | None:
    """The language rule written out: the requested wording, else the primary one."""
    languages = store.clvs_by_ctv.get(ctv, {})
    work = store.works[store.ctvs[ctv].work]
    primary = store.works[work.norm_urn].meta("language", "en")
    chosen = languages.get(language or primary)
    return languages.get(primary) if chosen is None and fallback else chosen


class _ReferenceSpan(NamedTuple):
    """A version whose picked wording holds the term, and whether its predecessor's lacks it."""

    work: str
    ctv: str
    position: int
    first_containing: bool


def _reference_spans(store: GraphStore, term: str, scope, language=None,
                     fallback=True) -> list[_ReferenceSpan]:
    """Re-tokenize every in-scope version's text and slide the needle over it."""
    needle = tokenize(term)
    n = len(needle)
    out: list[_ReferenceSpan] = []
    for urn in sorted(set(scope)):
        previous = False
        for position, cid in enumerate(store.versions.get(urn, ())):
            lv_id = _rule(store, cid, language, fallback)
            if lv_id is None:
                previous = False
                continue
            tokens = tokenize(store.units[store.clvs[lv_id].text_unit].text)
            contains = n > 0 and any(tokens[i:i + n] == needle
                                     for i in range(len(tokens) - n + 1))
            if contains:
                out.append(_ReferenceSpan(urn, cid, position, first_containing=not previous))
            previous = contains
    return out


def _introductions(store: GraphStore, spans: list[_ReferenceSpan], language,
                   fallback) -> list[SpanLocation]:
    """The reference locations that introduce the term, each with the CLV the rule picks."""
    return [SpanLocation(s.work, s.ctv, s.position, _rule(store, s.ctv, language, fallback))
            for s in spans if s.first_containing]


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


def _reference_provenance(store: GraphStore, term: str, target: str | None,
                          language: str | None, fallback: bool, t: date) -> tuple[str, str]:
    """A provenance answer's rendered text and annex JSON, rendered plainly from the nodes.

    Every version, date and label is read from the node it belongs to, each
    action by a scan for the one that produced the version under the day
    rule (day_rule.effects), and every date
    is formatted where it is written.
    """
    if target:
        scope = resolve_scope(store, target, t, MembershipPolicy.SNAPSHOT_ANCHORED)
        norm = store.works[store.works[target].norm_urn]
        language = language or norm.meta("language", "en")
    else:
        scope = sorted(store.works)
    introductions = [s for s in _reference_spans(store, term, scope, language, fallback)
                     if s.first_containing]
    if not introductions:
        raise TermNotFound(term, target)

    effects = day_rule.effects(store)

    def producer(ctv: str):
        tv = store.ctvs[ctv]
        return next(a for a in store.actions.values()
                    if tv.work in effects[a.id][1] and a.effective_date == tv.valid_start)

    def label(action) -> str:
        """The short title, else the title, of the instrument's work, else the action's id."""
        work = store.works.get(action.instrument)
        meta = dict(work.metadata) if work else {}
        return meta.get("short_title") or meta.get("title") or action.id

    entry = store.works[target].label if target else "corpus"
    lines = [f'Provenance report: "{term}" in {entry}']
    citations, actions, chains = [], [], []
    for i, span in enumerate(introductions, start=1):
        if len(introductions) > 1:
            lines.append(f"--- occurrence {i}: {store.works[span.work].label} ---")
        post = store.ctvs[span.ctv]
        causal = producer(post.id)
        if span.position == 0:
            lines.append("Pre-state: none (term present since original enactment)")
            effect, chain = "Enacted with", [causal]
        else:
            chain_of_work = sorted((tv for tv in store.ctvs.values() if tv.work == span.work),
                                   key=lambda tv: tv.valid_start)
            pre = chain_of_work[span.position - 1]
            pre_producer = producer(pre.id)
            lines.append(f"Pre-state: valid until {(pre.valid_end - timedelta(days=1)).isoformat()} "
                         f'(no mention of "{term}")')
            lines.append(f"  Last change by: {label(pre_producer)}. Source CTV: {pre.id}")
            pre_clv = _rule(store, pre.id, language, fallback)
            if pre_clv is not None:
                citations.append({"work": span.work, "ctv": pre.id, "clv": pre_clv})
            effect, chain = "Inserted", [pre_producer, causal]
        lines += [
            f"Causal event: {label(causal)} (effective {causal.effective_date.isoformat()})",
            f'  Effect: {effect} the term "{term}"',
            f"Post-state: valid from {post.valid_start.isoformat()}",
            f"  Source CTV: {post.id}",
            "Audit trail:",
            "  Causal chain: " + " -> ".join(f"[{label(a)}]" for a in chain),
            "  Match confidence: Exact (1.0)",
        ]
        citations.append({"work": span.work, "ctv": post.id,
                          "clv": _rule(store, post.id, language, fallback)})
        actions += [{"action": a.id, "target": span.work, "date": a.effective_date.isoformat()}
                    for a in chain]
        chains.append([a.id for a in chain])
    steps = ["canonicalize", "scope", "strategy", "retrieve", "causal_aggregation",
             "chain_assembly", "generate"]
    annex = {
        "format_version": 2,
        "pattern": "provenance",
        "policies": {
            "resolution_policy": "snapshot_last",
            "membership_policy": "snapshot_anchored",
            "k": 8,
            "strategy": "structure_first" if target else "span_first",
            "language": language,
            "language_fallback": fallback,
        },
        "steps": steps if target else [step for step in steps if step != "scope"],
        "citations": citations,
        "actions": actions,
        "chains": chains,
        "confidence": 1.0,
    }
    encoded = json.dumps(annex, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return "\n".join(lines), encoded + "\n"


def _answers_as_the_reference(store: GraphStore, targets, terms: list[str], clock: date,
                              where) -> Iterator[tuple[str | None, str, planner.Answer]]:
    """(target, term, answer) of each provenance query of ``targets``, each language with
    fallback on and off, and ``terms`` that has an answer, once its rendered text and
    annex are checked against the plain reference renderer's; a query that has none
    must raise TermNotFound. ``where`` names the store in a failure."""
    for target in targets:
        for language in (None, "es", "en"):
            for fallback in (True, False):
                for term in terms:
                    query = StructuredQuery(
                        QueryPattern.PROVENANCE, structural_target=target,
                        textual_target=term, language=language,
                        language_fallback=fallback)
                    try:
                        expected = _reference_provenance(store, term, target, language,
                                                         fallback, clock)
                    except TermNotFound:
                        with pytest.raises(TermNotFound):
                            run(store, query, clock)
                        continue
                    answer = run(store, query, clock)
                    assert (answer.rendered_text, answer.annex_json()) == expected, (
                        where, target, language, fallback, term)
                    yield target, term, answer


class TestProvenanceRendering:
    def test_rendered_text_and_annex_equal_the_plain_reference_renderer(self):
        """Both strategies, each language with fallback on and off, one- and two-token terms."""
        # "version 2" is a multi-token needle, introduced after enactment.
        terms = [_SPANISH["water"], "water", _SPANISH["rights"], "rights", "version 2"]
        positions: Counter = Counter()
        answered: Counter = Counter()
        for seed in range(0, 40, 5):
            corpus, store = _committed_store(seed, late_spanish=True)
            clock = (corpus.event_dates() or [corpus.enactment])[-1]
            article = store.children[corpus.norm_urn][0]
            for target, term, answer in _answers_as_the_reference(
                    store, (None, corpus.norm_urn, article), terms, clock, seed):
                answered[target is None, term] += 1
                positions["enactment"] += answer.rendered_text.count("Pre-state: none")
                positions["later"] += answer.rendered_text.count("Pre-state: valid until")
        # Both strategies answered every term, and introductions came at
        # enactment and later.
        assert set(answered) == {(wide, term) for wide in (True, False) for term in terms}
        assert positions["enactment"] > 100 and positions["later"] > 100, positions

    def test_a_version_two_same_day_events_roll_is_rendered_under_the_smaller_id(self, tmp_path):
        # ZZ amends item 1 and AA item 2 on one day, in the reverse of their
        # file order: both roll the caput, whose version AA's roll opens.
        # MM's later amendment of the caput then has that version as its pre-state.
        day = TestTheDayRule.DAY
        doc = mini_doc(1)
        doc["body"][0]["children"][0]["children"] = [
            {"fragment": "art1_i1", "type": "item", "text": "Item one."},
            {"fragment": "art1_i2", "type": "item", "text": "Item two."}]
        store = _one_day_corpus(tmp_path, doc, [
            ("a", "ZZ 2003", amendment_file("urn:test:mini!art1_i1", day, "Item one v2.")),
            ("b", "AA 2003", amendment_file("urn:test:mini!art1_i2", day, "Item two v2.")),
            ("c", "MM 2005", amendment_file("urn:test:mini!art1_cpt", "2005-01-01",
                                            "Provision 1 on water.")),
        ])
        markers = {
            "water": "Last change by: AA 2003. Source CTV: urn:test:mini!art1_cpt@2003-06-01",
            # ZZ's own amendment stays ZZ's, though AA's id is smaller.
            "v2": "Causal chain: [MS] -> [ZZ 2003]",
        }
        answered: Counter = Counter()
        for target, term, answer in _answers_as_the_reference(
                store, (None, "urn:test:mini"), list(markers), date(2024, 1, 2), "same day"):
            assert markers[term] in answer.rendered_text, (target, term)
            answered[target, term] += 1
        assert len(answered) == 4, answered


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
                        assert got == _introductions(
                            store, _reference_spans(store, term, scope, language), language,
                            True), (seed, term, language)
                        for span in got:
                            assert span.position == store.versions[span.work].index(span.ctv)
            translated += any(lv.language == "es" for lv in store.clvs.values())
        # The probes must have reached the cases they are meant to cover.
        assert repealed >= 5 and translated >= 30

    def test_postings_first_matches_the_chain_walk(self):
        """Both access paths find the reference walk's introductions, whole corpus or part."""
        found = introduced = 0
        for seed in range(40):
            _, store = _committed_store(seed)
            rng = random.Random(seed)
            works = sorted(store.works)
            scopes = [works, rng.sample(works, len(works) // 2)]
            for term in _probe_terms(store, rng):
                for scope in scopes:
                    for language in (None, "es", "en"):
                        for fallback in (True, False):
                            walked = _reference_spans(store, term, scope, language, fallback)
                            expected = _introductions(store, walked, language, fallback)
                            for by_postings in (False, True):
                                got = locate_spans(store, term, scope, language, fallback,
                                                   by_postings)
                                assert got == expected, (seed, term, language, fallback)
                            found += len(walked)
                            introduced += len(expected)
        # Every reference location is counted; some hold the term after its introduction.
        assert found > 10_000 and 0 < introduced < found

    def test_translated_wording_is_searched_in_the_requested_language(self):
        _, store = _committed_store(3)
        lv = next(lv for lv in store.clvs.values() if lv.language == "es")
        unit = store.units[lv.text_unit]
        term = next(token for token in tokenize(unit.text) if token in _SPANISH.values())
        spanish = locate_spans(store, term, sorted(store.works), "es")
        assert spanish
        assert all("es" in store.clvs_by_ctv[s.ctv] for s in spanish)
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
                    assert {_provenance(store, request, ref, aspect)
                            for _, ref, aspect in _candidates(_content_candidates, store, request)
                            } == expected, (seed, t, language)
                for term in terms:
                    spans = _reference_spans(store, term, works, language, fallback)
                    # Each location's clv is the wording the rule selects.
                    introductions = _introductions(store, spans, language, fallback)
                    for by_postings in (False, True):
                        assert locate_spans(store, term, works, language, fallback,
                                            by_postings) == introductions
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

    @pytest.mark.parametrize("fallback", [True, False])
    def test_an_uncommitted_store_renders_provenance_as_the_committed_one_does(
            self, monkeypatch, fallback):
        """It derives the text and chain indexes afresh on each read, keeps none, and answers alike."""
        builds: list[bool] = []  # each derivation's store.committed
        derive = GraphStore._derive_chain_index

        def counted(store: GraphStore):
            builds.append(store.committed)
            return derive(store)

        monkeypatch.setattr(GraphStore, "_derive_chain_index", counted)
        # "version 2" is a multi-token needle, introduced after enactment.
        terms = [_SPANISH["water"], "water", _SPANISH["rights"], "rights", "version 2"]
        answered = with_pre_state = 0
        answered_terms = set()
        for seed in range(0, 40, 5):
            corpus, committed = _committed_store(seed, late_spanish=True)
            _, store = _translated_store(seed, late_spanish=True)
            clock = (corpus.event_dates() or [corpus.enactment])[-1]
            for language in (None, "es", "en"):
                for term in terms:
                    for target in (None, corpus.norm_urn):
                        query = StructuredQuery(
                            QueryPattern.PROVENANCE, structural_target=target,
                            textual_target=term, language=language,
                            language_fallback=fallback)
                        try:
                            expected = run(committed, query, clock)
                        except TermNotFound:
                            with pytest.raises(TermNotFound):
                                run(store, query, clock)
                            continue
                        builds.clear()
                        got = run(store, query, clock)
                        assert builds and not any(builds)
                        assert store._chain_index is None and store._text_index is None
                        assert (got.rendered_text, got.citations, got.annex_json()) == (
                            expected.rendered_text, expected.citations,
                            expected.annex_json()), (seed, term, language, target)
                        answered += 1
                        answered_terms.add(term)
                        with_pre_state += "Pre-state: valid until" in got.rendered_text
        assert answered > 80 and with_pre_state > 50
        assert {"version 2", _SPANISH["water"]} <= answered_terms

    @pytest.mark.parametrize("seed", [1, 6, 11])
    def test_an_uncommitted_store_locates_and_scores_as_the_committed_one_does(self, seed):
        """Each read derives the text, chain and time indexes afresh, and none is kept."""
        corpus, committed = _committed_store(seed, late_spanish=True, themes=True)
        _, store = _translated_store(seed, late_spanish=True, themes=True)
        works, uids = sorted(store.works), sorted(store.units)
        found = 0
        for term in ("provision", "version 2", _SPANISH["water"], "zebra"):
            for language in (None, "es"):
                for by_postings in (False, True):
                    spans = locate_spans(store, term, works, language, True, by_postings)
                    assert spans == locate_spans(committed, term, works, language, True,
                                                 by_postings), (term, language, by_postings)
                    found += len(spans)
        for text in ("provision version", _SPANISH["rights"], "zebra", ""):
            assert _bm25_scores(store, text, uids) == _bm25_scores(committed, text, uids)
            assert _vector_scores(store, text, uids) == _vector_scores(committed, text, uids)
            for mode in RetrievalMode:
                # Action descriptions are read from the time index.
                req = RetrievalRequest(text, frozenset(works), corpus.enactment, k=10_000,
                                       aspects=frozenset(Aspect), mode=mode)
                assert scoped_search(store, req) == scoped_search(committed, req)
        assert found > 0 and not store.committed
        assert (store._text_index, store._chain_index, store._time_index) == (None, None, None)
        assert store.unit_embeddings == {}

    def test_a_second_unit_of_a_language_version_is_not_its_wording(self):
        corpus = synthcorpus.generate_corpus(1)
        store = synthcorpus.build_store(corpus)
        store.add_unit(TextUnit(id="tu:stray", text="zebra"))
        store.commit()
        assert "tu:stray" in store.text_index.term_index["zebra"]
        for by_postings in (False, True):
            assert locate_spans(store, "zebra", sorted(store.works),
                                by_postings=by_postings) == []


def _reached(store: GraphStore, tv: TemporalVersion):
    """``tv`` and its aggregation closure, depth first in aggregate order."""
    yield tv
    for child in aggregation(store).get(tv.id, ()):
        yield from _reached(store, child)


def _linear_version(store: GraphStore, urn: str, t: date):
    return next((store.ctvs[cid] for cid in store.versions.get(urn, ())
                 if store.ctvs[cid].contains(t)), None)


def _boundary_days(store: GraphStore, urn: str) -> list[date]:
    chain = versions_of(store, urn)
    days = {date(1990, 1, 1), date(2100, 1, 1)}
    for tv in chain:
        start, end = tv.valid_start, tv.valid_end
        days.update({start - timedelta(days=1), start})
        if end is not None:
            days.update({end - timedelta(days=1), end, end + timedelta(days=1),
                         end + timedelta(days=400)})
    return sorted(days)


class TestBisectVersionSelection:
    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_ctv_at_and_alive_at_match_a_linear_scan(self, seed):
        corpus = synthcorpus.generate_corpus(seed)
        store = synthcorpus.build_store(corpus)
        for urn in sorted(store.works):
            chain = versions_of(store, urn)
            for t in _boundary_days(store, urn):
                expected = _linear_version(store, urn, t)
                assert alive_at(store, urn, t) is (expected is not None)
                if expected is not None:
                    assert ctv_at(store, urn, t) == expected
                elif not chain or t < chain[0].valid_start:
                    with pytest.raises(NotYetEnacted):
                        ctv_at(store, urn, t)
                else:
                    with pytest.raises(RepealedAt) as info:
                        ctv_at(store, urn, t)
                    assert info.value.repealed_end == chain[-1].valid_end

    def test_after_a_repeal_nothing_is_selected(self):
        seen = 0
        for seed in range(40):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            for urn in _repealed_works(store):
                end = versions_of(store, urn)[-1].valid_end
                assert end is not None
                assert store.version_at(urn, end - timedelta(days=1)) is not None
                for t in (end, end + timedelta(days=1), date(2100, 1, 1)):
                    assert not alive_at(store, urn, t)
                    with pytest.raises(RepealedAt):
                        ctv_at(store, urn, t)
                seen += 1
        assert seen >= 5

    def test_version_at_tracks_a_store_being_built(self):
        # replay keeps version_starts beside versions day by day.
        checked = 0
        for seed in (2, 9, 17):
            corpus = synthcorpus.generate_corpus(seed)
            store = GraphStore()
            enact(store, parse_document(corpus.doc))
            # Each file holds one event, and the files are in date order.
            for _, day in groupby(synthcorpus.event_files(corpus),
                                  key=lambda named: named[1].events[0].effective_date):
                apply_events(store, list(day))
                for urn in sorted(store.works):
                    assert store.version_starts.get(urn, []) == [
                        tv.valid_start for tv in versions_of(store, urn)]
                    for t in _boundary_days(store, urn):
                        assert store.version_at(urn, t) == _linear_version(store, urn, t)
                        checked += 1
        assert checked > 2_000

    @pytest.mark.parametrize("seed", range(1, 40, 4))
    def test_content_candidates_match_a_linear_scan(self, seed):
        _, store = _committed_store(seed)
        works = frozenset(store.works)
        days = sorted({t for urn in works for t in _boundary_days(store, urn)})
        for t in days:
            for language in (None, "es"):
                request = RetrievalRequest(query_text="", scope=works, t=t, language=language)
                got = {}
                for _, ref, aspect in _candidates(_content_candidates, store, request):
                    urn, ctv, _ = _provenance(store, request, ref, aspect)
                    got[urn] = ctv
                expected = {}
                for urn in works:
                    tv = _linear_version(store, urn, t)
                    if tv is not None and store.clvs_by_ctv.get(tv.id):
                        expected[urn] = tv.id
                assert got == expected, (seed, t, language)


# -- sparse scoring against per-candidate cosine of dense vectors ---------------------

def _dense(entries: dict[int, float]) -> list[float]:
    return [entries.get(i, 0.0) for i in range(EMBEDDING_DIMENSION)]


def _unit_vector(store: GraphStore, uid: str) -> list[float]:
    """The unit's text embedded afresh with the store's statistics, as a dense vector."""
    return _dense(embedder_for_store(store).embed(store.units[uid].text))


def _cosine_reference(store: GraphStore, req: RetrievalRequest) -> list[RetrievalHit]:
    """scoped_search's ranking, scoring each candidate's dense vector with its own cosine call."""
    by_unit = {}
    for uid, ref, aspect in (_candidates(_content_candidates, store, req)
                             + _candidates(_action_candidates, store, req)
                             + _candidates(_metadata_candidates, store, req)
                             + _candidates(_theme_candidates, store, req)):
        by_unit.setdefault(uid, (_provenance(store, req, ref, aspect), aspect))
    unit_ids = sorted(by_unit)
    query = _dense(embedder_for_store(store).embed(req.query_text))
    if req.mode is RetrievalMode.VECTOR:
        scored = sorted(((uid, cosine(query, _unit_vector(store, uid))) for uid in unit_ids
                         if store.units[uid].retrievable), key=lambda p: (-p[1], p[0]))
    else:
        lexical = _scores(_bm25_scores(store, req.query_text, unit_ids))
        vec_order = sorted(unit_ids,
                           key=lambda uid: (-cosine(query, _unit_vector(store, uid)), uid))
        lex_order = sorted(unit_ids, key=lambda uid: (-lexical[uid], uid))
        vec_rank = {uid: i for i, uid in enumerate(vec_order)}
        lex_rank = {uid: i for i, uid in enumerate(lex_order)}
        fused = sorted(unit_ids, key=lambda uid: (vec_rank[uid] + lex_rank[uid], lex_rank[uid], uid))
        scored = [(uid, 1.0 / (1.0 + vec_rank[uid] + lex_rank[uid])) for uid in fused]
    return [RetrievalHit(uid, round(score, 12), *by_unit[uid]) for uid, score in scored[:req.k]]


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
                    # Unrounded scores of the French candidates (req is the last,
                    # French, request of the loop above), bit for bit.
                    assert req.language == "fr"
                    uids = sorted(uid for uid, _, _ in
                                  _candidates(_content_candidates, store, req))
                    query = _dense(embedder_for_store(store).embed(text))
                    reference = [(uid, cosine(query, _unit_vector(store, uid)))
                                 for uid in uids]
                    scores = _scores(_vector_scores(store, text, uids))
                    assert list(scores.items()) == reference
                    # Units with the same text tie at a nonzero score and rank by id.
                    shared = [h for h in vector_hits
                              if store.units[h.text_unit].text == _SHARED_FRENCH]
                    if len(shared) > 1 and shared[0].score > 0:
                        assert len({h.score for h in shared}) == 1
                        assert [h.text_unit for h in shared] == sorted(h.text_unit for h in shared)
                        tied += 1
        # The probes must have reached duplicate-text ties.
        assert tied >= 20


# -- scoped_search against a linear scan of the node maps --------------------------

class _LinearSearch:
    """scoped_search written out from the node maps alone, with its own text statistics.

    It reads no derived index of the store and calls none of retrieval's
    candidate functions: version chains and wordings are gathered by scanning
    the CTVs and CLVs, each candidate is found by a linear scan, vector
    scores are dense cosines and BM25 is counted from re-tokenized text.
    """

    def __init__(self, store: GraphStore):
        self.store = store
        units = store.units
        self.tokens = {uid: tokenize(unit.text) for uid, unit in units.items()}
        self.df = Counter(token for tokens in self.tokens.values() for token in set(tokens))
        lengths = [len(self.tokens[uid]) for uid, unit in units.items() if unit.retrievable]
        self.n_units = len(lengths)
        self.avgdl = sum(lengths) / len(lengths) if lengths else 0.0
        self.embed = HashedTfidfEmbedder(dict(self.df), self.n_units).embed
        self.chains: dict[str, list[TemporalVersion]] = {}
        for tv in store.ctvs.values():
            self.chains.setdefault(tv.work, []).append(tv)
        self.wordings: dict[str, dict[str, str]] = {}
        for lv in store.clvs.values():
            self.wordings.setdefault(lv.temporal_version, {})[lv.language] = lv.id
        self._scores: dict[tuple[str, str, str], float] = {}
        self.effects = day_rule.effects(store)

    def _wording(self, tv: TemporalVersion, language: str | None, fallback: bool) -> str | None:
        works = self.store.works
        primary = works[works[tv.work].norm_urn].meta("language", "en") or "en"
        languages = self.wordings.get(tv.id, {})
        if language and (language in languages or not fallback):
            return languages.get(language)
        return languages.get(primary)

    def candidates(self, req: RetrievalRequest) -> dict[str, tuple[tuple[str, str, str], Aspect]]:
        """Unit -> (provenance, aspect), the first finding of each unit in aspect order."""
        store, t, scope = self.store, req.t, req.scope
        found: list[tuple[str, tuple[str, str, str], Aspect]] = []
        if Aspect.CONTENT in req.aspects:
            for urn in sorted(scope):
                for tv in self.chains.get(urn, ()):
                    end = tv.valid_end
                    if tv.valid_start <= t and (end is None or t < end):
                        lv_id = self._wording(tv, req.language, req.language_fallback)
                        if lv_id is not None:
                            found.append((store.clvs[lv_id].text_unit, (urn, tv.id, lv_id),
                                          Aspect.CONTENT))
        if Aspect.ACTION_DESCRIPTION in req.aspects:
            for aid, action in sorted(store.actions.items()):
                terminates, produces = self.effects[aid]
                touched = {*action.targets, *terminates, *produces}
                if touched.isdisjoint(scope):
                    continue
                day = action.effective_date
                if day > t and not req.include_future_actions:
                    continue
                target = action.targets[0]
                # The version the action produces of its target, else the one it closes.
                chain = self.chains.get(target, ())
                anchors = [tv.id for tv in chain
                           if target in produces and tv.valid_start == day]
                anchors += [tv.id for tv in chain
                            if target in terminates and tv.valid_end == day]
                found.append((action.description_unit, (target, anchors[0] if anchors else "", aid),
                              Aspect.ACTION_DESCRIPTION))
        if Aspect.METADATA in req.aspects:
            # Each fact of a work's metadata, other than a presentation key, is a unit.
            for urn in sorted(scope):
                for key, _ in store.works[urn].metadata:
                    if key not in PRESENTATION_KEYS:
                        found.append((metadata_unit_id(urn, key), (urn, "", urn), Aspect.METADATA))
        if Aspect.THEME_DESCRIPTION in req.aspects:
            for tid, theme in sorted(store.themes.items()):
                overlap = sorted(set(theme.members) & scope)
                if overlap:
                    found.append((theme.description_unit, (overlap[0], "", tid),
                                  Aspect.THEME_DESCRIPTION))
        out: dict[str, tuple[tuple[str, str, str], Aspect]] = {}
        for uid, provenance, aspect in found:
            out.setdefault(uid, (provenance, aspect))
        return out

    def _cosine(self, text: str, uid: str) -> float:
        key = ("vector", text, uid)
        if key not in self._scores:
            self._scores[key] = cosine(_dense(self.embed(text)),
                                       _dense(self.embed(self.store.units[uid].text)))
        return self._scores[key]

    def _bm25(self, text: str, uid: str) -> float:
        key = ("lexical", text, uid)
        if key not in self._scores:
            n, avgdl = max(self.n_units, 1), self.avgdl or 1.0
            counts, dl = Counter(self.tokens[uid]), len(self.tokens[uid])
            s = 0.0
            for token in sorted(set(tokenize(text))):
                tf = counts[token]
                if tf:
                    df = self.df[token]
                    idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                    s += idf * (tf * (1.5 + 1.0)) / (tf + 1.5 * (1.0 - 0.75 + 0.75 * dl / avgdl))
            self._scores[key] = s / (1.0 + s) if s > 0 else 0.0
        return self._scores[key]

    def search(self, req: RetrievalRequest) -> list[RetrievalHit]:
        """Every hit in rank order; scoped_search returns the first ``req.k``."""
        found = self.candidates(req)
        text, units = req.query_text, self.store.units
        if req.mode is RetrievalMode.VECTOR:
            ranked = sorted(((uid, self._cosine(text, uid)) for uid in found
                             if units[uid].retrievable), key=lambda p: (-p[1], p[0]))
        elif req.mode is RetrievalMode.LEXICAL:
            ranked = sorted(((uid, self._bm25(text, uid)) for uid in found),
                            key=lambda p: (-p[1], p[0]))
        else:
            vec = {uid: i for i, uid in enumerate(
                sorted(found, key=lambda uid: (-self._cosine(text, uid), uid)))}
            lex = {uid: i for i, uid in enumerate(
                sorted(found, key=lambda uid: (-self._bm25(text, uid), uid)))}
            fused = sorted(found, key=lambda uid: (vec[uid] + lex[uid], lex[uid], uid))
            ranked = [(uid, 1.0 / (1.0 + vec[uid] + lex[uid])) for uid in fused]
        return [RetrievalHit(uid, round(score, 12), *found[uid]) for uid, score in ranked]


class _ReadPostings(dict):
    """One token's postings, noting which side of _bm25_scores' size rule read them.

    Probing a unit (``in``) is the candidate side; walking ``items()`` is
    the postings side.
    """

    def __init__(self, token: str, postings: dict[str, int], reads: set):
        super().__init__(postings)
        self.token, self.reads = token, reads

    def __contains__(self, uid) -> bool:
        self.reads.add((self.token, "candidates"))
        return dict.__contains__(self, uid)

    def items(self):
        self.reads.add((self.token, "postings"))
        return dict.items(self)


def _recording_statistics(store: GraphStore, reads: set) -> SimpleNamespace:
    """The text index _bm25_scores reads from a store, with postings that note their reads."""
    index = store.text_index
    return SimpleNamespace(text_index=index._replace(
        term_index={token: _ReadPostings(token, postings, reads)
                    for token, postings in index.term_index.items()}))


def _lexical_probes(reference: _LinearSearch) -> list[str]:
    """Query texts for _bm25_scores: the corpus's commonest and rarest tokens, one of them
    repeated, a token found nowhere, and no token at all."""
    by_count = sorted(reference.df, key=lambda token: (-reference.df[token], token))
    common, rare = by_count[0], by_count[-1]
    assert "zebra" not in reference.df
    return [common, f"{rare} zebra {common} {rare}", "zebra", ""]


def _match_linear_scan(stores: list[GraphStore], scopes: list[frozenset[str]],
                       days: list[date], texts: list[str]) -> Counter:
    """Assert scoped_search equals _LinearSearch on every combination; count what the hits hold.

    Every request takes all four aspects, in each mode, each language of
    None, "es" and "en" with fallback on and off, at k=3 and at a k above
    the candidate count. Each request's candidates are also scored by
    _bm25_scores for every text of ``_lexical_probes``, unrounded, which
    must equal _LinearSearch's BM25 exactly; ``seen["bm25", side,
    fewer]`` counts the token reads that took ``side`` when the candidates
    were (``fewer``) or were not fewer than the token's postings, and
    ``seen["bm25", "empty text"]`` the candidates so scored that have no token.
    """
    seen: Counter = Counter()
    for store in stores:
        reference = _LinearSearch(store)
        probes = _lexical_probes(reference)
        reads: set = set()
        statistics = _recording_statistics(store, reads)
        for t in days:
            for scope in scopes:
                for language in (None, "es", "en"):
                    for fallback in (True, False):
                        for mode, text in zip(RetrievalMode, texts * 2):
                            # Spanish requests also take actions dated after t.
                            kwargs = dict(aspects=frozenset(Aspect), language=language,
                                          mode=mode, language_fallback=fallback,
                                          include_future_actions=language == "es")
                            req = RetrievalRequest(text, scope, t, k=10_000, **kwargs)
                            expected = reference.search(req)
                            assert scoped_search(store, req) == expected, (
                                t, language, fallback, mode, len(scope))
                            short = RetrievalRequest(text, scope, t, k=3, **kwargs)
                            assert scoped_search(store, short) == expected[:3]
                            seen.update(hit.aspect for hit in expected)
                            seen[language, fallback] += sum(
                                hit.aspect is Aspect.CONTENT for hit in expected)
                        # Candidates depend on neither mode nor text: take the last request's.
                        units = list(reference.candidates(req))
                        for probe in probes:
                            reads.clear()
                            assert _scores(_bm25_scores(statistics, probe,
                                                        dict.fromkeys(units))) == {
                                uid: reference._bm25(probe, uid) for uid in units}, (
                                t, language, fallback, probe, len(scope))
                            for token, side in reads:
                                fewer = len(units) < len(store.text_index.term_index[token])
                                seen["bm25", side, fewer] += 1
                        seen["bm25", "empty text"] += sum(
                            not reference.tokens[uid] for uid in units)
    return seen


def _assert_smaller_side(seen: Counter) -> None:
    """Each token read walked the smaller side, and the postings side was reached."""
    assert not seen["bm25", "candidates", False] and not seen["bm25", "postings", True], seen
    assert seen["bm25", "postings", False], seen


class TestScopedSearchReference:
    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_synthetic_corpora_match_a_linear_scan(self, seed, tmp_path):
        corpus, committed = _committed_store(seed, late_spanish=True, themes=True)
        save(committed, tmp_path / "store.ndjson")
        works = frozenset(committed.works)
        article = frozenset(committed.descendants(committed.descendants(corpus.norm_urn)[1]))
        days = sorted({t for urn in works for t in _boundary_days(committed, urn)})
        rng = random.Random(seed)
        texts = [" ".join(rng.sample(synthcorpus.WORDS, 3)), "agua tierra water"]
        seen = _match_linear_scan([committed, load(tmp_path / "store.ndjson")],
                                  [works, article], days, texts)
        assert all(seen[aspect] for aspect in Aspect), seen
        # Without fallback, Spanish requests skip the versions with no Spanish wording.
        assert seen["es", False] < seen["es", True], seen
        # The corpus's candidates outnumber the rarest token's postings. Once
        # the norm has events, the article's are fewer than the commonest
        # token's; a norm without events can have too few units (5 at seed 36).
        _assert_smaller_side(seen)
        if corpus.event_dates():
            assert seen["bm25", "candidates", True], seen
        # The blank theme's description has no token.
        assert seen["bm25", "empty text"], seen

    def test_the_reference_corpus_matches_a_linear_scan(self, fixture_store, snapshot_path):
        """A Portuguese norm, so no language of the requests is the primary one."""
        works = frozenset(fixture_store.works)
        days = sorted({t for urn in works for t in _boundary_days(fixture_store, urn)})
        seen = _match_linear_scan([fixture_store, load(snapshot_path)],
                                  [works, frozenset(fixture_store.descendants(ART6))],
                                  days, ["social rights housing", "food security"])
        assert all(seen[aspect] for aspect in Aspect), seen
        # English wording exists for one version only; Spanish for none.
        assert 0 < seen["en", False] < seen["en", True] and seen["es", False] == 0, seen
        _assert_smaller_side(seen)
        assert seen["bm25", "candidates", True], seen

    @pytest.mark.parametrize("seed", range(2, 40, 6))
    def test_a_scoped_lexical_query_keeps_the_corpus_wide_hits_of_its_candidates(self, seed):
        """Lexical scores depend on the unit alone, so a scope only filters the corpus-wide ranking.

        With ``k`` above the candidate count, a scoped query answers every
        candidate, and its hits are the corpus-wide hits of those units, in
        the same order and with the same scores.
        """
        corpus, store = _committed_store(seed, late_spanish=True, themes=True)
        reference = _LinearSearch(store)
        works = frozenset(store.works)
        rng = random.Random(seed)
        texts = _lexical_probes(reference) + [" ".join(rng.sample(synthcorpus.WORDS, 3))]
        entries = rng.sample(sorted(works), min(8, len(works))) + [corpus.norm_urn]
        days = sorted({t for urn in works for t in _boundary_days(store, urn)})
        compared = 0
        for t in rng.sample(days, min(6, len(days))):
            for text in texts:
                wide = RetrievalRequest(text, works, t, aspects=frozenset(Aspect), k=10_000,
                                        mode=RetrievalMode.LEXICAL)
                wide_hits = [(h.text_unit, h.score) for h in scoped_search(store, wide)]
                assert len(wide_hits) == len(reference.candidates(wide))
                for entry in entries:
                    scoped = RetrievalRequest(text, frozenset(store.descendants(entry)), t,
                                              aspects=frozenset(Aspect), k=10_000,
                                              mode=RetrievalMode.LEXICAL)
                    candidates = reference.candidates(scoped)
                    hits = [(h.text_unit, h.score) for h in scoped_search(store, scoped)]
                    assert hits == [hit for hit in wide_hits if hit[0] in candidates], (
                        seed, t, text, entry)
                    compared += len(hits)
        assert compared
