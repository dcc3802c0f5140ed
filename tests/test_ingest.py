from __future__ import annotations

from datetime import date
from pathlib import Path

import pytest

from normgraph.errors import (
    DuplicateFragment,
    DuplicateNorm,
    MalformedInput,
    NoOpenVersion,
    OutOfOrderEvent,
    StructureError,
    TranslationConflict,
    UnknownTarget,
)
from normgraph.fixture_corpus import (
    ACT_CA26,
    ART6,
    ART6_CPT,
    ART7,
    CAP2,
    NORM_URN,
    TIT2,
)
from normgraph.ingest import (
    add_language,
    apply_event,
    enact,
    ordered_events,
    parse_document,
    parse_event_file,
    parse_translation_file,
    render_action_text,
    textualize_metadata,
)
from normgraph.model import ComponentType, WorkId, WorkKind, WorkNode, metadata_tuple
from normgraph.store import GraphStore

DATA = Path(__file__).parent / "data"


def mini_doc(fragments: int = 2) -> dict:
    body = []
    for i in range(1, fragments + 1):
        body.append({
            "fragment": f"art{i}",
            "type": "article",
            "label": f"Art. {i}",
            "children": [{
                "fragment": f"art{i}_cpt",
                "type": "caput",
                "label": f"Art. {i} (caput)",
                "text": f"Provision {i} original text.",
            }],
        })
    return {
        "format_version": 1,
        "norm": {
            "urn": "urn:test:mini",
            "title": "Mini Statute",
            "short_title": "MS",
            "publication_date": "2000-01-01",
            "language": "en",
        },
        "body": body,
    }


def amendment_file(target: str, effective: str, text: str, *,
                   action_type: str = "amendment", components=None) -> dict:
    event: dict = {
        "action_type": action_type,
        "target": target,
        "effective_date": effective,
    }
    if action_type == "amendment":
        if components is not None:
            event["new_components"] = components
        else:
            event["new_text"] = {"en": text}
    return {
        "format_version": 1,
        "instrument": {
            "urn": f"urn:test:act:{effective}",
            "title": f"Amending Act of {effective}",
            "short_title": f"AA {effective[:4]}",
            "publication_date": effective,
            "language": "en",
        },
        "events": [event],
    }


def apply_file(store: GraphStore, file_dict: dict) -> str:
    parsed = parse_event_file(file_dict)
    action_id = ""
    for record in parsed.events:
        action_id = apply_event(store, record, parsed.instrument)
    return action_id


class TestParseDocument:
    def test_article_caput_items_nesting(self):
        doc = parse_document({
            "format_version": 1,
            "norm": {"urn": "urn:test:n", "title": "T",
                     "publication_date": "1988-10-05", "language": "pt"},
            "body": [{
                "fragment": "art12", "type": "article",
                "children": [{
                    "fragment": "art12_cpt", "type": "caput", "text": "Caput text.",
                    "children": [
                        {"fragment": "art12_i", "type": "item", "text": "Item one."},
                        {"fragment": "art12_ii", "type": "item", "text": "Item two."},
                    ],
                }],
            }],
        })
        article = doc.body[0]
        assert article.component_type is ComponentType.ARTICLE
        caput = article.children[0]
        assert caput.component_type is ComponentType.CAPUT
        assert caput.text == "Caput text."
        assert [c.component_type for c in caput.children] == [
            ComponentType.ITEM, ComponentType.ITEM]
        assert [c.ordinal for c in caput.children] == [0, 1]

    def test_minimal_single_caput_document(self):
        doc = parse_document(mini_doc(fragments=1))
        assert len(doc.body) == 1
        assert doc.body[0].children[0].text == "Provision 1 original text."

    def test_item_under_chapter_is_a_structure_error(self):
        with pytest.raises(StructureError):
            parse_document({
                "format_version": 1,
                "norm": {"urn": "urn:test:n", "title": "T",
                         "publication_date": "1988-10-05", "language": "pt"},
                "body": [{
                    "fragment": "cap1", "type": "chapter",
                    "children": [{"fragment": "it1", "type": "item", "text": "x"}],
                }],
            })

    def test_duplicate_fragment(self):
        payload = mini_doc(1)
        payload["body"].append(dict(payload["body"][0]))
        with pytest.raises(DuplicateFragment):
            parse_document(payload)

    def test_container_with_text_rejected(self):
        with pytest.raises(StructureError):
            parse_document({
                "format_version": 1,
                "norm": {"urn": "urn:test:n", "title": "T",
                         "publication_date": "1988-10-05", "language": "pt"},
                "body": [{"fragment": "tit1", "type": "title", "text": "nope"}],
            })

    def test_caput_without_text_rejected(self):
        with pytest.raises(StructureError):
            parse_document({
                "format_version": 1,
                "norm": {"urn": "urn:test:n", "title": "T",
                         "publication_date": "1988-10-05", "language": "pt"},
                "body": [{"fragment": "art1", "type": "article",
                          "children": [{"fragment": "c", "type": "caput"}]}],
            })

    def test_article_with_children_must_not_carry_text(self):
        with pytest.raises(StructureError):
            parse_document({
                "format_version": 1,
                "norm": {"urn": "urn:test:n", "title": "T",
                         "publication_date": "1988-10-05", "language": "pt"},
                "body": [{"fragment": "art1", "type": "article", "text": "x",
                          "children": [{"fragment": "c", "type": "caput", "text": "y"}]}],
            })

    def test_format_version_required(self):
        with pytest.raises(MalformedInput):
            parse_document({"norm": {}})

    @pytest.mark.parametrize("published", ["20000214", "2000-W07-1"])
    def test_a_date_that_is_not_yyyy_mm_dd_is_rejected(self, published):
        payload = mini_doc()
        payload["norm"]["publication_date"] = published
        with pytest.raises(MalformedInput, match="'publication_date' is not an ISO date"):
            parse_document(payload)

    def test_leaf_text_preserved_byte_exactly(self):
        text = "  spaced, quoted 'text' — em dash preserved "
        payload = mini_doc(1)
        payload["body"][0]["children"][0]["text"] = text
        doc = parse_document(payload)
        assert doc.body[0].children[0].text == text


class TestParseEventFile:
    def test_decreasing_dates_rejected(self):
        file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-01-01", "x")
        file_dict["events"].append({
            "action_type": "amendment", "target": "urn:test:mini!art1_cpt",
            "effective_date": "2002-01-01", "new_text": {"en": "y"},
        })
        with pytest.raises(MalformedInput):
            parse_event_file(file_dict)

    def test_enactment_events_rejected(self):
        file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-01-01", "x")
        file_dict["events"][0]["action_type"] = "enactment"
        with pytest.raises(MalformedInput):
            parse_event_file(file_dict)

    def test_amendment_without_content_rejected(self):
        file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-01-01", "x")
        del file_dict["events"][0]["new_text"]
        with pytest.raises(MalformedInput):
            parse_event_file(file_dict)

    def test_repeal_with_text_rejected(self):
        file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-01-01", "x")
        file_dict["events"][0]["action_type"] = "repeal"
        with pytest.raises(MalformedInput):
            parse_event_file(file_dict)

    def test_themes_only_file_needs_no_instrument(self):
        parsed = parse_event_file({
            "format_version": 1,
            "themes": [{"label": "X", "description": "About X.", "members": []}],
        })
        assert parsed.instrument is None
        assert parsed.themes[0].label == "X"


def test_ordered_events_sorts_by_date_then_file_name_then_record_index():
    late = amendment_file("urn:test:mini!art1_cpt", "2005-01-01", "late")
    early = amendment_file("urn:test:mini!art2_cpt", "2001-01-01", "early")
    same_day = amendment_file("urn:test:mini!art2_cpt", "2003-01-01", "same day")
    two = amendment_file("urn:test:mini!art1_cpt", "2003-01-01", "first")
    two["events"].append(dict(two["events"][0], new_text={"en": "second"}))
    files = [("b.satev.json", parse_event_file(two)), ("c.satev.json", parse_event_file(late)),
             ("a.satev.json", parse_event_file(same_day)), ("d.satev.json", parse_event_file(early))]
    ordered = ordered_events(files)
    assert [record.new_text[0][1] for record, _ in ordered] == [
        "early", "same day", "first", "second", "late"]
    assert [instrument.urn[-10:] for _, instrument in ordered] == [
        "2001-01-01", "2003-01-01", "2003-01-01", "2003-01-01", "2005-01-01"]


class TestEnact:
    def test_fixture_art6_caput_is_open_and_lacks_housing(self, fixture_store):
        first = fixture_store.versions_of(ART6_CPT)[0]
        assert first.validity.valid_start == date(1988, 10, 5)
        lv = fixture_store.content_clv(first.id, "pt")
        text = fixture_store.units[lv.text_unit].text
        assert "housing" not in text
        assert "education" in text

    def test_empty_body_document(self):
        store = GraphStore()
        payload = mini_doc()
        payload["body"] = []
        enact(store, parse_document(payload))
        assert len(store.works) == 1
        assert len(store.ctvs) == 1
        assert len(store.actions) == 1
        action = next(iter(store.actions.values()))
        assert action.action_type.value == "enactment"

    def test_reenacting_same_urn_rejected(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        with pytest.raises(DuplicateNorm):
            enact(store, parse_document(mini_doc()))

    def test_parent_versions_aggregate_children_in_order(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        norm_tv = store.versions_of("urn:test:mini")[0]
        works = [store.ctvs[c].work for c in norm_tv.aggregates]
        assert works == ["urn:test:mini!art1", "urn:test:mini!art2"]


class TestApplyEvent:
    def test_amendment_closes_old_and_creates_new(self, fixture_store):
        versions = fixture_store.versions_of(ART6_CPT)
        original, ca26 = versions[0], versions[1]
        assert original.validity.valid_end == date(2000, 2, 15)
        assert original.terminated_by == ACT_CA26
        assert ca26.validity.valid_start == date(2000, 2, 15)
        text = fixture_store.units[
            fixture_store.content_clv(ca26.id, "pt").text_unit].text
        assert "housing" in text

    def test_ancestors_gain_versions_on_amendment(self, fixture_store):
        for ancestor in (ART6, CAP2, TIT2, NORM_URN):
            starts = [tv.validity.valid_start
                      for tv in fixture_store.versions_of(ancestor)]
            assert date(2000, 2, 15) in starts, ancestor

    def test_unchanged_sibling_versions_are_shared_by_id(self, fixture_store):
        cap2_2000 = next(
            tv for tv in fixture_store.versions_of(CAP2)
            if tv.validity.valid_start == date(2000, 2, 15))
        art7_first = fixture_store.versions_of(ART7)[0]
        assert art7_first.id in cap2_2000.aggregates
        # Art. 7 was untouched in 2000, so no new version for it exists.
        assert len([tv for tv in fixture_store.versions_of(ART7)
                    if tv.validity.valid_start == date(2000, 2, 15)]) == 0

    def test_leaf_amendment_creates_depth_plus_one_versions(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        before = len(store.ctvs)
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "Provision 1 amended."))
        # caput + article + norm = depth (2) + 1 new versions
        assert len(store.ctvs) - before == 3
        assert len(store.versions_of("urn:test:mini!art2_cpt")) == 1

    def test_unknown_target(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        with pytest.raises(UnknownTarget):
            apply_file(store, amendment_file("urn:test:mini!artX", "2003-06-01", "x"))

    def test_amending_repealed_component_raises_no_open_version(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "", action_type="repeal"))
        with pytest.raises(NoOpenVersion):
            apply_file(store, amendment_file(
                "urn:test:mini!art1_cpt", "2004-06-01", "never lands"))

    def test_out_of_order_event(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        with pytest.raises(OutOfOrderEvent):
            apply_file(store, amendment_file(
                "urn:test:mini!art1_cpt", "1999-12-31", "before enactment"))

    def test_repeal_drops_component_from_ancestor_aggregation(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "", action_type="repeal"))
        art1_latest = store.versions_of("urn:test:mini!art1")[-1]
        assert art1_latest.aggregates == ()
        repealed = store.versions_of("urn:test:mini!art1_cpt")[-1]
        assert repealed.validity.valid_end == date(2003, 6, 1)

    def test_insertion_creates_works_and_extends_parent(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1", "2003-06-01", "", components=[
                {"fragment": "art1_par1", "type": "paragraph",
                 "text": "Inserted paragraph."}]))
        inserted = store.works["urn:test:mini!art1_par1"]
        assert inserted.parent == "urn:test:mini!art1"
        assert inserted.ordinal == 1
        art1_latest = store.versions_of("urn:test:mini!art1")[-1]
        child_works = [store.ctvs[c].work for c in art1_latest.aggregates]
        assert child_works == ["urn:test:mini!art1_cpt", "urn:test:mini!art1_par1"]

    def test_monotone_growth_only_one_end_set_per_event(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        snapshot_before = {cid: tv for cid, tv in store.ctvs.items()}
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "Amended."))
        changed = [
            cid for cid, tv in snapshot_before.items()
            if store.ctvs[cid] != tv
        ]
        # Exactly one pre-existing version per affected depth gets closed;
        # untouched versions are bit-identical.
        assert all(store.ctvs[c].validity.valid_end == date(2003, 6, 1) for c in changed)
        assert len(changed) == 3

    def test_instrument_stub_works_created(self, fixture_store):
        instrument = "urn:lex:br:federal:emenda.constitucional:2000-02-14;26"
        assert fixture_store.works[instrument].kind is WorkKind.NORM
        assert f"{instrument}!art1_cpt" in fixture_store.works


class TestRenderActionText:
    def test_amendment_text_matches_event_summary_form(self, fixture_store):
        action = fixture_store.actions[ACT_CA26]
        text = render_action_text(action, fixture_store)
        assert "terminated on 2000-02-14" in text
        assert "effective from 2000-02-15" in text
        assert text.endswith("in the manner prescribed by this Constitution.'")
        assert "housing" in text

    def test_enactment_has_no_termination_clause(self, fixture_store):
        action = fixture_store.actions["act:cf-1988:enactment"]
        text = render_action_text(action, fixture_store)
        assert "terminated" not in text
        assert "1988-10-05" in text

    def test_repeal_matches_golden_file(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        file_dict = amendment_file(
            "urn:test:mini!art2_cpt", "2003-06-01", "", action_type="repeal")
        file_dict["instrument"] = {
            "urn": "urn:test:repealer",
            "title": "Repealing Act no. 9, of June 1, 2003",
            "short_title": "RA 9/2003",
            "publication_date": "2003-06-01",
            "language": "en",
        }
        file_dict["events"][0]["source_provision"] = "art1_cpt"
        file_dict["events"][0]["source_label"] = "the caput of its Art. 1"
        action_id = apply_file(store, file_dict)
        rendered = render_action_text(store.actions[action_id], store)
        golden = (DATA / "golden_repeal_action.txt").read_text(encoding="utf-8").strip()
        assert rendered == golden
        assert "whose text became" not in rendered

    def test_description_unit_stored_on_apply(self, fixture_store):
        action = fixture_store.actions[ACT_CA26]
        unit = fixture_store.units[action.description_unit]
        assert unit.aspect.value == "action_description"
        assert unit.text == render_action_text(action, fixture_store)


class TestTextualizeMetadata:
    def test_publication_date_sentence(self, fixture_store):
        units = textualize_metadata(fixture_store.works[NORM_URN], fixture_store)
        texts = [u.text for u in units]
        assert any(t.endswith("was published on October 5, 1988.") for t in texts)

    def test_succession_sentence(self, fixture_store):
        node = WorkNode(
            id=WorkId("urn:test:1967"),
            kind=WorkKind.NORM,
            metadata=metadata_tuple({
                "title": "The 1967 Constitution of Brazil",
                "succeeds": "the 1946 Constitution of the United States of Brazil",
            }),
        )
        units = textualize_metadata(node, fixture_store)
        assert [u.text for u in units] == [
            "The 1967 Constitution of Brazil succeeded "
            "the 1946 Constitution of the United States of Brazil."
        ]

    def test_empty_metadata_yields_nothing(self, fixture_store):
        node = WorkNode(id=WorkId("urn:test:bare"), kind=WorkKind.NORM)
        assert textualize_metadata(node, fixture_store) == []


class TestAddLanguage:
    def _store(self) -> GraphStore:
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        return store

    def test_translation_adds_only_language_nodes(self):
        store = self._store()
        counts = store.node_counts()
        created = add_language(
            store, "urn:test:mini", {"art1_cpt": "Premier texte."}, "fr")
        after = store.node_counts()
        assert len(created) == 1
        assert after["works"] == counts["works"]
        assert after["temporal_versions"] == counts["temporal_versions"]
        assert after["language_versions"] == counts["language_versions"] + 1
        assert after["text_units"] == counts["text_units"] + 1

    def test_empty_translation_map_is_noop(self):
        store = self._store()
        assert add_language(store, "urn:test:mini", {}, "fr") == []

    def test_duplicate_translation_conflicts(self):
        store = self._store()
        add_language(store, "urn:test:mini", {"art1_cpt": "Premier."}, "fr")
        with pytest.raises(TranslationConflict):
            add_language(store, "urn:test:mini", {"art1_cpt": "Encore."}, "fr")

    def test_translation_targets_version_valid_at_date(self):
        store = self._store()
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "Provision 1 v2."))
        add_language(store, "urn:test:mini", {"art1_cpt": "Deuxième."}, "fr",
                     at=date(2004, 1, 1))
        second = store.versions_of("urn:test:mini!art1_cpt")[1]
        assert store.content_clv(second.id, "fr") is not None
        first = store.versions_of("urn:test:mini!art1_cpt")[0]
        assert store.content_clv(first.id, "fr") is None


class TestTranslationFileParsing:
    def test_round_trip(self, corpus_dir):
        parsed = parse_translation_file(
            (corpus_dir / "art6_original_en.satlang.json").read_text(encoding="utf-8"))
        assert parsed.language == "en"
        assert parsed.at == date(1988, 10, 5)
        assert parsed.units[0][0] == "art6_cpt"


class TestPropagatedContentCarry:
    def test_text_bearing_ancestor_keeps_all_languages(self):
        # A caput with items is text-bearing AND an ancestor: amending an
        # item must roll the caput while carrying its wording in every
        # language it had, without changing any of the texts.
        store = GraphStore()
        enact(store, parse_document({
            "format_version": 1,
            "norm": {"urn": "urn:test:carry", "title": "Carry", "short_title": "CY",
                     "publication_date": "2000-01-01", "language": "en"},
            "body": [{
                "fragment": "art1", "type": "article",
                "children": [{
                    "fragment": "art1_cpt", "type": "caput", "text": "Caput wording.",
                    "children": [
                        {"fragment": "art1_it1", "type": "item", "text": "Item wording."}],
                }],
            }],
        }))
        add_language(store, "urn:test:carry", {"art1_cpt": "Texte du caput."}, "fr")
        file_dict = amendment_file(
            "urn:test:carry!art1_it1", "2003-06-01", "Item wording v2.")
        apply_file(store, file_dict)

        rolled = store.versions_of("urn:test:carry!art1_cpt")[-1]
        assert rolled.validity.valid_start == date(2003, 6, 1)
        for language, expected in (("en", "Caput wording."), ("fr", "Texte du caput.")):
            lv = store.content_clv(rolled.id, language)
            assert lv is not None, language
            assert store.units[lv.text_unit].text == expected
        # The rolled caput aggregates the item's new version.
        child_works = [store.ctvs[c].work for c in rolled.aggregates]
        assert child_works == ["urn:test:carry!art1_it1"]
        item_tv = store.ctvs[rolled.aggregates[0]]
        assert item_tv.validity.valid_start == date(2003, 6, 1)


def test_enactment_only_store_has_open_caput_version(corpus_dir):
    store = GraphStore()
    doc = parse_document(
        (corpus_dir / "constitution_1988.satdoc.json").read_text(encoding="utf-8"))
    enact(store, doc)
    (only,) = store.versions_of(ART6_CPT)
    assert only.validity.valid_start == date(1988, 10, 5)
    assert only.validity.is_open


def test_duplicate_event_from_same_instrument_rejected():
    store = GraphStore()
    enact(store, parse_document(mini_doc()))
    file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "v2")
    apply_file(store, file_dict)
    with pytest.raises(MalformedInput):
        apply_file(store, file_dict)
