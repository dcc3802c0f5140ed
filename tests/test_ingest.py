from __future__ import annotations

import copy
import hashlib
import json
import shutil
from datetime import date
from pathlib import Path

import pytest

from normgraph.errors import (
    DuplicateFragment,
    DuplicateNorm,
    LostPrimaryWording,
    MalformedInput,
    NoOpenVersion,
    OutOfOrderEvent,
    StructureError,
    TranslationConflict,
    UnknownTarget,
    UnknownWork,
)
from normgraph import ingest
from normgraph.ingest import (
    add_language,
    apply_events,
    enact,
    ingest_corpus,
    parse_document,
    parse_event_file,
    parse_translation_file,
    render_action_text,
    textualize_metadata,
)
from normgraph.model import (
    ComponentType, TemporalVersion, WorkNode, metadata_tuple,
    metadata_unit_id, validate_graph)
from normgraph.store import GraphStore, pick_wording, save

from reference_ids import (
    ACT_CA26,
    ART6,
    ART6_CPT,
    ART7,
    CAP2,
    NORM_URN,
    TIT2,
)
from snapshot_rows import v5_node_lines
from synthcorpus import build_store, generate_corpus

DATA = Path(__file__).parent / "data"


def aggregation(store: GraphStore) -> dict[str, tuple[TemporalVersion, ...]]:
    """Every norm's aggregation index (``GraphStore.aggregation_of``), in one map."""
    return {cid: held for urn, work in store.works.items() if work.parent is None
            for cid, held in store.aggregation_of(urn).items()}


def versions_of(store: GraphStore, urn: str) -> list[TemporalVersion]:
    """The work's temporal versions, ascending by valid_start, as the store files them."""
    return [store.ctvs[cid] for cid in store.versions.get(urn, ())]


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
    """Apply one event file's events; return the id of the last action applied."""
    action_ids = apply_events(store, [("event.satev.json", parse_event_file(file_dict))])
    return action_ids[-1] if action_ids else ""


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

    # A metadata value is textualized as it stands, so it must be a string:
    # null is no absent key, and no other JSON value is written as its text.
    @pytest.mark.parametrize("value", [5, True, None, ["a"], {"y": "z"}],
                             ids=["number", "boolean", "null", "array", "object"])
    def test_a_metadata_value_that_is_not_a_string_is_rejected(self, value):
        payload = mini_doc()
        payload["norm"]["metadata"] = {"subject": "water", "x": value}
        with pytest.raises(MalformedInput, match="field 'metadata' must be a JSON object of strings"):
            parse_document(payload)
        event_file = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "Amended.")
        event_file["instrument"]["metadata"] = {"x": value}
        with pytest.raises(MalformedInput, match="field 'metadata' must be a JSON object of strings"):
            parse_event_file(event_file)

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


def test_apply_events_applies_by_date_then_action_id(monkeypatch):
    # Neither file names nor record order count. Ids compare as strings, so
    # AA 10/2003's actions come before AA 9/2003's.
    late = amendment_file("urn:test:mini!art1_cpt", "2005-01-01", "late")
    early = amendment_file("urn:test:mini!art2_cpt", "2001-01-01", "early")
    nine = amendment_file("urn:test:mini!art1_cpt", "2003-01-01", "nine")
    nine["instrument"].update(urn="urn:test:act:9", short_title="AA 9/2003")
    ten = amendment_file("urn:test:mini!art3_cpt", "2003-01-01", "ten, first record")
    ten["events"].append(dict(ten["events"][0], target="urn:test:mini!art2_cpt",
                              new_text={"en": "ten, second record"}))
    ten["instrument"].update(urn="urn:test:act:10", short_title="AA 10/2003")
    files = [("a.satev.json", parse_event_file(nine)), ("b.satev.json", parse_event_file(ten)),
             ("c.satev.json", parse_event_file(late)), ("d.satev.json", parse_event_file(early))]
    applied = []
    check = ingest.apply_event

    def spy(store, record, instrument, action_id, day):
        applied.append(record.new_text[0][1])
        return check(store, record, instrument, action_id, day)

    monkeypatch.setattr(ingest, "apply_event", spy)
    store = GraphStore()
    enact(store, parse_document(mini_doc(3)))
    assert apply_events(store, files) == [
        "act:aa-2001:art2-cpt:2001-01-01", "act:aa-10-2003:art2-cpt:2003-01-01",
        "act:aa-10-2003:art3-cpt:2003-01-01", "act:aa-9-2003:art1-cpt:2003-01-01",
        "act:aa-2005:art1-cpt:2005-01-01"]
    assert applied == ["early", "ten, second record", "ten, first record", "nine", "late"]


class TestEnact:
    def test_fixture_art6_caput_is_open_and_lacks_housing(self, fixture_store):
        first = versions_of(fixture_store, ART6_CPT)[0]
        assert first.valid_start == date(1988, 10, 5)
        lv = fixture_store.clvs[pick_wording(fixture_store.clvs_by_ctv[first.id],
                                             fixture_store.primary_language(ART6_CPT), "pt",
                                             False)]
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
        norm_tv = versions_of(store, "urn:test:mini")[0]
        works = [c.work for c in aggregation(store)[norm_tv.id]]
        assert works == ["urn:test:mini!art1", "urn:test:mini!art2"]


class TestApplyEvent:
    def test_amendment_closes_old_and_creates_new(self, fixture_store):
        versions = versions_of(fixture_store, ART6_CPT)
        original, ca26 = versions[0], versions[1]
        assert original.valid_end == date(2000, 2, 15)
        assert fixture_store.closed_by(fixture_store.actions[ACT_CA26], ART6_CPT) == original
        assert ca26.valid_start == date(2000, 2, 15)
        lv = fixture_store.clvs[pick_wording(fixture_store.clvs_by_ctv[ca26.id],
                                             fixture_store.primary_language(ART6_CPT), "pt",
                                             False)]
        text = fixture_store.units[lv.text_unit].text
        assert "housing" in text

    def test_ancestors_gain_versions_on_amendment(self, fixture_store):
        for ancestor in (ART6, CAP2, TIT2, NORM_URN):
            starts = [tv.valid_start
                      for tv in versions_of(fixture_store, ancestor)]
            assert date(2000, 2, 15) in starts, ancestor

    def test_unchanged_sibling_versions_are_shared_by_id(self, fixture_store):
        cap2_2000 = next(
            tv for tv in versions_of(fixture_store, CAP2)
            if tv.valid_start == date(2000, 2, 15))
        art7_first = versions_of(fixture_store, ART7)[0]
        assert art7_first in aggregation(fixture_store)[cap2_2000.id]
        # Art. 7 was untouched in 2000, so no new version for it exists.
        assert len([tv for tv in versions_of(fixture_store, ART7)
                    if tv.valid_start == date(2000, 2, 15)]) == 0

    def test_leaf_amendment_creates_depth_plus_one_versions(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        before = len(store.ctvs)
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "Provision 1 amended."))
        # caput + article + norm = depth (2) + 1 new versions
        assert len(store.ctvs) - before == 3
        assert len(versions_of(store, "urn:test:mini!art2_cpt")) == 1

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
        with pytest.raises(OutOfOrderEvent, match="event effective 1999-12-31 does not follow "
                                                  "current version start 2000-01-01 of"):
            apply_file(store, amendment_file(
                "urn:test:mini!art1_cpt", "1999-12-31", "before enactment"))

    def test_repeal_drops_component_from_ancestor_aggregation(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "", action_type="repeal"))
        art1_latest = versions_of(store, "urn:test:mini!art1")[-1]
        assert aggregation(store).get(art1_latest.id, ()) == ()
        repealed = versions_of(store, "urn:test:mini!art1_cpt")[-1]
        assert repealed.valid_end == date(2003, 6, 1)

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
        art1_latest = versions_of(store, "urn:test:mini!art1")[-1]
        child_works = [c.work for c in aggregation(store)[art1_latest.id]]
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
        assert all(store.ctvs[c].valid_end == date(2003, 6, 1) for c in changed)
        assert len(changed) == 3

    def test_instrument_stub_works_created(self, fixture_store):
        instrument = "urn:lex:br:federal:emenda.constitucional:2000-02-14;26"
        assert fixture_store.works[instrument].parent is None
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

    def test_an_amendment_quotes_the_wording_the_language_rule_picks(self):
        # A Portuguese norm amended with Spanish and Portuguese wording and no
        # English: the description quotes the primary language, not the
        # alphabetically first one.
        store = GraphStore()
        doc = mini_doc()
        doc["norm"]["language"] = "pt"
        enact(store, parse_document(doc))
        file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "")
        file_dict["events"][0]["new_text"] = {"es": "Texto nuevo.", "pt": "Texto novo."}
        action = store.actions[apply_file(store, file_dict)]
        text = render_action_text(action, store)
        assert "Texto novo." in text and "Texto nuevo." not in text
        assert store.units[action.description_unit].text == text

    def test_each_stored_description_is_its_re_rendering_after_a_translation(
            self, corpus_dir, tmp_path):
        # An English wording of the version of Art. 6's caput that CA 26/2000
        # opens, attached after ingest described that action: re-rendering it
        # quotes the norm's primary (Portuguese) wording, as the stored text does.
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        (corpus / "art6_ca26_en.satlang.json").write_text(json.dumps({
            "format_version": 1, "norm": NORM_URN, "language": "en", "at": "2000-02-15",
            "units": [{"fragment": "art6_cpt", "text": "Social rights are education, "
                       "health, work, housing, leisure and security."}],
        }), encoding="utf-8")
        store, _ = ingest_corpus(corpus)
        assert "en" in store.clvs_by_ctv[f"{ART6_CPT}@2000-02-15"]
        for action in store.actions.values():
            assert store.units[action.description_unit].text == render_action_text(
                action, store), action.id

    def test_description_unit_stored_on_apply(self, fixture_store):
        action = fixture_store.actions[ACT_CA26]
        unit = fixture_store.units[action.description_unit]
        assert unit.text == render_action_text(action, fixture_store)


class TestTextualizeMetadata:
    def test_publication_date_sentence(self, fixture_store):
        units = textualize_metadata(fixture_store.works[NORM_URN])
        texts = [u.text for u in units]
        assert any(t.endswith("was published on October 5, 1988.") for t in texts)

    def test_succession_sentence(self):
        node = WorkNode(
            urn="urn:test:1967",
            aliases=(),
            metadata=metadata_tuple({
                "title": "The 1967 Constitution of Brazil",
                "succeeds": "the 1946 Constitution of the United States of Brazil",
            }),
        )
        units = textualize_metadata(node)
        assert [u.text for u in units] == [
            "The 1967 Constitution of Brazil succeeded "
            "the 1946 Constitution of the United States of Brazil."
        ]

    def test_every_metadata_unit_is_one_a_work_names(self, fixture_store):
        metadata = {uid for uid in fixture_store.units if ":meta:" in uid}
        assert metadata and metadata == {metadata_unit_id(urn, key)
                                         for urn, work in fixture_store.works.items()
                                         for key, _ in work.facts}

    def test_empty_metadata_yields_nothing(self):
        node = WorkNode(urn="urn:test:bare", aliases=())
        assert textualize_metadata(node) == []

    def test_an_instrument_stub_textualizes_the_facts_it_keeps(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        event_file = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "Amended.")
        event_file["instrument"]["metadata"] = {"subject": "water", "heading": "Shown"}
        apply_file(store, event_file)
        urn = event_file["instrument"]["urn"]
        assert dict(store.works[urn].metadata)["subject"] == "water"
        unit = store.units[metadata_unit_id(urn, "subject")]
        assert unit.text.endswith("water.")
        assert [uid for uid in store.units if uid.startswith(f"tu:{urn}:")] == [unit.id]
        assert validate_graph(store) == []


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
        second = versions_of(store, "urn:test:mini!art1_cpt")[1]
        assert "fr" in store.clvs_by_ctv[second.id]
        first = versions_of(store, "urn:test:mini!art1_cpt")[0]
        assert "fr" not in store.clvs_by_ctv[first.id]


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

        rolled = versions_of(store, "urn:test:carry!art1_cpt")[-1]
        assert rolled.valid_start == date(2003, 6, 1)
        for language, expected in (("en", "Caput wording."), ("fr", "Texte du caput.")):
            lv_id = store.clvs_by_ctv[rolled.id].get(language)
            assert lv_id is not None, language
            assert store.units[store.clvs[lv_id].text_unit].text == expected
        # The rolled caput aggregates the item's new version.
        aggregated = aggregation(store)[rolled.id]
        child_works = [c.work for c in aggregated]
        assert child_works == ["urn:test:carry!art1_it1"]
        item_tv = aggregated[0]
        assert item_tv.valid_start == date(2003, 6, 1)


def test_enactment_only_store_has_open_caput_version(corpus_dir):
    store = GraphStore()
    doc = parse_document(
        (corpus_dir / "constitution_1988.satdoc.json").read_text(encoding="utf-8"))
    enact(store, doc)
    (only,) = versions_of(store, ART6_CPT)
    assert only.valid_start == date(1988, 10, 5)
    assert only.valid_end is None


def test_duplicate_event_from_same_instrument_rejected():
    store = GraphStore()
    enact(store, parse_document(mini_doc()))
    file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "v2")
    apply_file(store, file_dict)
    with pytest.raises(MalformedInput):
        apply_file(store, file_dict)


def test_two_root_insertion_merges_into_the_parent_version_of_that_day():
    # art1 already changed on the day, so both inserted roots join the one
    # art1 version of that day, in ordinal order, and the action terminates
    # nothing: every version it produces opens its work's chain.
    store = GraphStore()
    enact(store, parse_document(mini_doc()))
    apply_file(store, amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "Amended."))
    action_id = apply_file(store, amendment_file(
        "urn:test:mini!art1", "2003-06-01", "", components=[
            {"fragment": "art1_par1", "type": "paragraph", "text": "First inserted.",
             "children": [{"fragment": "art1_par1_it1", "type": "item", "text": "Its item."}]},
            {"fragment": "art1_par2", "type": "paragraph", "text": "Second inserted."},
        ]))
    urn = "urn:test:mini!"
    art1 = versions_of(store, f"{urn}art1")
    assert [tv.valid_start for tv in art1] == [date(2000, 1, 1), date(2003, 6, 1)]
    assert [c.work for c in aggregation(store)[art1[-1].id]] == [
        f"{urn}art1_cpt", f"{urn}art1_par1", f"{urn}art1_par2"]
    assert len(versions_of(store, "urn:test:mini")) == 2
    action = store.actions[action_id]
    assert sorted(cid for cid, aid in store.produced_by.items() if aid == action_id) == [
        f"{urn}art1_par1@2003-06-01", f"{urn}art1_par1_it1@2003-06-01",
        f"{urn}art1_par2@2003-06-01"]
    assert [store.closed_by(action, w) for w in store.works] == [None] * len(store.works)
    assert action.targets == (f"{urn}art1_par1", f"{urn}art1_par2") and action.inserts
    store.commit()
    assert validate_graph(store) == []


# Every store field a write path fills, nodes and indexes alike.
_STORE_STATE = ("works", "ctvs", "clvs", "actions", "units", "versions", "children",
                "produced_by")


def _repeal_art1_then_amend_its_caput(store):
    apply_file(store, amendment_file("urn:test:mini!art1", "2003-06-01", "", action_type="repeal"))
    return lambda: apply_file(store, amendment_file("urn:test:mini!art1_cpt", "2004-06-01", "x"))


def _repeat_an_event(store):
    file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "v2")
    apply_file(store, file_dict)
    file_dict["instrument"]["urn"] = "urn:test:act:other"
    return lambda: apply_file(store, file_dict)


def _amend_before_the_parent_changed(store):
    apply_file(store, amendment_file("urn:test:mini!art1", "2005-06-01", "", components=[
        {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}]))
    return lambda: apply_file(store, amendment_file("urn:test:mini!art1_cpt", "2004-06-01", "x"))


def _amend_a_container(store):
    return lambda: apply_file(store, amendment_file("urn:test:mini!art1", "2003-06-01", "x"))


def _insert_a_taken_fragment(store):
    return lambda: apply_file(store, amendment_file("urn:test:mini!art1", "2003-06-01", "", components=[
        {"fragment": "art1_par1", "type": "paragraph", "text": "Free."},
        {"fragment": "art2_cpt", "type": "caput", "text": "Taken."}]))


def _insert_a_misplaced_component(store):
    return lambda: apply_file(store, amendment_file("urn:test:mini!art1", "2003-06-01", "", components=[
        {"fragment": "art1_it1", "type": "item", "text": "Items belong under a caput."}]))


def _enact_a_norm_with_a_taken_short_title(store):
    doc = mini_doc()
    doc["norm"]["urn"] = "urn:test:mini2"
    return lambda: enact(store, parse_document(doc))


def _insert_the_events_own_source_provision(store):
    file_dict = amendment_file("urn:test:mini", "2003-06-01", "", components=[
        {"fragment": "art9", "type": "article", "children": [
            {"fragment": "art9_cpt", "type": "caput", "text": "Inserted."}]}])
    file_dict["instrument"] = mini_doc()["norm"]
    file_dict["events"][0]["source_provision"] = "art9"
    return lambda: apply_file(store, file_dict)


def _retitle_an_instrument(store):
    apply_file(store, amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "Amended."))
    file_dict = amendment_file("urn:test:mini!art2_cpt", "2004-06-01", "Amended.")
    # The first act's urn, which its stub already titles "AA 2003".
    file_dict["instrument"]["urn"] = "urn:test:act:2003-06-01"
    return lambda: apply_file(store, file_dict)


def _amend_without_the_primary_language(store):
    file_dict = amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "")
    # The norm is English: readers fall back to English wording, which this lacks.
    file_dict["events"][0]["new_text"] = {"fr": "Texte nouveau.", "pt": "Texto novo."}
    return lambda: apply_file(store, file_dict)


def _insert_then_amend_without_the_primary_language_on_one_day(store):
    # The insertion's id sorts first and it passes its checks; the day's
    # second event fails them before anything of the day is written.
    insertion = amendment_file("urn:test:mini!art1", "2003-06-01", "", components=[
        {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}])
    rejected = amendment_file("urn:test:mini!art2_cpt", "2003-06-01", "")
    rejected["events"][0]["new_text"] = {"fr": "Texte nouveau."}
    files = [("a.satev.json", parse_event_file(rejected)),
             ("b.satev.json", parse_event_file(insertion))]
    return lambda: apply_events(store, files)


def _translate_an_unknown_fragment(store):
    return lambda: add_language(store, "urn:test:mini", {"art1_cpt": "ola", "zz": "x"}, "pt")


def _translate_twice(store):
    add_language(store, "urn:test:mini", {"art2_cpt": "Deuxième."}, "fr")
    return lambda: add_language(store, "urn:test:mini", {"art1_cpt": "Premier.", "art2_cpt": "Encore."}, "fr")


def _word_a_version_a_later_one_lacks_in_the_primary_language(store):
    # Amending art1's caput rolls the textless art1, whose later version has no English wording.
    apply_file(store, amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "Amended."))
    return lambda: add_language(store, "urn:test:mini", {"art1": "Art. 1"}, "en")


@pytest.mark.parametrize("setup, error", [
    pytest.param(_repeal_art1_then_amend_its_caput, NoOpenVersion, id="closed-ancestor"),
    pytest.param(_repeat_an_event, MalformedInput, id="duplicate-event"),
    pytest.param(_amend_before_the_parent_changed, OutOfOrderEvent, id="ancestor-out-of-order"),
    pytest.param(_amend_a_container, StructureError, id="amend-textless-target"),
    pytest.param(_insert_a_taken_fragment, MalformedInput, id="insert-taken-fragment"),
    pytest.param(_insert_a_misplaced_component, StructureError, id="insert-misplaced-component"),
    pytest.param(_enact_a_norm_with_a_taken_short_title, MalformedInput,
                 id="enact-taken-short-title"),
    pytest.param(_insert_the_events_own_source_provision, MalformedInput,
                 id="insert-own-source-provision"),
    pytest.param(_retitle_an_instrument, MalformedInput, id="instrument-titled-otherwise"),
    pytest.param(_amend_without_the_primary_language, MalformedInput,
                 id="amend-without-primary-language"),
    pytest.param(_insert_then_amend_without_the_primary_language_on_one_day, MalformedInput,
                 id="day-of-an-insertion-and-a-rejected-amendment"),
    pytest.param(_translate_an_unknown_fragment, UnknownWork, id="translate-unknown-fragment"),
    pytest.param(_translate_twice, TranslationConflict, id="translate-conflict"),
    pytest.param(_word_a_version_a_later_one_lacks_in_the_primary_language, LostPrimaryWording,
                 id="translate-primary-wording-a-later-version-lacks"),
])
def test_a_rejected_call_leaves_the_store_unchanged(setup, error):
    store = GraphStore()
    enact(store, parse_document(mini_doc()))
    call = setup(store)
    before = {name: copy.deepcopy(getattr(store, name)) for name in _STORE_STATE}
    with pytest.raises(error):
        call()
    for name in _STORE_STATE:
        assert getattr(store, name) == before[name], name


def _node_rows_digest(path: Path) -> str:
    """SHA-256 of a snapshot's node rows, each encoded as its format version 5 line.

    The meta header is left out; every byte of every row counts. The pins
    below were retaken when version 11 dropped each action's terminated and
    produced works and added its ``inserts`` flag; each equals the digest
    of its version 10 rows cut to the columns version 11 keeps, each
    action's flag appended (set on an amendment that terminates none of its
    targets).
    """
    return hashlib.sha256("".join(v5_node_lines(path)).encode("utf-8")).hexdigest()


# Together these seeds hold insertions of an article with its caput,
# repeals and same-day events, none of which the golden fixture pins.
@pytest.mark.parametrize("seed, expected", [
    (1, "f57218781f0e7a890e16160c3c4842539ff15d74ae1aa3d656cea02da8b08107"),
    (9, "733ffd24d8fae8f791c195dada8623fe513088f459d74320a3f1ba8008223327"),
    (18, "73ea823bfa21c9d5af539f24f263eafad1c94c21d90eccfede47f3f8cc1ac646"),
])
def test_synthetic_snapshots_are_pinned(seed, expected, tmp_path):
    store = build_store(generate_corpus(seed))
    store.commit()
    save(store, tmp_path / "s.ndjson")
    assert _node_rows_digest(tmp_path / "s.ndjson") == expected


def test_the_golden_snapshot_holds_the_rows_of_its_version_11_save():
    # The digest of the node lines of tests/data/golden_fixture.ndjson as
    # format version 11 wrote it.
    assert _node_rows_digest(DATA / "golden_fixture.ndjson") == (
        "7e5749bde69181f7e49869ad279cc96bbf6a92f1e87823ee17ca55078d784e76")
