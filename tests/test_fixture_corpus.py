from __future__ import annotations

import json
from datetime import date
from importlib import resources

from normgraph.cli import main
from normgraph.model import ActionType, validate_graph
from normgraph.store import pick_wording

from reference_ids import ART6_CPT, ART7_CPT, NORM_URN, RIGHTS_1999
from test_ingest import versions_of

PACKAGE_FIXTURES = resources.files("normgraph") / "fixtures"

CORPUS_FILES = [
    "art6_original_en.satlang.json",
    "ca_26_2000.satev.json",
    "ca_64_2010.satev.json",
    "ca_72_2013.satev.json",
    "ca_90_2015.satev.json",
    "constitution_1988.satdoc.json",
    "reference.sattruth.json",
    "themes_social_rights.satev.json",
]


def test_fixture_command_writes_exactly_the_package_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["fixture", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in CORPUS_FILES]
    assert sorted(entry.name for entry in PACKAGE_FIXTURES.iterdir()) == CORPUS_FILES
    assert sorted(path.name for path in out.iterdir()) == CORPUS_FILES
    for name in CORPUS_FILES:
        assert (out / name).read_bytes() == PACKAGE_FIXTURES.joinpath(name).read_bytes(), name


def test_fixture_graph_validates_clean(fixture_store):
    assert validate_graph(fixture_store) == []


def test_exactly_one_enacted_norm(fixture_store):
    enacted = [
        w.urn for w in fixture_store.works.values()
        if w.parent is None and fixture_store.versions.get(w.urn)
    ]
    assert enacted == [NORM_URN]


def test_three_amendment_actions_target_art6_caput(fixture_store):
    amendments = [
        a for a in fixture_store.actions.values()
        if a.action_type is ActionType.AMENDMENT and ART6_CPT in a.targets
    ]
    assert len(amendments) == 3
    assert sorted(a.effective_date for a in amendments) == [
        date(2000, 2, 15), date(2010, 2, 4), date(2015, 9, 15)]


def test_art7_amended_once(fixture_store):
    amendments = [
        a for a in fixture_store.actions.values()
        if a.action_type is ActionType.AMENDMENT and ART7_CPT in a.targets
    ]
    assert len(amendments) == 1
    assert amendments[0].effective_date == date(2013, 4, 2)


def test_1999_rights_list_is_the_published_one(fixture_store):
    first = versions_of(fixture_store, ART6_CPT)[0]
    lv_id = pick_wording(fixture_store.clvs_by_ctv[first.id],
                         fixture_store.primary_language(ART6_CPT), "pt", False)
    text = fixture_store.units[fixture_store.clvs[lv_id].text_unit].text
    for right in RIGHTS_1999:
        assert right in text
    assert "housing" not in text
    assert "food" not in text


def test_stand_in_texts_are_flagged_synthetic():
    payload = json.loads(
        PACKAGE_FIXTURES.joinpath("constitution_1988.satdoc.json").read_text(encoding="utf-8"))

    def leaf_records(records):
        for record in records:
            if "text" in record:
                yield record
            yield from leaf_records(record.get("children", ()))

    for record in leaf_records(payload["body"]):
        assert record.get("synthetic") is True, record["fragment"]


def test_ca26_text_is_the_published_wording_not_synthetic():
    payload = json.loads(
        PACKAGE_FIXTURES.joinpath("ca_26_2000.satev.json").read_text(encoding="utf-8"))
    event = payload["events"][0]
    assert event["synthetic"] == {"pt": False}
    assert "housing" in event["new_text"]["pt"]


def test_theme_file_defines_social_rights(fixture_store):
    theme = fixture_store.themes["theme:social-rights"]
    assert theme.label == "Social Rights"
    assert theme.members == (f"{NORM_URN}!tit2_cap2",)
