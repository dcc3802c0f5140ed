from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normgraph
from normgraph import store as store_mod
from normgraph.cli import main

from test_ingest import mini_doc
from test_store import GOLDEN


@pytest.fixture()
def snapshot_file(corpus_dir, tmp_path):
    out = tmp_path / "cli.ndjson"
    assert main(["ingest", str(corpus_dir), "--out", str(out)]) == 0
    return out


class TestIngestCommand:
    def test_success_prints_summary(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "snap.ndjson"
        assert main(["ingest", str(corpus_dir), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "ingested 1 document(s), 4 event(s)" in captured
        assert "validation: clean" in captured
        assert out.exists()

    def test_empty_directory_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ingest", str(empty), "--out", str(tmp_path / "x.ndjson")]) == 3

    def test_event_targeting_unknown_urn_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        bad = json.loads((corpus / "ca_26_2000.satev.json").read_text())
        bad["events"][0]["target"] = "urn:lex:br:federal:constituicao:1988-10-05;1988!artX"
        (corpus / "ca_26_2000.satev.json").write_text(json.dumps(bad))
        assert main(["ingest", str(corpus), "--out", str(tmp_path / "x.ndjson")]) == 3
        assert "artX" in capsys.readouterr().err

    def test_two_norms_with_one_short_title_fail(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, urn in (("a", "urn:test:mini"), ("b", "urn:test:mini2")):
            doc = mini_doc()
            doc["norm"]["urn"] = urn
            (corpus / f"{name}.satdoc.json").write_text(json.dumps(doc))
        assert main(["ingest", str(corpus), "--out", str(tmp_path / "x.ndjson")]) == 3
        assert "duplicate enactment" in capsys.readouterr().err

    def test_a_work_fact_without_its_metadata_unit_fails_validation(
            self, corpus_dir, tmp_path, capsys, monkeypatch):
        from normgraph import ingest

        monkeypatch.setattr(ingest, "textualize_metadata", lambda node: [])
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus_dir), "--out", str(out)]) == 3
        assert "violation: MissingMetadataUnit: metadata key 'publication_date'" in (
            capsys.readouterr().err)
        assert not out.exists()


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(edit(data)), encoding="utf-8")


def _set_caput_text(doc: dict) -> dict:
    doc["body"][0]["children"][0]["children"][0]["children"][0]["text"] = 5
    return doc


def _set_article_ordinals(doc: dict) -> dict:
    # Read as 0 and 1 if a bool were an integer.
    for article, ordinal in zip(doc["body"][0]["children"][0]["children"], (False, True)):
        article["ordinal"] = ordinal
    return doc


def _set_first(key: str, value):
    def edit(data: dict) -> dict:
        data["events" if "events" in data else "queries"][0][key] = value
        return data
    return edit


class TestMalformedFiles:
    @pytest.mark.parametrize("name, edit", [
        ("ca_26_2000.satev.json", lambda data: data["events"]),
        ("constitution_1988.satdoc.json", _set_caput_text),
        ("ca_64_2010.satev.json", _set_first("new_text", {"pt": 5})),
        ("art6_original_en.satlang.json", lambda data: {**data, "units": 5}),
        ("art6_original_en.satlang.json", lambda data: {**data, "units": [5]}),
        ("constitution_1988.satdoc.json",
         lambda data: {**data, "norm": {**data["norm"], "aliases": "CF"}}),
        ("constitution_1988.satdoc.json",
         lambda data: {**data, "body": [{**data["body"][0], "fragment": 5}]}),
        ("ca_90_2015.satev.json", lambda data: {**data, "instrument": 5}),
        ("constitution_1988.satdoc.json", lambda data: {**data, "format_version": True}),
        ("constitution_1988.satdoc.json", _set_article_ordinals),
    ], ids=["event-file-array", "unit-text-number", "new-text-number", "units-number",
            "unit-not-object", "aliases-string", "fragment-number", "instrument-number",
            "format-version-bool", "ordinal-bool"])
    def test_a_field_of_the_wrong_json_type_exits_3_and_writes_no_snapshot(
            self, tmp_path, capsys, name, edit):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        _edit_json(corpus / name, edit)
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: MalformedInput: {corpus / name}: ")
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, reason", [
        pytest.param("art6_original_en.satlang.json",
                     lambda data: {**data, "units": [{**data["units"][0], "fragment": "art99_cpt"}]},
                     "the translation names unknown work "
                     "'urn:lex:br:federal:constituicao:1988-10-05;1988!art99_cpt'",
                     id="translation-unknown-fragment"),
        pytest.param("art6_original_en.satlang.json",
                     lambda data: {**data, "norm": "urn:lex:br:federal:lei:2000;1"},
                     "the translation names unknown work 'urn:lex:br:federal:lei:2000;1'",
                     id="translation-unknown-norm"),
        pytest.param("art6_original_en.satlang.json", lambda data: {**data, "at": "1980-01-01"},
                     "has no version valid on 1980-01-01", id="translation-before-enactment"),
        # Readers fall back to the norm's primary language, so a version may not get its
        # wording when a later version of the work has none: CA 72/2013 rolls the textless art7.
        pytest.param("art6_original_en.satlang.json", lambda data: {
            **data, "language": "pt", "units": [{"fragment": "art7", "text": "Direitos"}]},
                     "'urn:lex:br:federal:constituicao:1988-10-05;1988!art7@1988-10-05' may not "
                     "be worded in its norm's primary language 'pt': the next version "
                     "'urn:lex:br:federal:constituicao:1988-10-05;1988!art7@2013-04-02' is not",
                     id="translation-primary-wording-a-later-version-lacks"),
        pytest.param("ca_26_2000.satev.json", _set_first("source_provision", "art1!x"),
                     "event 0: source_provision 'art1!x' holds '!', which ends a norm urn",
                     id="source-provision-with-fragment-separator"),
        # A self-amending event must cite a provision its enacted norm has.
        pytest.param("ca_26_2000.satev.json", lambda data: {
            **data, "instrument": {"urn": "urn:lex:br:federal:constituicao:1988-10-05;1988",
                                   "title": "Brazilian Federal Constitution of 1988",
                                   "short_title": "CF/1988", "publication_date": "1988-10-05"},
            "events": [{**data["events"][0], "source_provision": "adct_art99"}]},
                     "source provision 'adct_art99' names no work of "
                     "'urn:lex:br:federal:constituicao:1988-10-05;1988', which the corpus enacts",
                     id="self-amending-stub"),
        # Readers fall back to the norm's primary language, so an amendment must word it.
        pytest.param("ca_26_2000.satev.json", lambda data: {**data, "events": [
            {**data["events"][0], "new_text": {"en": data["events"][0]["new_text"]["pt"]}}]},
                     "new_text for 'urn:lex:br:federal:constituicao:1988-10-05;1988!art6_cpt' "
                     "has no wording in its norm's primary language 'pt'",
                     id="amendment-without-primary-language"),
    ])
    def test_a_file_naming_what_the_corpus_lacks_exits_3_and_writes_no_snapshot(
            self, tmp_path, capsys, name, edit, reason):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        _edit_json(corpus / name, edit)
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: MalformedInput: {corpus / name}: ") and reason in err
        assert not out.exists()

    def test_a_second_amendment_on_the_same_day_does_not_follow_the_first(
            self, tmp_path, capsys):
        # CA 27/2000 amends Art. 6's caput on the day CA 26/2000 does: its action
        # id sorts second, and one work is amended at most once a day.
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        data = json.loads((corpus / "ca_26_2000.satev.json").read_text(encoding="utf-8"))
        data["instrument"].update(urn="urn:lex:br:federal:emenda.constitucional:2000-02-14;27",
                                  title="Constitutional Amendment no. 27, of February 14, 2000",
                                  short_title="CA 27/2000")
        (corpus / "ca_27_2000.satev.json").write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err.rstrip("\n").endswith(
            "OutOfOrderEvent: event effective 2000-02-15 does not follow current version start "
            "2000-02-15 of 'urn:lex:br:federal:constituicao:1988-10-05;1988!art6_cpt'")
        assert not out.exists()

    def test_an_inserted_component_of_an_unknown_type_names_its_event_file(
            self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        name = "ca_26_2000.satev.json"

        def insert_bogus(data: dict) -> dict:
            event = data["events"][0]
            del event["new_text"]
            event.pop("synthetic", None)
            event["new_components"] = [{"fragment": "art6_par9", "type": "bogus"}]
            return data

        _edit_json(corpus / name, insert_bogus)
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: MalformedInput: {corpus / name}: unknown component type 'bogus'")
        assert not out.exists()

    @pytest.mark.parametrize("content, reason", [
        (b"{bad", "not JSON: "),
        (b"\xff\xfe", "not UTF-8: "),
    ], ids=["not-json", "not-utf8"])
    @pytest.mark.parametrize("command", ["ingest", "eval"])
    def test_a_file_that_is_not_json_exits_3(
            self, snapshot_file, tmp_path, capsys, command, content, reason):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        out = tmp_path / "x.ndjson"
        if command == "ingest":
            bad = corpus / "ca_26_2000.satev.json"
            argv = ["ingest", str(corpus), "--out", str(out)]
        else:
            bad = corpus / "reference.sattruth.json"
            argv = ["eval", "--snapshot", str(snapshot_file), "--truth", str(bad),
                    "--report", str(out)]
        bad.write_bytes(content)
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"data error: MalformedInput: {bad}: {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda data: data["queries"],
        _set_first("query", ["art6"]),
        _set_first("expected_ctvs", "ctv"),
        _set_first("expected_actions", [["a"]]),
    ], ids=["truth-array", "query-array", "expected-ctvs-string", "expected-action-not-pair"])
    def test_a_truth_file_of_the_wrong_shape_exits_3_and_writes_no_report(
            self, snapshot_file, corpus_dir, tmp_path, capsys, edit):
        truth = tmp_path / "bad.sattruth.json"
        truth.write_text((corpus_dir / "reference.sattruth.json").read_text(encoding="utf-8"))
        _edit_json(truth, edit)
        report = tmp_path / "report.json"
        assert main(["eval", "--snapshot", str(snapshot_file), "--truth", str(truth),
                     "--report", str(report)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: MalformedInput: {truth}: ")
        assert not report.exists()


_CA26 = "urn:lex:br:federal:emenda.constitucional:2000-02-14;26"


def _insert_under_art7_caput(fragment: str):
    """CA 72/2013 inserting one item, named ``fragment``, under Art. 7's caput."""
    def edit(data: dict) -> dict:
        event = data["events"][0]
        del event["new_text"]
        event.pop("synthetic", None)
        event["new_components"] = [{"fragment": fragment, "type": "item",
                                    "text": "Domestic workers have the right to rest."}]
        return data
    return edit


def _set_norm(block: str, **values):
    """Set members of a file's norm or instrument block."""
    def edit(data: dict) -> dict:
        data[block].update(values)
        return data
    return edit


class TestIngestRejections:
    """Input that would ingest a graph the snapshot rules refuse, or render
    another label than its own blocks give, is rejected at ingest."""

    @pytest.mark.parametrize("name, edit, reason", [
        pytest.param("constitution_1988.satdoc.json",
                     _set_norm("norm", urn="urn:lex:br:federal:constituicao:1988-10-05;1988!x"),
                     "norm urn 'urn:lex:br:federal:constituicao:1988-10-05;1988!x' holds '!'",
                     id="document-urn"),
        pytest.param("constitution_1988.satdoc.json",
                     lambda data: {**data, "body": [{**data["body"][0], "fragment": "tit!2"}]},
                     "fragment 'tit!2' holds '!'", id="document-fragment"),
        pytest.param("ca_26_2000.satev.json", _set_norm("instrument", urn=f"{_CA26}!art1"),
                     f"norm urn '{_CA26}!art1' holds '!'", id="instrument-urn"),
        pytest.param("ca_72_2013.satev.json", _insert_under_art7_caput("art7!item2"),
                     "fragment 'art7!item2' holds '!'", id="new-components-fragment"),
        # An empty urn, fragment, source provision or target names no work.
        pytest.param("ca_26_2000.satev.json", _set_norm("instrument", urn=""),
                     "norm urn is empty", id="instrument-urn-empty"),
        pytest.param("constitution_1988.satdoc.json",
                     lambda data: {**data, "body": [{**data["body"][0], "fragment": ""}]},
                     "fragment is empty", id="document-fragment-empty"),
        pytest.param("ca_26_2000.satev.json", _set_first("source_provision", ""),
                     "event 0: source_provision is empty", id="source-provision-empty"),
        pytest.param("ca_26_2000.satev.json", _set_first("target", ""),
                     "event 0: target is empty", id="target-empty"),
        pytest.param("art6_original_en.satlang.json",
                     lambda data: {**data, "units": [*data["units"], *data["units"],
                                                      {"fragment": "art6_cpt",
                                                       "text": "ZZZ other text"}]},
                     "fragment 'art6_cpt' is listed twice", id="translation-repeated-fragment"),
        pytest.param("constitution_1988.satdoc.json",
                     _set_norm("norm", metadata={"title": "The Constitution"}),
                     "metadata 'title' of 'urn:lex:br:federal:constituicao:1988-10-05;1988' "
                     "overrides its own title", id="metadata-title"),
        pytest.param("ca_26_2000.satev.json", _set_norm("instrument", metadata={"short_title": "EC 26"}),
                     f"metadata 'short_title' of '{_CA26}' overrides its own short_title",
                     id="metadata-short-title"),
        # CA 64/2010 under CA 26/2000's urn, which CA 26/2000's stub already titles.
        pytest.param("ca_64_2010.satev.json", _set_norm("instrument", urn=_CA26),
                     f"instrument '{_CA26}' is titled otherwise than its work "
                     "('Constitutional Amendment no. 26, of February 14, 2000', "
                     "short title 'CA 26/2000')", id="instrument-titled-otherwise"),
    ])
    def test_it_exits_3_naming_the_file_and_writes_no_snapshot(
            self, tmp_path, capsys, name, edit, reason):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        _edit_json(corpus / name, edit)
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: MalformedInput: {corpus / name}: {reason}")
        assert not out.exists()


_NORM = "urn:lex:br:federal:constituicao:1988-10-05;1988"


def _same_day_file(short_title: str, event: dict) -> dict:
    """An event file of the instrument ``short_title`` names, its one event effective 2003-06-01."""
    return {"format_version": 1,
            "instrument": {"urn": f"urn:test:act:{short_title}", "title": f"Act {short_title}",
                           "short_title": short_title, "publication_date": "2003-06-01"},
            "events": [{"effective_date": "2003-06-01", **event}]}


def _amend(fragment: str) -> dict:
    return {"action_type": "amendment", "target": f"{_NORM}!{fragment}",
            "new_text": {"pt": f"{fragment} as amended."}}


def _insert(host: str, component: dict) -> dict:
    return {"action_type": "amendment", "target": f"{_NORM}!{host}", "new_components": [component]}


def _paragraph(fragment: str) -> dict:
    return {"fragment": fragment, "type": "paragraph", "text": f"{fragment} inserted."}


# Two events of one day, each in its own event file, whose outcome the file
# names must not decide, and the error class the corpus is rejected with
# (None: it ingests).
_SAME_DAY_PAIRS = {
    "caput-and-its-item": (("CAP 2003", _amend("art7_cpt")), ("ITEM 2003", _amend("art7_item1")),
                           None),
    # The caput's action has the smaller id; art7 is not open beneath its repeal.
    "repeal-and-amend-beneath": (("REP 2003", {"action_type": "repeal", "target": f"{_NORM}!art7"}),
                                 ("CAP 2003", _amend("art7_cpt")), "NoOpenVersion"),
    "two-insertions-under-one-article": (("P9 2003", _insert("art7", _paragraph("art7_par9"))),
                                         ("P8 2003", _insert("art7", _paragraph("art7_par8"))),
                                         None),
    # Art. 99 is inserted that day, so it is no target yet.
    "insertion-under-an-insertion": (
        ("ART 2003", _insert("tit2", {"fragment": "art99", "type": "article", "children": [
            {"fragment": "art99_cpt", "type": "caput", "text": "Art. 99 inserted."}]})),
        ("PAR 2003", _insert("art99", _paragraph("art99_par1"))), "UnknownTarget"),
    # One action id twice, and the second event would fail on its own: Art. 7 bears no text.
    "one-action-id-twice": (("X 2003", _insert("art7", _paragraph("art7_par9"))),
                            ("X 2003", _amend("art7")), "MalformedInput"),
}


class TestSameDayEvents:
    """A day's events are applied in action id order, so the names of their files do not count."""

    @pytest.mark.parametrize("case", list(_SAME_DAY_PAIRS))
    def test_a_same_day_pair_gives_one_outcome_under_either_file_naming(
            self, tmp_path, capsys, case):
        first, second, error = _SAME_DAY_PAIRS[case]
        outcomes = []
        for naming in (("aa", "zz"), ("zz", "aa")):
            corpus = tmp_path / "_".join(naming)
            assert main(["fixture", "--out", str(corpus)]) == 0
            for prefix, (short_title, event) in zip(naming, (first, second)):
                name = f"{prefix}_{short_title.split()[0].lower()}.satev.json"
                (corpus / name).write_text(json.dumps(_same_day_file(short_title, event)),
                                           encoding="utf-8")
            out = tmp_path / f"{corpus.name}.ndjson"
            capsys.readouterr()
            # A ReplayFault is no DataError: it would escape main, not exit 3.
            code = main(["ingest", str(corpus), "--out", str(out)])
            err = capsys.readouterr().err
            outcomes.append((code, out.read_bytes() if code == 0 else err.split(":")[1].strip()))
            assert (code == 0) == (error is None) and out.exists() == (code == 0), err
        assert outcomes[0] == outcomes[1]
        if error is not None:
            assert outcomes[0] == (3, error)

    def test_two_insertions_under_one_article_take_ordinals_in_id_order(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["fixture", "--out", str(corpus)]) == 0
        (first, second, _) = _SAME_DAY_PAIRS["two-insertions-under-one-article"]
        for name, (short_title, event) in (("a", first), ("b", second)):
            (corpus / f"{name}.satev.json").write_text(
                json.dumps(_same_day_file(short_title, event)), encoding="utf-8")
        out = tmp_path / "x.ndjson"
        assert main(["ingest", str(corpus), "--out", str(out)]) == 0
        art7 = store_mod.load(out).children[f"{_NORM}!art7"]
        # act:p8-2003:… sorts before act:p9-2003:…, though P9's file sorts first.
        assert art7 == [f"{_NORM}!art7_cpt", f"{_NORM}!art7_par8", f"{_NORM}!art7_par9"]


class TestQueryValues:
    @pytest.mark.parametrize("flags", [
        ["--aspects", "bogus"],
        ["--aspects", "content,bogus"],
        ["--k", "0"],
        ["--k", "-3"],
    ], ids=["aspect", "second-aspect", "k-zero", "k-negative"])
    def test_a_bad_aspect_or_k_is_a_query_error(self, snapshot_file, capsys, flags):
        code = main(["query", "retrieve", "--snapshot", str(snapshot_file),
                     "--text", "food", "--target", "art6", *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: MalformedQuery: ")

    @pytest.mark.parametrize("key, value", [
        ("membership", "bogus"), ("policy", "bogus"), ("k", 0), ("k", "x"), ("k", True),
        pytest.param("between", ["2010-01-01", "2011-01-01", "2012-01-01"],
                     id="between-three-dates"),
        ("target", 5), ("theme", 5), ("term", 5), ("text", 5), ("lang", 5), ("aspects", 5),
        ("language_fallback", "false"), ("language_fallback", None),
        ("include_future_actions", 1)])
    def test_a_bad_truth_query_value_is_a_query_error(
            self, snapshot_file, corpus_dir, tmp_path, capsys, key, value):
        truth = tmp_path / "bad.sattruth.json"
        truth.write_text((corpus_dir / "reference.sattruth.json").read_text(encoding="utf-8"))
        _edit_json(truth, lambda data: {**data, "queries": [
            {**q, "query": {**q["query"], key: value}} for q in data["queries"]]})
        code = main(["eval", "--snapshot", str(snapshot_file), "--truth", str(truth)])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: MalformedQuery: ")


class TestQueryDates:
    @pytest.mark.parametrize("argv", [
        ["at", "--target", "art6", "--at", "2010-13-01"],
        ["at", "--target", "art6", "--at", "20100101"],
        ["impact", "--target", "art6", "--between", "2012-01-01", "2010-01-01"],
        ["impact", "--target", "art6", "--between", "2010-01-01", "2012-W01-1"],
        ["at", "--target", "art6", "--clock", "2024-1-2"],
    ])
    def test_a_bad_date_is_a_query_error(self, snapshot_file, capsys, argv):
        code = main(["query", argv[0], "--snapshot", str(snapshot_file), *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: MalformedQuery: ")

    def test_a_bad_eval_clock_is_a_query_error(self, snapshot_file, corpus_dir, capsys):
        code = main(["eval", "--snapshot", str(snapshot_file),
                     "--truth", str(corpus_dir / "reference.sattruth.json"),
                     "--clock", "20240102"])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: MalformedQuery: ")


class TestQueryCommand:
    def test_a_query_with_neither_entry_nor_text_exits_2(self, snapshot_file, capsys):
        code = main(["query", "retrieve", "--snapshot", str(snapshot_file),
                     "--text", "", "--at", "2010-01-01"])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: UnplannableQuery: ")

    def test_point_in_time_discloses_policies(self, snapshot_file, capsys):
        code = main(["query", "at", "--snapshot", str(snapshot_file),
                     "--target", "art6", "--between", "1999-01-01", "1999-12-31"])
        assert code == 0
        out = capsys.readouterr().out
        assert "education" in out
        assert "housing" not in out
        assert "policy: SnapshotLast" in out

    def test_provenance_json_annex(self, snapshot_file, capsys):
        code = main(["query", "provenance", "--snapshot", str(snapshot_file),
                     "--term", "food", "--target", "art6", "--json",
                     "--clock", "2024-01-02"])
        assert code == 0
        annex = json.loads(capsys.readouterr().out)
        assert annex["chains"] == [[
            "act:ca-26-2000:art6-cpt:2000-02-15",
            "act:ca-64-2010:art6-cpt:2010-02-04"]]

    def test_default_temporal_scope_is_the_clock(self, snapshot_file, capsys):
        code = main(["query", "at", "--snapshot", str(snapshot_file),
                     "--target", "art6", "--clock", "2024-01-01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "as of 2024-01-01" in out
        assert "transportation" in out  # current text includes CA 90

    def test_query_error_exit_code(self, snapshot_file, capsys):
        code = main(["query", "at", "--snapshot", str(snapshot_file),
                     "--target", "art6", "--at", "1980-01-01"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("query error: NotYetEnacted: ") and "not yet enacted" in err

    def test_query_error_json_record(self, snapshot_file, capsys):
        code = main(["query", "at", "--snapshot", str(snapshot_file),
                     "--target", "art6", "--at", "1980-01-01", "--json"])
        assert code == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "NotYetEnacted"
        assert record["error"]["at"] == "1980-01-01"

    def test_missing_snapshot_is_a_data_error(self, tmp_path):
        code = main(["query", "at", "--snapshot", str(tmp_path / "none.ndjson"),
                     "--target", "art6", "--at", "1999-06-01"])
        assert code == 3

    def test_impact_command(self, snapshot_file, capsys):
        code = main(["query", "impact", "--snapshot", str(snapshot_file),
                     "--target", "tit2_cap2",
                     "--between", "2010-01-01", "2019-12-31"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Impact dates: 2010-02-04, 2013-04-02, 2015-09-15" in out

    def test_retrieve_command_lexical(self, snapshot_file, capsys):
        code = main(["query", "retrieve", "--snapshot", str(snapshot_file),
                     "--text", "housing", "--target", "art6",
                     "--at", "2005-06-01", "--mode", "lexical"])
        assert code == 0
        assert "housing" in capsys.readouterr().out

    def test_env_var_supplies_snapshot_path(self, snapshot_file, capsys, monkeypatch):
        monkeypatch.setenv("NORMGRAPH_SNAPSHOT", str(snapshot_file))
        code = main(["query", "at", "--target", "art6", "--at", "1999-06-01"])
        assert code == 0


class TestEvalCommand:
    def test_fixture_truth_all_metrics_pass(self, snapshot_file, corpus_dir, capsys):
        code = main(["eval", "--snapshot", str(snapshot_file),
                     "--truth", str(corpus_dir / "reference.sattruth.json"),
                     "--min", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("1.000") == 5

    def test_threshold_failure_exit_code(self, snapshot_file, corpus_dir, tmp_path):
        truth = json.loads(
            (corpus_dir / "reference.sattruth.json").read_text(encoding="utf-8"))
        truth["queries"][0]["expected_ctvs"] = ["urn:wrong@1979-01-01"]
        path = tmp_path / "bad.sattruth.json"
        path.write_text(json.dumps(truth), encoding="utf-8")
        assert main(["eval", "--snapshot", str(snapshot_file),
                     "--truth", str(path), "--min", "1.0"]) == 4

    def test_missing_truth_file_is_a_data_error(self, snapshot_file, tmp_path):
        assert main(["eval", "--snapshot", str(snapshot_file),
                     "--truth", str(tmp_path / "none.sattruth.json")]) == 3

    def test_report_written(self, snapshot_file, corpus_dir, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", "--snapshot", str(snapshot_file),
                     "--truth", str(corpus_dir / "reference.sattruth.json"),
                     "--report", str(report)]) == 0
        metrics = json.loads(report.read_text(encoding="utf-8"))
        assert metrics["action_attribution_f1"] == 1.0


class TestDeterminism:
    def test_json_output_byte_identical_across_runs(self, snapshot_file, capsys):
        args = ["query", "impact", "--snapshot", str(snapshot_file),
                "--target", "tit2_cap2", "--between", "2010-01-01", "2019-12-31",
                "--json", "--clock", "2024-01-02"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_repeated_ingest_byte_identical(self, corpus_dir, tmp_path):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        assert main(["ingest", str(corpus_dir), "--out", str(a)]) == 0
        assert main(["ingest", str(corpus_dir), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# The sha256 of each golden annex in annex format 1: sorted keys, indent=2, non-ASCII kept.
_FORMAT_1_DIGESTS = {
    "golden_provenance_annex.json":
        "8525a3678a89f212b9cf40c39d4559b55277caeeae38a7a75d9e4bb49cc975cd",
    "golden_retrieve_lexical_annex.json":
        "7ebe9f6ddc725910b4970a9be460ac0f65d3de698e0499158d4df2cdd9c0847d",
    "golden_retrieve_vector_annex.json":
        "16d5795e9140f3b43e4f7e6d6defab1dc724043fad5066c05c5a4b18f4b6ba1d",
}


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


class TestAnnexEncoding:
    @pytest.mark.parametrize("name", sorted(_FORMAT_1_DIGESTS))
    def test_a_golden_annex_is_its_format_1_annex_encoded_compactly(self, name):
        text = (GOLDEN.parent / name).read_text(encoding="utf-8")
        annex = json.loads(text)
        assert annex["format_version"] == 2
        assert text == _compact(annex)
        annex["format_version"] = 1
        format_1 = json.dumps(annex, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(format_1.encode("utf-8")).hexdigest() == _FORMAT_1_DIGESTS[name]

    @pytest.mark.parametrize("command, code", [
        (["at", "--target", "art6", "--at", "2011-01-01"], 0),
        (["impact", "--target", "tit2_cap2", "--between", "2010-01-01", "2019-12-31"], 0),
        (["provenance", "--target", "art6", "--term", "food"], 0),
        (["retrieve", "--text", "food security", "--target", "art6", "--at", "2011-01-01"], 0),
        (["at", "--target", "artigo 6º", "--at", "2011-01-01"], 2),
    ], ids=["at", "impact", "provenance", "retrieve", "error"])
    def test_every_json_output_is_the_compact_encoding_of_its_parse(self, capsys, command, code):
        assert main(["query", *command, "--snapshot", str(GOLDEN), "--json",
                     "--clock", "2024-01-02"]) == code
        out = capsys.readouterr().out
        assert out == _compact(json.loads(out))
        assert ("error" in json.loads(out)) == bool(code)


class TestFixtureCommand:
    def test_fixture_writer_lists_files(self, tmp_path, capsys):
        assert main(["fixture", "--out", str(tmp_path / "f")]) == 0
        out = capsys.readouterr().out
        assert "constitution_1988.satdoc.json" in out


class TestMoreEdges:
    def test_eval_with_corrupted_snapshot_fails(self, corpus_dir, tmp_path):
        snap = tmp_path / "corrupt.ndjson"
        snap.write_text("this is not a snapshot\n", encoding="utf-8")
        code = main(["eval", "--snapshot", str(snap),
                     "--truth", str(corpus_dir / "reference.sattruth.json"),
                     "--min", "1.0"])
        assert code == 3

    def test_snapshot_first_policy_evaluates_at_window_start(self, snapshot_file, capsys):
        code = main(["query", "at", "--snapshot", str(snapshot_file),
                     "--target", "art6", "--between", "2000-01-01", "2000-12-31",
                     "--policy", "snapshot-first"])
        assert code == 0
        out = capsys.readouterr().out
        assert "as of 2000-01-01" in out
        assert "housing" not in out  # CA 26 only lands on 2000-02-15
        assert "policy: SnapshotFirst" in out

    def test_no_fallback_flag_flows_through(self, snapshot_file, capsys):
        code = main(["query", "at", "--snapshot", str(snapshot_file),
                     "--target", "art7", "--at", "2014-01-01",
                     "--lang", "en", "--no-fallback"])
        assert code == 2  # MissingLanguage: art7 has no English wording

    @pytest.mark.parametrize("flag", [False, True])
    def test_include_future_actions_flag_reaches_the_request(
            self, snapshot_file, monkeypatch, flag):
        from normgraph import planner

        requests = []

        def recording_search(store, request):
            requests.append(request)
            return real_search(store, request)

        real_search = planner.scoped_search
        monkeypatch.setattr(planner, "scoped_search", recording_search)
        argv = ["query", "retrieve", "--snapshot", str(snapshot_file),
                "--text", "food", "--target", "art6", "--at", "2001-01-01",
                "--aspects", "content,action_description"]
        if flag:
            argv.append("--include-future-actions")
        assert main(argv) == 0
        assert [r.include_future_actions for r in requests] == [flag]

    def test_provenance_without_fallback_cites_no_other_language(self, snapshot_file, capsys):
        base = ["query", "provenance", "--snapshot", str(snapshot_file), "--target", "art6",
                "--lang", "en", "--clock", "2024-01-02", "--json"]
        # "food" is only in the Portuguese wording added after 1988.
        assert main(base + ["--term", "food"]) == 0
        cited = [c["clv"] for c in json.loads(capsys.readouterr().out)["citations"]]
        assert cited and all(clv.endswith("#pt") for clv in cited)
        assert main(base + ["--term", "food", "--no-fallback"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "TermNotFound"
        # The 1988 English wording has "education"; later versions have none.
        assert main(base + ["--term", "education", "--no-fallback"]) == 0
        annex = json.loads(capsys.readouterr().out)
        cited = [c["clv"] for c in annex["citations"]]
        assert cited and all(clv.endswith("#en") for clv in cited)
        assert annex["policies"]["language_fallback"] is False

    def test_query_on_a_unit_line_with_an_embedding_exits_3(
            self, snapshot_file, tmp_path, capsys):
        # A unit record carrying version 3's embeddings, which are derived now.
        lines = snapshot_file.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "unit")
        record = json.loads(lines[index])
        record["embedding"] = [18, 0.6, 24, 0.8]
        lines[index] = json.dumps(record)
        bad = tmp_path / "embedded.ndjson"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["query", "retrieve", "--snapshot", str(bad), "--text", "food",
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert (f":{index + 1}: bad 'unit' record: its members must be kind, columns"
                in capsys.readouterr().err)

    # The header and first record of each older layout.
    _V1_V2_WORK = {"aliases": [], "component_type": "other", "id": "urn:n", "kind": "work",
                   "metadata": {}, "ordinal": 0, "parent": None, "work_kind": "norm"}
    _V3_WORK = {"kind": "work", "row": ["urn:n", [], "norm", "other", None, 0, {}]}

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_query_on_an_older_snapshot_exits_3_and_asks_for_a_reingest(
            self, snapshot_file, tmp_path, capsys, version):
        # Versions 1 and 2 sort keys and key records by name; version 3 has
        # positional rows and stores the embedding config and IDF statistics;
        # version 4 has no row counts in its header; versions 4 and 5 hold
        # one node's row per line; versions 4 to 7 store a ctv record, and
        # versions 4 to 6 each CTV's aggregates in it; versions 4 to 8 store
        # each theme's description unit and each unit's aspect, owner and
        # language; versions 4 to 9 store each work's kind, each action's
        # instrument titles and each theme's id; versions 4 to 10 store the
        # works each action terminates and produces, and no inserts flag.
        header = {"kind": "meta", "format_version": version,
                  "embedding": {"dimension": 256, "name": "hashed_tfidf"},
                  "idf": {"avgdl": 1.0, "df": {"food": 1}, "n_units": 1}}
        if version >= 4:
            header = json.loads(snapshot_file.read_text(encoding="utf-8").splitlines()[0])
            header["format_version"] = version
            header["columns"]["action"] = [
                "id", "action_type", "enactment_date", "effective_date", "source_provision",
                "terminates", "produces", "targets", "effect", "instrument"]
        if 4 <= version < 10:
            header["columns"]["work"].insert(2, "work_kind")
            header["columns"]["action"] += ["instrument_title", "instrument_short"]
            header["columns"]["theme"] = ["id", "label", "members"]
            if version < 9:
                header["columns"]["theme"].insert(2, "description_unit")
                header["columns"]["unit"] = ["id", "aspect", "owner", "language", "text",
                                             "synthetic"]
            if version < 8:
                header["columns"]["ctv"] = ["work", "valid_start", "valid_end"]
                header["rows"]["ctv"] = 29
            if version < 7:
                header["columns"]["ctv"].append("aggregates")
            if version == 4:
                del header["rows"]
        work = self._V1_V2_WORK if version < 3 else self._V3_WORK
        old = tmp_path / f"v{version}.ndjson"
        old.write_text(f"{json.dumps(header)}\n{json.dumps(work)}\n", encoding="utf-8")
        code = main(["query", "at", "--snapshot", str(old), "--target", "art6",
                     "--at", "2011-01-01"])
        assert code == 3
        err = capsys.readouterr().err
        assert f":1: unsupported format_version {version} (this version reads 11)" in err
        assert "re-run `normgraph ingest`" in err

    def test_query_on_a_snapshot_without_its_header_exits_3(
            self, snapshot_file, tmp_path, capsys):
        lines = snapshot_file.read_text(encoding="utf-8").splitlines()
        headless = tmp_path / "headless.ndjson"
        headless.write_text("\n".join(lines[1:]), encoding="utf-8")
        code = main(["query", "retrieve", "--snapshot", str(headless), "--text", "food",
                     "--target", "art6", "--at", "2011-01-01", "--mode", "lexical"])
        assert code == 3
        assert ":1: missing meta header" in capsys.readouterr().err

    @pytest.mark.parametrize("kept", [0, 1], ids=["empty", "header-only"])
    def test_query_on_a_truncated_snapshot_exits_3(self, snapshot_file, tmp_path, capsys,
                                                   kept):
        # No node is left to break an invariant: only the header's row counts
        # tell that the rest is missing.
        lines = snapshot_file.read_text(encoding="utf-8").splitlines(keepends=True)
        truncated = tmp_path / "truncated.ndjson"
        truncated.write_text("".join(lines[:kept]), encoding="utf-8")
        code = main(["query", "at", "--snapshot", str(truncated), "--target", "art6",
                     "--at", "2011-01-01", "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "MalformedSnapshot"
        assert ("the file holds no records" if kept == 0
                else "the header gives 17 work row(s), the file holds 0") in error["message"]


# Runs point-in-time, impact and provenance queries in one process, lists the
# heavy modules they loaded, then prints a vector retrieve's annex.
_LEAN_SCRIPT = """
import contextlib, io, json, sys
from normgraph.cli import main

snapshot, retrieve = sys.argv[1], json.loads(sys.argv[2])
common = ["--snapshot", snapshot, "--json", "--clock", "2024-01-02"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["query", "at", "--target", "art6", "--at", "2011-01-01", *common]) == 0
    assert main(["query", "impact", "--target", "tit2_cap2",
                 "--between", "2010-01-01", "2019-12-31", *common]) == 0
    assert main(["query", "provenance", "--term", "food", "--target", "art6", *common]) == 0
heavy = ["normgraph.ingest"]
print(json.dumps([name for name in heavy if name in sys.modules]))
assert main([*retrieve, *common]) == 0
"""


def _python(*args: str) -> str:
    src = str(Path(normgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout


# Runs every command with numpy unimportable; prints "ok" if each succeeded.
_NO_NUMPY_SCRIPT = """
import contextlib, io, sys
sys.modules["numpy"] = None  # so that "import numpy" raises ImportError
from normgraph.cli import main

corpus, out = sys.argv[1], sys.argv[2]
common = ["--snapshot", out, "--json", "--clock", "2024-01-02"]
retrieve = ["query", "retrieve", "--text", "food security", "--target", "art6",
            "--at", "2011-01-01", *common]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["ingest", corpus, "--out", out]) == 0
    assert main(["query", "at", "--target", "art6", "--at", "2011-01-01", *common]) == 0
    assert main(["query", "impact", "--target", "tit2_cap2",
                 "--between", "2010-01-01", "2019-12-31", *common]) == 0
    assert main(["query", "provenance", "--term", "food", "--target", "art6", *common]) == 0
    for mode in ("vector", "lexical", "hybrid"):
        assert main([*retrieve, "--mode", mode]) == 0
    assert main(["eval", "--snapshot", out, "--truth", corpus + "/reference.sattruth.json",
                 "--min", "1.0"]) == 0
print("ok")
"""


# Runs one command in a fresh interpreter; prints which of the modules a
# cold query has no use for it loaded.
_IMPORT_BUDGET_SCRIPT = """
import contextlib, io, json, sys
from normgraph.cli import main

answer = io.StringIO()
with contextlib.redirect_stdout(answer):
    assert main(json.loads(sys.argv[1])) == 0
unused = ["dataclasses", "inspect", "hashlib", "normgraph.evaluation", "normgraph.ingest"]
print(json.dumps([name for name in unused if name in sys.modules]))
sys.stdout.write(answer.getvalue())
"""
# A vector retrieve whose annex is pinned by the golden file.
_VECTOR_RETRIEVE = ["retrieve", "--text", "social rights of workers in the constitution",
                    "--at", "2020-01-01", "--mode", "vector", "--k", "100",
                    "--aspects", "content,action_description,metadata,theme_description"]


class TestLeanQueryPath:
    @pytest.mark.parametrize("command, loaded", [
        pytest.param(["at", "--target", "art6", "--at", "2011-01-01"], [], id="at"),
        pytest.param(["impact", "--target", "tit2_cap2", "--between", "2010-01-01", "2019-12-31"],
                     [], id="impact"),
        pytest.param(["retrieve", "--text", "food security", "--target", "art6",
                      "--at", "2011-01-01", "--mode", "lexical"], [], id="lexical-retrieve"),
        # Its first bucket imports hashlib; every embedding keeps its bits.
        pytest.param(_VECTOR_RETRIEVE, ["hashlib"], id="vector-retrieve"),
    ])
    def test_a_cold_query_imports_only_what_it_runs(self, command, loaded):
        argv = ["query", *command, "--snapshot", str(GOLDEN), "--json", "--clock", "2024-01-02"]
        imported, annex = _python("-c", _IMPORT_BUDGET_SCRIPT, json.dumps(argv)).split("\n", 1)
        assert json.loads(imported) == loaded
        assert "citations" in json.loads(annex)  # the answer follows
        if command == _VECTOR_RETRIEVE:
            assert annex.encode("utf-8") == (
                GOLDEN.parent / "golden_retrieve_vector_annex.json").read_bytes()

    def test_every_command_runs_without_numpy(self, corpus_dir, tmp_path):
        out = tmp_path / "no-numpy.ndjson"
        assert _python("-c", _NO_NUMPY_SCRIPT, str(corpus_dir), str(out)).strip() == "ok"
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_structural_queries_do_not_load_ingestion(self, snapshot_file):
        retrieve = ["query", "retrieve", "--text", "food security", "--target", "art6",
                    "--at", "2011-01-01", "--mode", "vector"]
        loaded, annex = _python("-c", _LEAN_SCRIPT, str(snapshot_file),
                                json.dumps(retrieve)).split("\n", 1)
        assert json.loads(loaded) == []
        assert json.loads(annex)["citations"]
        fresh = _python("-m", "normgraph.cli", *retrieve, "--snapshot", str(snapshot_file),
                        "--json", "--clock", "2024-01-02")
        assert annex == fresh

    @pytest.mark.parametrize("mode", ["vector", "lexical", "hybrid"])
    def test_a_cold_retrieve_answers_as_the_ingested_store(
            self, fixture_store, snapshot_file, monkeypatch, capsys, mode):
        # The child derives every statistic and embedding from the snapshot's
        # text; this process answers from the store that ingest committed.
        retrieve = ["query", "retrieve", "--text", "social rights housing food",
                    "--at", "2016-01-01", "--mode", mode, "--k", "50",
                    "--aspects", "content,action_description,metadata,theme_description",
                    "--snapshot", str(snapshot_file), "--json", "--clock", "2024-01-02"]
        monkeypatch.setattr(store_mod, "load", lambda path: fixture_store)
        assert main(retrieve) == 0
        ingested = capsys.readouterr().out
        assert json.loads(ingested)["citations"]
        assert _python("-m", "normgraph.cli", *retrieve) == ingested

    def test_the_package_resolves_its_public_names_on_first_use(self):
        loaded = _python("-c", "import sys, normgraph; "
                               "print(sorted(m for m in sys.modules if m.startswith('normgraph')))")
        assert loaded.strip() == "['normgraph']"
        for name in normgraph.__all__:
            value = getattr(normgraph, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(normgraph.__all__) <= set(dir(normgraph))
        with pytest.raises(AttributeError):
            normgraph.no_such_name
