from __future__ import annotations

import json

import pytest

from normgraph.cli import main
from normgraph.fixture_corpus import build_fixture_corpus


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
        build_fixture_corpus(corpus)
        bad = json.loads((corpus / "ca_26_2000.satev.json").read_text())
        bad["events"][0]["target"] = "urn:lex:br:federal:constituicao:1988-10-05;1988!artX"
        (corpus / "ca_26_2000.satev.json").write_text(json.dumps(bad))
        assert main(["ingest", str(corpus), "--out", str(tmp_path / "x.ndjson")]) == 3
        assert "artX" in capsys.readouterr().err


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
        assert capsys.readouterr().err.startswith("query error: ")

    def test_a_bad_eval_clock_is_a_query_error(self, snapshot_file, corpus_dir, capsys):
        code = main(["eval", "--snapshot", str(snapshot_file),
                     "--truth", str(corpus_dir / "reference.sattruth.json"),
                     "--clock", "20240102"])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: ")


class TestQueryCommand:
    def test_a_query_with_neither_entry_nor_text_exits_2(self, snapshot_file, capsys):
        code = main(["query", "retrieve", "--snapshot", str(snapshot_file),
                     "--text", "", "--at", "2010-01-01"])
        assert code == 2
        assert capsys.readouterr().err.startswith("query error: ")

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
        assert "not yet enacted" in capsys.readouterr().err

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

    def test_query_on_a_snapshot_with_a_short_embedding_exits_3(
            self, snapshot_file, tmp_path, capsys):
        lines = snapshot_file.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "unit")
        record = json.loads(lines[index])
        record["embedding"] = record["embedding"][:-1]
        lines[index] = json.dumps(record)
        bad = tmp_path / "short.ndjson"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["query", "retrieve", "--snapshot", str(bad), "--text", "food",
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert f":{index + 1}: embedding of" in capsys.readouterr().err

    def test_query_on_a_version_1_snapshot_exits_3_and_asks_for_a_reingest(
            self, snapshot_file, tmp_path, capsys):
        lines = snapshot_file.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 1
        lines[0] = json.dumps(header)
        old = tmp_path / "v1.ndjson"
        old.write_text("\n".join(lines), encoding="utf-8")
        code = main(["query", "at", "--snapshot", str(old), "--target", "art6",
                     "--at", "2011-01-01"])
        assert code == 3
        err = capsys.readouterr().err
        assert ":1: unsupported format_version 1" in err
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
