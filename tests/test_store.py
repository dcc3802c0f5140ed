from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import pytest

from normgraph.cli import main
from normgraph.errors import DanglingReference, DataError, MalformedSnapshot
from normgraph.ingest import apply_events, enact, ingest_corpus, parse_document, parse_event_file
from normgraph.model import (
    ActionNode,
    ActionType,
    Aspect,
    EMBEDDING_DIMENSION,
    LanguageVersion,
    TemporalVersion,
    WorkNode,
    _REFERENCES,
    clv_id,
    metadata_unit_id,
    replace,
    theme_id_for,
    urn_norm,
    validate_graph,
)
from normgraph.planner import QueryPattern, StructuredQuery, run
from normgraph.retrieval import (
    HashedTfidfEmbedder,
    RetrievalMode,
    RetrievalRequest,
    embedder_for_store,
    embeddings_of,
    scoped_search,
)
from normgraph import store as store_mod
from normgraph.store import GraphStore, load, pick_wording, save, tokenize
from normgraph.temporal import MembershipPolicy, TemporalScope, resolve_scope

import day_rule
import synthcorpus
from reference_ids import (
    ACT_CA26, ACT_CA64, ACT_CA72, ACT_CA90, ACT_ENACT, ART6_CPT, ART7_CPT, NORM_URN,
)
from snapshot_rows import encode, read_rows, write_rows
from test_ingest import aggregation, amendment_file, apply_file, mini_doc, versions_of

# A save of the fixture corpus in the current format; see TestGoldenSnapshot.
GOLDEN = Path(__file__).parent / "data" / "golden_fixture.ndjson"
# The golden file's column order for each kind.
COLUMNS = json.loads(GOLDEN.read_text(encoding="utf-8").splitlines()[0])["columns"]
DROP = object()


def entry_bits(store: GraphStore) -> dict[str, list[tuple[int, str]]]:
    """Each unit's embedding entries in bucket order, their values as exact hex."""
    uids = sorted(store.units)
    return {uid: [(i, v.hex()) for i, v in entries.items()]
            for uid, entries in zip(uids, embeddings_of(store, uids, embedder_for_store(store)))}


def _set(record: dict, column: str, value) -> None:
    """Set a column of a row record (see snapshot_rows)."""
    record["row"][COLUMNS[record["kind"]].index(column)] = value


def _load_rows(header: dict, rows: list[dict], tmp_path):
    return load(write_rows(tmp_path / "bad.ndjson", header, rows))


def _line_of(kind: str) -> int:
    """The file line of a kind's record: the header is line 1, then one per kind."""
    return list(COLUMNS).index(kind) + 2


class TestTokenize:
    def test_lowercases_and_splits_words(self):
        assert tokenize("Social Rights, housing!") == ["social", "rights", "housing"]

    def test_unicode_aware(self):
        assert tokenize("Educação É direito") == ["educação", "é", "direito"]

    def test_underscore_is_not_a_word_character(self):
        assert tokenize("art6_cpt") == ["art6", "cpt"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestRoundTrip:
    def test_load_save_is_identity_on_nodes(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        loaded = load(path)
        assert loaded.works == fixture_store.works
        assert loaded.ctvs == fixture_store.ctvs
        assert loaded.clvs == fixture_store.clvs
        assert loaded.actions == fixture_store.actions
        assert loaded.themes == fixture_store.themes
        assert loaded.units == fixture_store.units
        assert loaded.text_index == fixture_store.text_index

    def test_save_load_save_is_byte_identical(self, fixture_store, tmp_path):
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        save(fixture_store, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_one_record_per_kind_holds_every_node(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["meta", *COLUMNS]
        kinds = Counter(record["kind"] for record in read_rows(path)[1])
        counts = fixture_store.node_counts()
        # Every node but the temporal versions, which the actions replay.
        assert sum(kinds.values()) == sum(counts.values()) - counts["temporal_versions"]
        # Hand count: 9 norm works + 8 instrument stub works; 9 content
        # versions; enactment + 4 amendments; 1 theme; 9 content + 5 action
        # + 1 metadata + 1 theme description units.
        assert kinds == Counter(work=17, clv=9, action=5, theme=1, unit=16)
        # 9 works x 1 initial version + 4 events x (target + 4 ancestors).
        assert counts["temporal_versions"] == len(load(path).ctvs) == 29

    def test_an_empty_store_writes_a_record_of_empty_columns_per_kind(self, tmp_path):
        store = GraphStore()
        store.commit()
        path = tmp_path / "empty.ndjson"
        save(store, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [encode({"kind": kind, "columns": [[] for _ in keys]})
                             for kind, keys in COLUMNS.items()]
        assert load(path).node_counts() == store.node_counts()

    @pytest.mark.parametrize("chunk", [1, 2, 5, 16])
    def test_columns_written_in_chunks_are_the_golden_bytes(self, fixture_store, tmp_path,
                                                           monkeypatch, chunk):
        monkeypatch.setattr(store_mod, "_CHUNK", chunk)
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_indexes_are_rebuilt_not_persisted(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        assert "term_index" not in path.read_text(encoding="utf-8")
        loaded = load(path)
        assert loaded.text_index.term_index == fixture_store.text_index.term_index

    @pytest.mark.parametrize("mode", [RetrievalMode.VECTOR, RetrievalMode.HYBRID])
    def test_a_loaded_store_answers_vector_queries_as_the_committed_one(
            self, fixture_store, snapshot_path, clock, mode):
        query = StructuredQuery(QueryPattern.RETRIEVE, structural_target="tit2_cap2",
                                textual_target="housing", mode=mode,
                                temporal=TemporalScope.instant(date(2016, 1, 1)))
        answer = run(load(snapshot_path), query, clock)
        assert answer.annex_json() == run(fixture_store, query, clock).annex_json()


def _unsavable_text(store: GraphStore, monkeypatch) -> None:
    """Give the last unit, whose text save writes in its last record, a text JSON cannot encode."""
    last = max(store.units)
    monkeypatch.setitem(store.units, last, replace(store.units[last], text=object()))


def _fail(*args):
    raise OSError("device full")


class TestAtomicSave:
    """Save writes a synced sibling file and renames it over the snapshot in one step."""

    @pytest.mark.parametrize("failure", ["encode", "fsync", "replace"])
    def test_a_failed_save_leaves_the_previous_snapshot_and_no_temporary_file(
            self, fixture_store, tmp_path, monkeypatch, failure):
        path = tmp_path / "fixture.ndjson"
        save(fixture_store, path)
        before = path.read_bytes()
        store = load(GOLDEN)
        raised = OSError
        if failure == "encode":
            # Every record but the units' is written first.
            _unsavable_text(store, monkeypatch)
            raised = TypeError
        else:
            monkeypatch.setattr(os, failure, _fail)
        with pytest.raises(raised):
            save(store, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_a_failed_first_save_writes_nothing(self, tmp_path, monkeypatch):
        store = load(GOLDEN)
        _unsavable_text(store, monkeypatch)
        with pytest.raises(TypeError):
            save(store, tmp_path / "new.ndjson")
        assert os.listdir(tmp_path) == []

    def test_the_synced_sibling_replaces_the_snapshot(self, fixture_store, tmp_path, monkeypatch):
        path = tmp_path / "fixture.ndjson"
        path.write_text("old", encoding="utf-8")
        calls = []
        fsync, rename = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(("fsync",)) or fsync(fd))

        def replace_file(source, target):
            calls.append(("replace", Path(source).parent, Path(source).read_bytes(), target))
            rename(source, target)

        monkeypatch.setattr(os, "replace", replace_file)
        save(fixture_store, path)
        assert calls == [("fsync",), ("replace", tmp_path, GOLDEN.read_bytes(), path)]
        assert path.read_bytes() == GOLDEN.read_bytes()
        assert os.listdir(tmp_path) == [path.name]


class TestGoldenSnapshot:
    """The on-disk format is pinned by a committed save of the fixture corpus."""

    def test_load_then_save_reproduces_it_byte_for_byte(self, tmp_path):
        path = tmp_path / "resaved.ndjson"
        save(load(GOLDEN), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_save_after_a_vector_read_reproduces_it_byte_for_byte(self, clock, tmp_path):
        store = load(GOLDEN)
        run(store, StructuredQuery(QueryPattern.RETRIEVE, structural_target="art6",
                                   textual_target="food security", mode=RetrievalMode.VECTOR,
                                   temporal=TemporalScope.instant(date(2011, 1, 1))), clock)
        path = tmp_path / "resaved.ndjson"
        save(store, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_ingest_check_and_save_write_it(self, corpus_dir, tmp_path):
        store, _ = ingest_corpus(corpus_dir)
        assert validate_graph(store) == []
        path = tmp_path / "fixture.ndjson"
        save(store, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    # Kernels whose dot products sum in different orders; a numpy import
    # would read the variable when it loads OpenBLAS.
    @pytest.mark.parametrize("kernel", ["Haswell", "SkylakeX", "Prescott"])
    def test_ingest_writes_it_under_any_blas_kernel(self, corpus_dir, tmp_path, kernel):
        path = tmp_path / "fixture.ndjson"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "normgraph.cli", "ingest", str(corpus_dir),
                        "--out", str(path)], env=env, check=True, capture_output=True)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_its_nodes_are_those_of_an_ingest_of_the_fixture_corpus(self, fixture_store):
        golden = load(GOLDEN)
        assert validate_graph(golden) == []
        for nodes in ("works", "ctvs", "clvs", "actions", "themes", "units"):
            assert getattr(golden, nodes) == getattr(fixture_store, nodes), nodes
        assert golden.text_index == fixture_store.text_index

    def test_a_snapshot_without_its_aliases_loads_to_another_store(self, tmp_path):
        header, rows = read_rows(GOLDEN)
        for record in rows:
            if record["kind"] == "work":
                _set(record, "aliases", [])
        bare = _load_rows(header, rows, tmp_path)
        golden = load(GOLDEN)
        assert len(golden.alias_index) == 7 and bare.alias_index == {}
        assert bare.works != golden.works
        assert bare != golden

    # No snapshot byte comes from float arithmetic, so none depends on the
    # platform's math.log or on how a float is printed.
    @pytest.mark.parametrize("seed", [None, 1, 9, 18, 23, 31],
                             ids=["golden", "seed1", "seed9", "seed18", "seed23", "seed31"])
    def test_no_line_holds_a_float(self, tmp_path, seed):
        path = GOLDEN
        if seed is not None:
            store = synthcorpus.build_store(synthcorpus.generate_corpus(seed))
            store.commit()
            path = tmp_path / "synthetic.ndjson"
            save(store, path)

        def refuse(text: str):
            raise AssertionError(f"{path.name} holds the number {text}")

        decode = json.JSONDecoder(parse_float=refuse, parse_constant=refuse).decode
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 1
        for line in lines:
            decode(line)


class TestLoad:
    def test_fixture_snapshot_contents(self, snapshot_path):
        store = load(snapshot_path)
        assert store.works[NORM_URN].parent is None
        assert len(versions_of(store, ART6_CPT)) == 4

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank-lines"])
    def test_a_file_with_no_records_is_rejected(self, tmp_path, text):
        path = tmp_path / "empty.ndjson"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedSnapshot, match="missing meta header: the file holds no "
                                                    "records") as exc:
            load(path)
        assert exc.value.line is None

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"kind": "work"\nnot json', encoding="utf-8")
        with pytest.raises(MalformedSnapshot) as exc:
            load(path)
        assert ":1:" in str(exc.value) or ":1" in str(exc.value)

    @pytest.mark.parametrize("text, reason", [
        ('{"kind": "work"} {}', "Extra data"),
        ('{"kind": "work"},', "Extra data"),
        (",", "Expecting value"),
    ])
    def test_a_line_that_is_not_one_json_value(self, snapshot_path, tmp_path, text, reason):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        lines[1] = text
        with pytest.raises(MalformedSnapshot, match=f"invalid JSON \\({reason}\\)") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == 2

    def test_a_byte_that_is_not_utf8_is_a_malformed_snapshot_naming_its_line(self, tmp_path,
                                                                             capsys):
        """The reader decodes the file ahead of the line it hands out, so a bad
        byte in the third line is met while the first is read; the error still
        names the byte's own line."""
        lines = GOLDEN.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(COLUMNS)
        path = tmp_path / "bad.ndjson"
        for at, line in enumerate(lines):
            middle = len(line) // 2
            path.write_bytes(b"".join(
                lines[:at] + [line[:middle] + b"\xff" + line[middle + 1:]] + lines[at + 1:]))
            with pytest.raises(MalformedSnapshot, match="invalid UTF-8") as exc:
                load(path)
            assert exc.value.line == at + 1
        code = main(["query", "at", "--snapshot", str(path), "--target", "art6",
                     "--at", "2011-01-01", "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "MalformedSnapshot"
        assert f"{path}:{len(lines)}: invalid UTF-8" in error["message"]

    def test_a_work_fact_without_its_metadata_unit_exits_3(self, snapshot_path, tmp_path, capsys):
        """Loaded, the work's facts could not be retrieved, and other works' would rank first."""
        unit_id = metadata_unit_id(NORM_URN, "publication_date")
        header, records = read_rows(snapshot_path)
        at = next(i for i, r in enumerate(records) if r["kind"] == "unit" and r["row"][0] == unit_id)
        del records[at]
        with pytest.raises(MalformedSnapshot, match="the first is MissingMetadataUnit: "
                                                    "metadata key 'publication_date'"):
            _load_rows(header, records, tmp_path)
        code = main(["query", "retrieve", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--text", "published", "--mode", "lexical", "--aspects", "metadata",
                     "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "MalformedSnapshot"
        assert f"[{NORM_URN}, {unit_id}]" in error["message"]

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"kind": "mystery"}', encoding="utf-8")
        with pytest.raises(MalformedSnapshot):
            load(path)


def _load_lines(lines, tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text("\n".join(lines), encoding="utf-8")
    return load(path)


class TestMetaHeader:
    """Every snapshot with records starts with exactly one meta header."""

    def test_missing_header(self, snapshot_path, tmp_path):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        with pytest.raises(MalformedSnapshot, match="missing meta header") as exc:
            _load_lines(lines[1:], tmp_path)
        assert exc.value.line == 1

    def test_late_header(self, snapshot_path, tmp_path):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        with pytest.raises(MalformedSnapshot, match="missing meta header") as exc:
            _load_lines([lines[1], lines[0]] + lines[2:], tmp_path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("where", ["next", "after_units"])
    def test_second_header(self, snapshot_path, tmp_path, where):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        at = 1 if where == "next" else len(lines)
        lines.insert(at, lines[0])
        with pytest.raises(MalformedSnapshot, match="second meta header") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == at + 1

    def test_record_that_is_not_an_object(self, snapshot_path, tmp_path):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        lines[2] = "[1, 2]"
        with pytest.raises(MalformedSnapshot, match="not a JSON object") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("version", [1, 2, 3.0, "3", 4, None])
    def test_another_version_is_rejected_with_a_reingest_hint(
            self, snapshot_path, tmp_path, version):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["format_version"] = version
        lines[0] = json.dumps(header)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == 1
        assert f"unsupported format_version {version!r}" in str(exc.value)
        assert "re-run `normgraph ingest`" in str(exc.value)

    def test_a_second_record_of_a_kind_is_rejected(self, snapshot_path, tmp_path):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        at = _line_of("theme")
        lines.append(lines[at - 1])
        with pytest.raises(MalformedSnapshot, match="second 'theme' record") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == len(lines)

    def test_a_kind_without_its_record_is_rejected(self, tmp_path):
        # No count can tell that an empty kind's record is missing.
        store = GraphStore()
        store.commit()
        save(store, tmp_path / "empty.ndjson")
        lines = (tmp_path / "empty.ndjson").read_text(encoding="utf-8").splitlines()
        del lines[_line_of("theme") - 1]
        with pytest.raises(MalformedSnapshot, match="the file holds no 'theme' record") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line is None


def _seed1_snapshot(tmp_path) -> Path:
    store = synthcorpus.build_store(synthcorpus.generate_corpus(1))
    store.commit()
    path = tmp_path / "seed1.ndjson"
    save(store, path)
    return path


class TestWholeOrRejected:
    """A snapshot that lost any of its rows, values or bytes does not load: the
    header's row counts tell what no invariant can, such as a stub work that
    nothing references, and each kind's columns must be of one length."""

    @staticmethod
    def _snapshot(which: str, tmp_path) -> list[str]:
        path = GOLDEN if which == "golden" else _seed1_snapshot(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 1 + len(COLUMNS)
        return lines

    @staticmethod
    def _rejected(text: str, tmp_path, match: str | None = None) -> None:
        path = tmp_path / "cut.ndjson"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=match):
            load(path)

    def _each_record_edit(self, lines: list[str], tmp_path, edit, kind: str | None = None,
                          match: str | None = None) -> int:
        """Load the snapshot with each record (of ``kind``, if given) replaced by each
        columns ``edit`` yields, and expect a DataError matching ``match``; count the edits."""
        edits = 0
        for at in range(1, len(lines)):
            record = json.loads(lines[at])
            if kind not in (None, record["kind"]):
                continue
            for columns in edit(record["columns"]):
                changed = encode({"kind": record["kind"], "columns": columns}) + "\n"
                self._rejected("".join(lines[:at] + [changed] + lines[at + 1:]), tmp_path, match)
                edits += 1
        return edits

    @pytest.mark.parametrize("which", ["golden", "seed1"])
    def test_every_single_line_deletion_is_rejected(self, tmp_path, which):
        lines = self._snapshot(which, tmp_path)
        for at in range(len(lines)):
            self._rejected("".join(lines[:at] + lines[at + 1:]), tmp_path)

    @pytest.mark.parametrize("which", ["golden", "seed1"])
    def test_every_single_row_deletion_is_rejected(self, tmp_path, which):
        def without_each_row(columns):
            for row in range(len(columns[0])):
                yield [values[:row] + values[row + 1:] for values in columns]

        deleted = self._each_record_edit(self._snapshot(which, tmp_path), tmp_path,
                                         without_each_row)
        assert deleted == {"golden": 48, "seed1": 82}[which]

    @pytest.mark.parametrize("which", ["golden", "seed1"])
    def test_every_value_removed_from_one_column_is_rejected(self, tmp_path, which):
        def one_column_short(columns):
            for at, values in enumerate(columns):
                for row in range(len(values)):
                    yield [*columns[:at], values[:row] + values[row + 1:], *columns[at + 1:]]

        self._each_record_edit(self._snapshot(which, tmp_path), tmp_path, one_column_short)

    @pytest.mark.parametrize("which", ["golden", "seed1"])
    def test_every_line_boundary_truncation_is_rejected(self, tmp_path, which):
        lines = self._snapshot(which, tmp_path)
        for kept in range(len(lines)):
            self._rejected("".join(lines[:kept]), tmp_path)
        # The whole file, with or without its last newline, loads.
        for text in ("".join(lines), "".join(lines).rstrip("\n")):
            (tmp_path / "whole.ndjson").write_text(text, encoding="utf-8")
            assert load(tmp_path / "whole.ndjson").committed

    @pytest.mark.parametrize("which", ["golden", "seed1"])
    def test_every_cut_inside_a_kind_record_is_rejected(self, tmp_path, which):
        lines = self._snapshot(which, tmp_path)
        for at in range(1, len(lines)):
            line = lines[at]
            record = json.loads(line)
            # Cut where each column starts, halfway through it and where it
            # ends, and just before the record's closing brace.
            cuts = {len(line) - 2}
            start = len(encode({"kind": record["kind"], "columns": []})) - 2
            for values in record["columns"]:
                end = start + len(encode(values))
                assert line[end] in ",]"
                cuts.update({start, (start + end) // 2, end})
                start = end + 1
            for cut in sorted(cuts):
                self._rejected("".join(lines[:at]) + line[:cut], tmp_path)

    def test_a_unit_no_node_names_is_rejected(self, tmp_path):
        header, rows = read_rows(GOLDEN)
        # A metadata unit of the norm for a fact its metadata does not hold.
        stray = f"tu:{NORM_URN}:meta:zzz"
        unit = {"kind": "unit", "row": [stray, "The capital of the republic is Atlantis.", False]}
        header["rows"]["unit"] += 1
        with pytest.raises(MalformedSnapshot, match=re.escape(
                f"UnnamedUnit: unit is named by no node [{stray}]")):
            _load_rows(header, [*rows, unit], tmp_path)

    def test_a_version_that_loses_its_primary_wording_exits_3(self, tmp_path, capsys):
        # Art. 7's caput as CA 72/2013 worded it, its only wording, cut with its unit: the
        # 2013 version would have no text in Portuguese, which its 1988 version has.
        header, rows = read_rows(GOLDEN)
        version = f"{NORM_URN}!art7_cpt@2013-04-02"
        clv = next(record for record in rows
                   if record["kind"] == "clv" and record["row"] == [version, "pt"])
        unit = next(record for record in rows if record["row"][0] == f"tu:{version}#pt")
        rows = [record for record in rows if record is not clv and record is not unit]
        header["rows"]["clv"] -= 1
        header["rows"]["unit"] -= 1
        with pytest.raises(MalformedSnapshot, match=re.escape(
                "1 invariant violation(s); the first is LostPrimaryWording: version lacks the "
                f"wording in its norm's language 'pt' an earlier one has [{version}]")):
            _load_rows(header, rows, tmp_path)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art7", "--at", "2020-01-01", "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "MalformedSnapshot" and "LostPrimaryWording" in error["message"]

    def test_a_missing_stub_work_is_named_with_both_counts(self, tmp_path):
        header, rows = read_rows(_seed1_snapshot(tmp_path))
        # The first work is an amending act's stub; with the instrument of each
        # action that names it cleared, no other node names it.
        stub = rows[0]["row"][0]
        assert stub.startswith("urn:test:act:")
        instrument = COLUMNS["action"].index("instrument")
        for record in rows:
            if record["kind"] == "action" and record["row"][instrument] == stub:
                record["row"][instrument] = None
        works = header["rows"]["work"]
        with pytest.raises(MalformedSnapshot, match=re.escape(
                f"the header gives {works} work row(s), the file holds {works - 1}")) as exc:
            _load_rows(header, rows[1:], tmp_path)
        assert exc.value.line is None


class TestStrictHeader:
    """The header holds exactly kind, format_version, columns and rows; anything
    else, such as the embedding and IDF blocks of version 3, is a malformed snapshot."""

    @pytest.mark.parametrize("where, key, value, reason", [
        pytest.param(None, "columns", DROP, "the header must be an object of", id="no-columns"),
        pytest.param(None, "extra", 1, "the header must be an object of", id="extra-key"),
        pytest.param(None, "embedding", {"name": "hashed_tfidf", "dimension": 256},
                     "the header must be an object of", id="v3-embedding-block"),
        pytest.param(None, "idf", {"n_units": 10 ** 400, "avgdl": 1.0, "df": {}},
                     "the header must be an object of", id="v3-idf-block"),
        pytest.param(None, "columns", [], "'columns' must list each kind's columns",
                     id="columns-list"),
        pytest.param("columns", "embedding", ["id", "entries"],
                     "'columns' must list each kind's columns", id="embedding-kind"),
        pytest.param("columns", "ctv", ["id", "work", "valid_start", "valid_end", "aggregates"],
                     "'columns' must list each kind's columns", id="ctv-stored-id"),
        pytest.param("columns", "clv", ["language", "temporal_version"],
                     "'columns' must list each kind's columns", id="clv-reordered"),
        pytest.param("columns", "unit", COLUMNS["unit"] + ["embedding"],
                     "'columns' must list each kind's columns", id="unit-embedding-column"),
        pytest.param("columns", "unit", DROP, "'columns' must list each kind's columns",
                     id="no-unit-columns"),
        pytest.param(None, "rows", DROP, "the header must be an object of", id="no-rows"),
        pytest.param(None, "rows", [17, 5, 29, 9, 1, 16], "'rows' must give each kind's row",
                     id="rows-list"),
        pytest.param("rows", "theme", DROP, "'rows' must give each kind's row",
                     id="no-theme-rows"),
        pytest.param("rows", "embedding", 16, "'rows' must give each kind's row",
                     id="embedding-rows"),
        pytest.param("rows", "clv", "9", "'rows' must give each kind's row", id="rows-string"),
        pytest.param("rows", "theme", True, "'rows' must give each kind's row", id="rows-bool"),
    ])
    def test_a_bad_header_exits_3(self, snapshot_path, tmp_path, capsys, where, key, value,
                                  reason):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        target = header[where] if where else header
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        lines[0] = json.dumps(header)
        with pytest.raises(MalformedSnapshot, match=re.escape(reason)) as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == 1
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert ":1: bad meta header: " in capsys.readouterr().err

    def test_save_writes_exactly_the_header_members(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header == {"kind": "meta", "format_version": 11, "columns": COLUMNS,
                          "rows": {"work": 17, "action": 5, "clv": 9, "theme": 1, "unit": 16}}


class TestStrictRecords:
    """A kind record holds exactly its kind and one array per column, the columns
    are of one length, and every value has an exact type."""

    @pytest.mark.parametrize("kind, key, value, reason", [
        pytest.param("work", "metadata", ["label"], "must be an object of strings",
                     id="work-metadata-list"),
        pytest.param("clv", "language", 7, "must be a string", id="clv-language-int"),
        pytest.param("work", "ordinal", "0", "must be an integer", id="work-ordinal-string"),
        pytest.param("action", "targets", "a", "must be a list of strings",
                     id="action-targets-string"),
        pytest.param("work", "ordinal", False, "must be an integer", id="work-ordinal-bool"),
        pytest.param("unit", "synthetic", 0, "must be a boolean", id="unit-synthetic-int"),
        pytest.param("action", "effective_date", "2000-02-30", "must be an ISO date",
                     id="action-bad-date"),
        pytest.param("action", "enactment_date", "20000214", "must be an ISO date",
                     id="action-compact-date"),
        pytest.param("action", "inserts", 0, "must be a boolean", id="action-inserts-int"),
        pytest.param("work", "component_type", "statute", "must be a ComponentType value",
                     id="work-unknown-component-type"),
        pytest.param("work", "metadata", {"label": 1}, "must be an object of strings",
                     id="work-metadata-int-value"),
        pytest.param("theme", "members", None, "must be a list of strings", id="theme-members-null"),
    ])
    def test_a_bad_value_is_a_malformed_snapshot_naming_its_kind_row_and_column(
            self, snapshot_path, tmp_path, capsys, kind, key, value, reason):
        header, rows = read_rows(snapshot_path)
        of_kind = [record for record in rows if record["kind"] == kind]
        # The kind's last row, so the column is walked past good values to it.
        at = len(of_kind) - 1
        _set(of_kind[at], key, value)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_rows(header, rows, tmp_path)
        line = _line_of(kind)
        assert (exc.value.line, exc.value.kind, exc.value.row, exc.value.column) == (
            line, kind, at, key)
        assert f":{line}: bad {kind!r} record, row {at}, column {key!r}: {reason}" in str(exc.value)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert f":{line}: bad {kind!r} record, row {at}, column {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key, named", [
        pytest.param("action", "targets", "targets", id="action-targets"),
        pytest.param("theme", "members", "members", id="theme-members"),
        pytest.param("action", "effective_date", "effective_date", id="action-effective_date"),
        # The first column is the one the others are held to, so the second is named.
        pytest.param("clv", "temporal_version", "language", id="clv-temporal_version"),
    ])
    def test_a_column_one_value_short_is_a_malformed_snapshot(
            self, snapshot_path, tmp_path, kind, key, named):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        line = _line_of(kind)
        record = json.loads(lines[line - 1])
        record["columns"][COLUMNS[kind].index(key)].pop()
        lines[line - 1] = encode(record)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert (exc.value.line, exc.value.kind, exc.value.row, exc.value.column) == (
            line, kind, None, named)
        held = {key: len(values) for key, values in zip(COLUMNS[kind], record["columns"])}
        first = COLUMNS[kind][0]
        assert (f"bad {kind!r} record, column {named!r}: holds {held[named]} values, "
                f"{first!r} holds {held[first]}") in str(exc.value)

    @pytest.mark.parametrize("kind, change, reason", [
        pytest.param("work", lambda r: r["columns"].append([]), "'columns' must be a list of 6 arrays",
                     id="work-extra-column"),
        pytest.param("unit", lambda r: r["columns"].pop(), "'columns' must be a list of 3 arrays",
                     id="unit-missing-column"),
        pytest.param("clv", lambda r: r.update(columns=dict(enumerate(r["columns"]))),
                     "'columns' must be a list of 2 arrays", id="clv-columns-object"),
        pytest.param("action", lambda r: r["columns"].__setitem__(5, "targets"),
                     "'columns' must be a list of 9 arrays", id="action-column-string"),
        pytest.param("action", lambda r: r.update(id="act:x"),
                     "its members must be kind, columns", id="action-extra-member"),
        pytest.param("theme", lambda r: r.pop("columns"), "its members must be kind, columns",
                     id="theme-no-columns"),
        # A version 5 line, which holds one node's row.
        pytest.param("work", lambda r: r.update(row=[values[0] for values in r.pop("columns")]),
                     "its members must be kind, columns", id="work-v5-row"),
        # A version 3 unit line, whose embedding a version 4 store derives.
        pytest.param("unit", lambda r: r.update(embedding=[18, 0.5, 24, 0.25]),
                     "its members must be kind, columns", id="unit-v3-embedding"),
    ])
    def test_a_record_of_another_shape_is_a_malformed_snapshot(
            self, snapshot_path, tmp_path, kind, change, reason):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        line = _line_of(kind)
        record = json.loads(lines[line - 1])
        change(record)
        lines[line - 1] = json.dumps(record)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert (exc.value.line, exc.value.row, exc.value.column) == (line, None, None)
        assert f":{line}: bad {kind!r} record: {reason}" in str(exc.value)

    # Repeated units: test_load_rejects_a_repeated_unit_record.
    @pytest.mark.parametrize("kind", ["work", "clv", "action", "theme"])
    def test_a_repeated_id_is_a_malformed_snapshot_naming_its_row(
            self, snapshot_path, tmp_path, kind):
        header, rows = read_rows(snapshot_path)
        at = next(i for i, record in enumerate(rows) if record["kind"] == kind)
        rows.insert(at + 1, rows[at])
        with pytest.raises(MalformedSnapshot, match=f"repeated {kind} ") as exc:
            _load_rows(header, rows, tmp_path)
        assert (exc.value.line, exc.value.kind, exc.value.row) == (_line_of(kind), kind, 1)

    def test_a_node_its_constructor_refuses_names_its_row(self, snapshot_path, tmp_path):
        header, rows = read_rows(snapshot_path)
        works = [record for record in rows if record["kind"] == "work"]
        _set(works[2], "id", "")
        with pytest.raises(MalformedSnapshot, match="work urn must be non-empty") as exc:
            _load_rows(header, rows, tmp_path)
        assert (exc.value.line, exc.value.kind, exc.value.row, exc.value.column) == (
            _line_of("work"), "work", 2, None)


class TestDerivedColumns:
    """What the nodes derive is not stored, and the action links are a store index."""

    def test_rebuilt_columns_equal_the_ingested_nodes(self, fixture_store, snapshot_path):
        loaded = load(snapshot_path)
        assert loaded.ctvs == fixture_store.ctvs
        assert loaded.clvs == fixture_store.clvs
        assert loaded.actions == fixture_store.actions
        assert loaded.produced_by == fixture_store.produced_by
        assert set(loaded.produced_by) == set(loaded.ctvs)
        assert "ctv" not in COLUMNS
        assert COLUMNS["clv"] == ["temporal_version", "language"]
        assert "description_unit" not in COLUMNS["action"]
        assert "work_kind" not in COLUMNS["work"]
        assert "instrument_title" not in COLUMNS["action"]
        assert "instrument_short" not in COLUMNS["action"]
        assert COLUMNS["theme"] == ["label", "members"]
        assert COLUMNS["unit"] == ["id", "text", "synthetic"]
        for line in snapshot_path.read_text(encoding="utf-8").splitlines()[1:]:
            record = json.loads(line)
            assert len(record["columns"]) == len(COLUMNS[record["kind"]])

    @pytest.mark.parametrize("kind", ["action", "clv"])
    def test_a_snapshot_missing_a_derived_unit_exits_3(self, fixture_store, snapshot_path,
                                                       tmp_path, capsys, kind):
        node = next(iter({"action": fixture_store.actions, "clv": fixture_store.clvs}[kind].values()))
        unit = node.description_unit if kind == "action" else node.text_unit
        header, rows = read_rows(snapshot_path)
        with pytest.raises(DanglingReference) as exc:
            _load_rows(header, [record for record in rows if record["row"][0] != unit], tmp_path)
        assert (exc.value.referrer, exc.value.missing) == (node.id, unit)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert f"references missing id {unit!r}" in capsys.readouterr().err

    def test_an_action_is_labelled_by_its_instrument_works_titles(self):
        assert load(GOLDEN).action_labels == {
            ACT_ENACT: "CF/1988", ACT_CA26: "CA 26/2000", ACT_CA64: "CA 64/2010",
            ACT_CA72: "CA 72/2013", ACT_CA90: "CA 90/2015"}
        # Without a short title the title labels it, and without an instrument its id.
        store = GraphStore()
        store.add_work(WorkNode("urn:x", (), metadata=(("title", "The X Act"),)))
        day = date(2000, 1, 1)
        store.replay([ActionNode("act:x", ActionType.ENACTMENT, day, day, targets=("urn:x",),
                                 instrument="urn:x"),
                      ActionNode("act:y", ActionType.AMENDMENT, day + timedelta(days=1),
                                 day + timedelta(days=1), targets=("urn:x",))])
        assert store.action_labels == {"act:x": "The X Act", "act:y": "act:y"}

    def test_a_parentless_work_whose_urn_holds_a_fragment_exits_3(self, tmp_path, capsys):
        # A work with no parent is a norm, so its urn names no component.
        header, rows = read_rows(GOLDEN)
        stub = f"{CA26}!art1_cpt"
        work = next(record for record in rows if record["row"][0] == stub)
        _set(work, "parent", None)
        with pytest.raises(MalformedSnapshot, match=re.escape(
                f"1 invariant violation(s); the first is UrnFormat: a parentless work's urn "
                f"holds '!' [{stub}]")):
            _load_rows(header, rows, tmp_path)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert "UrnFormat" in capsys.readouterr().err

    def test_an_instrument_that_names_no_work_exits_3(self, tmp_path, capsys):
        # An action is labelled by its instrument's work, which must exist.
        header, rows = read_rows(GOLDEN)
        action = next(record for record in rows if record["row"][0] == ACT_CA26)
        missing = "urn:lex:br:federal:emenda.constitucional:2000-02-14;27"
        _set(action, "instrument", missing)
        bad = write_rows(tmp_path / "bad.ndjson", header, rows)
        code = main(["query", "at", "--snapshot", str(bad), "--target", "art6",
                     "--at", "2011-01-01", "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["type"], error["referrer"], error["missing"]) == (
            "DanglingReference", ACT_CA26, missing)


# The instrument of CA 26/2000: a stub work, which has no version.
CA26 = "urn:lex:br:federal:emenda.constitucional:2000-02-14;26"


def _on_day(record: dict, day: str) -> None:
    """Move an action's row record to ``day``, enacted that day too."""
    for column in ("enactment_date", "effective_date"):
        _set(record, column, day)


def _inserting(record: dict, *targets: str) -> None:
    """Make an action's row record an insertion of ``targets``."""
    _set(record, "inserts", True)
    if targets:
        _set(record, "targets", list(targets))


def _a_gap(actions: dict) -> None:
    # CA 26/2000 inserts Art. 6's caput, CA 64/2010 repeals it and CA 90/2015
    # inserts it again.
    _inserting(actions[ACT_CA26])
    _set(actions[ACT_CA64], "action_type", "repeal")
    _inserting(actions[ACT_CA90])


class TestReplay:
    """The actions are the only record of the versions: load replays them,
    deriving what each closes and opens from its event and the work tree, and
    actions that do not replay are refused, naming the first at fault."""

    @pytest.mark.parametrize("edit, culprit, fault", [
        # CA 26/2000 and CA 64/2010, on CA 26/2000's day, each insert Art. 6's
        # caput, which the enactment then leaves out.
        pytest.param(lambda actions: [_on_day(actions[ACT_CA64], "2000-02-15"),
                                      _inserting(actions[ACT_CA26]),
                                      _inserting(actions[ACT_CA64])],
                     ACT_CA64, f"produces {ART6_CPT!r} on 2000-02-15, when a version of it "
                     "already starts", id="repeated-by-two-actions"),
        pytest.param(lambda actions: _set(actions[ACT_CA26], "targets", [CA26]),
                     ACT_CA26, f"terminates {CA26!r}, which has no open version on 2000-02-15",
                     id="no-open-version"),
        # CA 26/2000 made effective on the day of the enactment, whose id is larger.
        pytest.param(lambda actions: _on_day(actions[ACT_CA26], "1988-10-05"),
                     ACT_CA26, f"terminates {ART6_CPT!r}, which has no open version on "
                     "1988-10-05", id="before-the-enactment"),
        pytest.param(_a_gap, ACT_CA90,
                     f"produces {ART6_CPT!r} on 2015-09-15, but its last version ends 2010-02-04",
                     id="gap"),
        pytest.param(lambda actions: [_inserting(actions[ACT_CA26]),
                                      _inserting(actions[ACT_CA64])],
                     ACT_CA64, f"produces {ART6_CPT!r} on 2010-02-04 while its version from "
                     "2000-02-15 is open", id="still-open"),
        pytest.param(lambda actions: _on_day(actions[ACT_CA64], "2000-02-15"),
                     ACT_CA64, f"terminates {ART6_CPT!r} on 2000-02-15, but its open version "
                     "starts 2000-02-15", id="closed-on-its-first-day"),
        pytest.param(lambda actions: _set(actions[ACT_ENACT], "targets", [f"{NORM_URN}!art6"]),
                     ACT_ENACT, f"enacts '{NORM_URN}!art6', which has a parent",
                     id="enacting-a-component"),
        pytest.param(lambda actions: _inserting(actions[ACT_CA26], ART6_CPT, ART7_CPT),
                     ACT_CA26, "inserts works under more than one parent",
                     id="inserting-under-two-parents"),
    ])
    def test_actions_that_do_not_replay_are_a_malformed_snapshot_naming_the_action(
            self, tmp_path, capsys, edit, culprit, fault):
        header, rows = read_rows(GOLDEN)
        actions = {record["row"][0]: record for record in rows if record["kind"] == "action"}
        edit(actions)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_rows(header, rows, tmp_path)
        row = sorted(actions).index(culprit)
        assert (exc.value.line, exc.value.kind, exc.value.row, exc.value.column) == (
            _line_of("action"), "action", row, None)
        assert f"bad 'action' record, row {row}: action {culprit!r} {fault}" in str(exc.value)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01", "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "MalformedSnapshot" and f"action {culprit!r} {fault}" in error["message"]

    def test_an_enactment_flagged_as_inserting_is_refused_as_its_row(self, tmp_path):
        header, rows = read_rows(GOLDEN)
        actions = {record["row"][0]: record for record in rows if record["kind"] == "action"}
        _inserting(actions[ACT_ENACT])
        with pytest.raises(MalformedSnapshot, match=re.escape(
                f"row {sorted(actions).index(ACT_ENACT)}: only an amendment inserts, not this "
                "enactment")):
            _load_rows(header, rows, tmp_path)

    # Each second action is a year after the good one, unless it says otherwise.
    @pytest.mark.parametrize("second, fault", [
        pytest.param({"targets": ("urn:x!y",), "inserts": True,
                      "effective_date": date(2001, 1, 1)},
                     "when a version of it already starts", id="repeated"),
        pytest.param({"action_type": ActionType.REPEAL, "targets": ("urn:z",)},
                     "which has no open version", id="no-open-version"),
        pytest.param({"action_type": ActionType.ENACTMENT},
                     "while its version from 2001-01-01 is open", id="still-open"),
        pytest.param({"targets": ("urn:x!y",), "effective_date": date(2001, 1, 1)},
                     "but its open version starts 2001-01-01", id="closed-on-its-first-day"),
        pytest.param({"id": "act:1"}, "is already filed", id="repeated-id"),
    ])
    def test_a_batch_that_does_not_replay_files_nothing(self, second, fault):
        store = GraphStore()
        for work in (WorkNode("urn:x", ()), WorkNode("urn:x!y", (), parent="urn:x"),
                     WorkNode("urn:z", ())):
            store.add_work(work)
        day = date(2000, 1, 1)
        store.replay([ActionNode("act:0", ActionType.ENACTMENT, day, day, targets=("urn:x",))])

        def state():
            return (dict(store.actions), dict(store.ctvs), copy.deepcopy(store.versions),
                    copy.deepcopy(store.version_starts), dict(store.produced_by))

        before = state()
        later = date(2001, 1, 1)
        # A good action, which amends urn:x!y and rolls urn:x, then the faulty one.
        good = ActionNode("act:1", ActionType.AMENDMENT, later, later, targets=("urn:x!y",))
        after = date(2002, 1, 1)
        bad = replace(ActionNode("act:2", ActionType.AMENDMENT, later, after,
                                 targets=("urn:x",)), **second)
        with pytest.raises(ValueError, match=re.escape(fault)):
            store.replay([good, bad])
        assert state() == before
        store.replay([good])
        assert store.versions == {"urn:x": ["urn:x@2000-01-01", "urn:x@2001-01-01"],
                                  "urn:x!y": ["urn:x!y@2000-01-01", "urn:x!y@2001-01-01"]}
        assert store.ctvs["urn:x@2000-01-01"].valid_end == later
        assert store.produced_by == {"urn:x@2000-01-01": "act:0", "urn:x!y@2000-01-01": "act:0",
                                     "urn:x@2001-01-01": "act:1", "urn:x!y@2001-01-01": "act:1"}

    def test_one_day_at_a_time_builds_what_one_batch_does(self):
        # Ingest replays each day's actions in one call, closing an open
        # version by replacing it; load replays them all at once.
        for seed in range(0, 40, 3):
            store = synthcorpus.build_store(synthcorpus.generate_corpus(seed))
            whole = GraphStore()
            for work in store.works.values():
                whole.add_work(work)
            whole.replay(reversed(list(store.actions.values())))
            for name in ("ctvs", "versions", "version_starts", "produced_by"):
                assert getattr(whole, name) == getattr(store, name), (seed, name)


# The snapshot record kind of each store map.
_KIND_OF = {"works": "work", "actions": "action", "clvs": "clv", "themes": "theme",
            "units": "unit"}


def _record_id(record: dict) -> str:
    """The id of the node a record holds, derived as the model derives it."""
    row = record["row"]
    if record["kind"] == "clv":
        return clv_id(row[0], row[1])
    if record["kind"] == "theme":
        return theme_id_for(row[0])
    return row[0]


def _cited(store: GraphStore, references) -> list[tuple[str, str]]:
    """(referrer, id) for each id the rows ``references`` name, in snapshot line order."""
    out = []
    for nodes, attr, _, many in references:
        for key, node in sorted(getattr(store, nodes).items()):
            value = getattr(node, attr)
            out.extend((key, ref) for ref in (value if many else (value,)) if ref is not None)
    return out


class TestReferences:
    """Each id a node holds (model._REFERENCES) must name a node, or load raises DanglingReference."""

    @pytest.mark.parametrize("row", _REFERENCES, ids=[f"{n}.{a}" for n, a, _, _ in _REFERENCES])
    def test_an_id_that_names_no_node_exits_3(self, fixture_store, snapshot_path, tmp_path,
                                              capsys, row):
        nodes, attr, names, many = row
        kind = _KIND_OF[nodes]
        header, records = read_rows(snapshot_path)
        if attr in COLUMNS[kind] and attr not in ("terminates", "produces"):
            # Point the first id the column holds at a missing one.
            at = COLUMNS[kind].index(attr)
            record = next(r for r in records if r["kind"] == kind and r["row"][at])
            missing = "missing"
            record["row"][at] = [missing, *record["row"][at][1:]] if many else missing
            referrer = _record_id(record)
        else:
            # A derived id, or a work an action replays, whose place in the
            # replay a missing id cannot take: drop the row of a node this row
            # names and no earlier one does.
            earlier = {ref for _, ref in _cited(fixture_store, _REFERENCES[:_REFERENCES.index(row)])}
            referrer, missing = next(pair for pair in _cited(fixture_store, [row])
                                     if pair[1] not in earlier)
            records = [r for r in records
                       if r["kind"] != _KIND_OF[names] or _record_id(r) != missing]
        with pytest.raises(DanglingReference) as exc:
            _load_rows(header, records, tmp_path)
        assert (exc.value.referrer, exc.value.missing) == (referrer, missing)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01", "--json"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["type"], error["referrer"], error["missing"]) == (
            "DanglingReference", referrer, missing)


class TestDerivedEffects:
    """What an action closes and opens is derived from its event and the work tree."""

    def test_a_target_the_action_does_not_change_exits_3(self, tmp_path, capsys):
        header, rows = read_rows(GOLDEN)
        actions = {record["row"][0]: record for record in rows if record["kind"] == "action"}
        # CA 26/2000 amended Art. 6 only; give it CA 72/2013's target, Art. 7's
        # caput. It then amends that caput, and the wording it gave Art. 6's
        # caput names a version no action opens.
        assert actions[ACT_CA72]["row"][COLUMNS["action"].index("targets")] == [ART7_CPT]
        _set(actions[ACT_CA26], "targets", [ART7_CPT])
        with pytest.raises(DanglingReference) as exc:
            _load_rows(header, rows, tmp_path)
        assert (exc.value.referrer, exc.value.missing) == (
            f"{ART6_CPT}@2000-02-15#pt", f"{ART6_CPT}@2000-02-15")
        code = main(["query", "impact", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art7", "--between", "1999-01-01", "2001-01-01"])
        assert code == 3
        assert "DanglingReference" in capsys.readouterr().err

    def test_no_column_holds_what_an_action_closes_or_opens(self, tmp_path):
        # A version 10 action record listed them, so a file could make an
        # action roll a work its event never reaches.
        assert COLUMNS["action"] == ["id", "action_type", "enactment_date", "effective_date",
                                     "source_provision", "targets", "effect", "instrument",
                                     "inserts"]
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["columns"]["action"][5:5] = ["terminates", "produces"]
        lines[0] = encode(header)
        with pytest.raises(MalformedSnapshot, match="'columns' must list each kind's columns"):
            _load_lines(lines, tmp_path)

    def test_every_action_ingest_writes_keeps_the_day_rule(self, fixture_store):
        stores = [fixture_store, _one_day_of_insertions_and_an_amendment()]
        stores += [synthcorpus.build_store(synthcorpus.generate_corpus(seed)) for seed in range(40)]
        for store in stores:
            assert validate_graph(store) == []
            assert store.produced_by == day_rule.produced_by(store)
            assert set(store.produced_by) == set(store.ctvs)
            for aid, (terminates, produces) in day_rule.effects(store).items():
                assert set(store.actions[aid].targets) <= terminates | produces, aid
                for urn in terminates:
                    closed = store.closed_by(store.actions[aid], urn)
                    assert closed is not None and closed.valid_end == (
                        store.actions[aid].effective_date), (aid, urn)


# Loads a snapshot and prints, in order, what it derives from the units' text.
_DERIVE = """
import json, sys
from normgraph.retrieval import embedder_for_store, embeddings_of
from normgraph.store import load

store = load(sys.argv[1])
print(json.dumps({
    "df": list(store.text_index.df.items()),
    "avgdl": store.text_index.avgdl.hex(),
    "embeddings": [[[i, v.hex()] for i, v in entries.items()]
                   for entries in embeddings_of(store, sorted(store.units),
                                                 embedder_for_store(store))],
}))
"""


class TestEmbeddingEntries:
    """No embedding is stored: each is derived from its unit's text on first read."""

    def test_commit_and_load_derive_nothing(self, corpus_dir, snapshot_path):
        for store in (ingest_corpus(corpus_dir)[0], load(snapshot_path)):
            assert store.committed
            assert not _term_index_built(store) and store.unit_embeddings == {}

    def test_each_unit_has_its_nonzero_entries_by_ascending_bucket(self, fixture_store):
        uids = sorted(fixture_store.units)
        for uid, entries in zip(uids, embeddings_of(fixture_store, uids,
                                                     embedder_for_store(fixture_store))):
            assert list(entries) == sorted(entries)
            assert all(type(i) is int and 0 <= i < EMBEDDING_DIMENSION for i in entries)
            assert all(type(v) is float and v != 0.0 for v in entries.values())
            assert bool(entries) == fixture_store.units[uid].retrievable
            assert math.isclose(math.hypot(*entries.values()), 1.0) or not entries
        assert set(fixture_store.unit_embeddings) == set(uids)

    def test_a_unit_is_embedded_once_with_the_store_statistics(self, snapshot_path):
        store = load(snapshot_path)
        uid = sorted(store.units)[3]
        first = embeddings_of(store, [uid], embedder_for_store(store))[0]
        assert list(store.unit_embeddings) == [uid]
        assert embeddings_of(store, [uid], embedder_for_store(store))[0] is first
        index = store.text_index
        expected = HashedTfidfEmbedder(index.df, index.n_units).embed(store.units[uid].text)
        assert [(i, v.hex()) for i, v in first.items()] == [
            (i, v.hex()) for i, v in expected.items()]

    def test_an_uncommitted_store_derives_and_keeps_nothing(self):
        # Its units may still change: each read derives afresh from them.
        store = synthcorpus.build_store(synthcorpus.generate_corpus(1))
        uid = sorted(store.units)[0]
        first = store.text_index
        assert first.n_units == sum(u.retrievable for u in store.units.values()) > 0
        assert store.text_index is not first and store.text_index == first
        embedded = embeddings_of(store, [uid], embedder_for_store(store))
        assert store._text_index is None and store.unit_embeddings == {}
        store.commit()
        assert store.text_index == first
        expected = HashedTfidfEmbedder(first.df, first.n_units).embed(store.units[uid].text)
        assert embeddings_of(store, [uid], embedder_for_store(store)) == embedded == [expected]
        assert list(store.unit_embeddings) == [uid]

    @pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
    def test_a_process_with_another_hash_seed_derives_the_same_bits(self, hash_seed):
        # Each process derives statistics and embeddings afresh, so they must
        # not depend on str hashing, which PYTHONHASHSEED varies.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _DERIVE, str(GOLDEN)], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed})
        store = load(GOLDEN)
        uids = sorted(store.units)
        assert json.loads(done.stdout) == {
            "df": [list(item) for item in store.text_index.df.items()],
            "avgdl": store.text_index.avgdl.hex(),
            "embeddings": [[[i, v.hex()] for i, v in entries.items()]
                           for entries in embeddings_of(store, uids, embedder_for_store(store))],
        }

    def test_load_rejects_a_repeated_unit_record(self, snapshot_path, tmp_path):
        header, rows = read_rows(snapshot_path)
        units = [i for i, record in enumerate(rows) if record["kind"] == "unit"]
        rows.insert(units[4] + 1, rows[units[4]])
        with pytest.raises(MalformedSnapshot, match="repeated unit") as exc:
            _load_rows(header, rows, tmp_path)
        assert (exc.value.line, exc.value.row) == (_line_of("unit"), 5)

    def test_load_sorts_rows_of_an_unsorted_file(self, fixture_store, snapshot_path, tmp_path):
        header, rows = read_rows(snapshot_path)
        units = [record for record in rows if record["kind"] == "unit"]
        others = [record for record in rows if record["kind"] != "unit"]
        path = write_rows(tmp_path / "reversed.ndjson", header, others + units[::-1])
        loaded = load(path)
        assert entry_bits(loaded) == entry_bits(fixture_store)
        resaved = tmp_path / "resaved.ndjson"
        save(loaded, resaved)
        assert resaved.read_bytes() == snapshot_path.read_bytes()

    def test_save_rejects_an_uncommitted_store(self, tmp_path):
        path = tmp_path / "never.ndjson"
        with pytest.raises(RuntimeError):
            save(GraphStore(), path)
        assert not path.exists()


class TestVersionChains:
    def test_amended_component_lists_all_versions_in_order(self, fixture_store):
        starts = [tv.valid_start for tv in versions_of(fixture_store, ART6_CPT)]
        assert starts == fixture_store.version_starts[ART6_CPT] == [
            date(1988, 10, 5), date(2000, 2, 15), date(2010, 2, 4), date(2015, 9, 15)]

    def test_never_amended_component_has_one_version(self, fixture_store):
        assert len(versions_of(fixture_store, f"{NORM_URN}!art7_item1")) == 1


class TestIndexCoherence:
    def test_term_index_matches_independent_rebuild(self, fixture_store):
        rebuilt: dict[str, dict[str, int]] = {}
        for uid in sorted(fixture_store.units):
            for token in tokenize(fixture_store.units[uid].text):
                rebuilt.setdefault(token, {}).setdefault(uid, 0)
                rebuilt[token][uid] += 1
        assert rebuilt == fixture_store.text_index.term_index

    def test_statistics_match_an_independent_count(self, fixture_store):
        units = fixture_store.units.values()
        lengths = [len(tokenize(u.text)) for u in units if u.retrievable]
        index = fixture_store.text_index
        assert index.n_units == len(lengths) == 16
        assert index.avgdl == sum(lengths) / len(lengths)
        assert index.length_terms == {
            u.id: 1.5 * (1.0 - 0.75 + 0.75 * len(tokenize(u.text)) / index.avgdl) for u in units}
        assert index.blank == {u.id for u in units if not u.text.strip()}
        df = Counter(token for u in units for token in set(tokenize(u.text)))
        assert index.df == dict(df)

    def test_committed_store_rejects_mutation(self, fixture_store):
        with pytest.raises(RuntimeError):
            fixture_store.add_theme(None)  # type: ignore[arg-type]

    def test_children_sorted_by_ordinal(self, fixture_store):
        for parent, children in fixture_store.children.items():
            ordinals = [fixture_store.works[c].ordinal for c in children]
            assert ordinals == sorted(ordinals)


def _term_index_built(store: GraphStore) -> bool:
    return store._text_index is not None


def _slowed(monkeypatch, name: str) -> list[int]:
    """Threads that ran GraphStore's ``name`` derivation; each run sleeps to widen the race."""
    builds: list[int] = []
    derive = getattr(GraphStore, name)

    def slow_derive(self, *args):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # widen the window in which every reader finds no index
        return derive(self, *args)

    monkeypatch.setattr(GraphStore, name, slow_derive)
    return builds


@pytest.fixture
def slow_builds(monkeypatch) -> list[int]:
    """Threads that built a text index."""
    return _slowed(monkeypatch, "_derive_text_index")


@pytest.fixture
def slow_chain_builds(monkeypatch) -> list[int]:
    """Threads that built a chain index."""
    return _slowed(monkeypatch, "_derive_chain_index")


@pytest.fixture
def slow_time_builds(monkeypatch) -> list[int]:
    """Threads that built a time index."""
    return _slowed(monkeypatch, "_derive_time_index")


def _race(first_read, readers: int = 6) -> list:
    """``first_read(slot)`` in ``readers`` threads released at once (more than cores)."""
    barrier = threading.Barrier(readers)
    seen: list = [None] * readers

    def body(slot: int) -> None:
        barrier.wait()
        seen[slot] = first_read(slot)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=body, args=(slot,)) for slot in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return seen


def _retrieve(target: str | None, mode: RetrievalMode, k: int = 8) -> StructuredQuery:
    return StructuredQuery(QueryPattern.RETRIEVE, structural_target=target,
                           textual_target="social rights housing", mode=mode, k=k,
                           temporal=TemporalScope.instant(date(2016, 1, 1)))


class TestLazyTermIndex:
    """A loaded store tokenizes its units only when a lexical or vector path
    needs them, and embeds a unit only when a vector path scores it."""

    def test_point_in_time_and_impact_leave_it_unbuilt(self, snapshot_path, clock):
        store = load(snapshot_path)
        assert not _term_index_built(store)
        run(store, StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target="art6",
                                   temporal=TemporalScope.instant(date(2011, 1, 1))), clock)
        run(store, StructuredQuery(
            QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
            temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31))), clock)
        assert not _term_index_built(store)
        assert store.unit_embeddings == {}
        # Provenance (scoped and corpus-wide) and lexical retrieval read the
        # text index, and embed nothing.
        run(store, StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                                   textual_target="food"), clock)
        run(store, StructuredQuery(QueryPattern.PROVENANCE, textual_target="food"), clock)
        run(store, _retrieve(None, RetrievalMode.LEXICAL), clock)
        assert _term_index_built(store)
        assert store.unit_embeddings == {}

    @pytest.mark.parametrize("query", [
        pytest.param(StructuredQuery(QueryPattern.RETRIEVE, structural_target="tit2_cap2",
                                     textual_target="housing", mode=RetrievalMode.LEXICAL,
                                     temporal=TemporalScope.instant(date(2016, 1, 1))),
                     id="lexical"),
        pytest.param(StructuredQuery(QueryPattern.RETRIEVE, structural_target="tit2_cap2",
                                     textual_target="housing", mode=RetrievalMode.HYBRID,
                                     temporal=TemporalScope.instant(date(2016, 1, 1))),
                     id="hybrid"),
        pytest.param(StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                                     textual_target="food"), id="provenance"),
    ])
    def test_lexical_paths_build_it_equal_to_an_eager_rebuild(
            self, fixture_store, snapshot_path, clock, query):
        store = load(snapshot_path)
        answer = run(store, query, clock)
        assert _term_index_built(store)
        assert store.text_index == fixture_store.text_index
        assert answer.annex_json() == run(fixture_store, query, clock).annex_json()

    @pytest.mark.parametrize("mode", [RetrievalMode.VECTOR, RetrievalMode.HYBRID])
    def test_a_scoped_query_embeds_only_its_candidates(self, snapshot_path, clock, mode):
        store = load(snapshot_path)
        t = date(2016, 1, 1)
        run(store, _retrieve("art6", mode), clock)
        candidates = set()
        for urn in store.descendants(f"{NORM_URN}!art6"):
            tv = store.version_at(urn, t)
            lv_id = tv and pick_wording(store.clvs_by_ctv.get(tv.id, {}),
                                        store.primary_language(urn), None, True)
            if lv_id and (mode is RetrievalMode.HYBRID
                          or store.units[store.clvs[lv_id].text_unit].retrievable):
                candidates.add(store.clvs[lv_id].text_unit)
        assert candidates and set(store.unit_embeddings) == candidates
        assert len(candidates) < len(store.units)

    @pytest.mark.parametrize("name", ["df", "n_units", "avgdl", "term_index", "length_terms",
                                      "blank"])
    def test_the_first_read_of_any_statistic_builds_them_all_once(
            self, fixture_store, snapshot_path, slow_builds, name):
        expected = fixture_store.text_index
        slow_builds.clear()  # the shared fixture's own first build, if it was this one
        store = load(snapshot_path)
        assert getattr(store.text_index, name) == getattr(expected, name)
        assert len(slow_builds) == 1 and _term_index_built(store)
        assert store.text_index == expected
        assert len(slow_builds) == 1
        assert store.unit_embeddings == {}

    def test_concurrent_first_readers_share_one_complete_index(
            self, fixture_store, snapshot_path, slow_builds):
        store = load(snapshot_path)
        seen = _race(lambda slot: store.text_index)
        assert len(slow_builds) == 1
        assert all(index is seen[0] for index in seen)
        assert seen[0] == fixture_store.text_index

    @pytest.mark.parametrize("mode", [RetrievalMode.VECTOR, RetrievalMode.HYBRID])
    def test_concurrent_first_vector_readers_get_identical_hits(
            self, fixture_store, snapshot_path, slow_builds, clock, mode):
        store = load(snapshot_path)
        query = _retrieve(None, mode, k=50)
        seen = _race(lambda slot: run(store, query, clock).annex_json())
        assert len(slow_builds) == 1
        assert seen == [run(fixture_store, query, clock).annex_json()] * len(seen)
        assert entry_bits(store) == entry_bits(fixture_store)


class TestChainIndex:
    """Retrieval's candidates and provenance's spans come from a chain index
    derived on the first retrieval or provenance query."""

    def test_load_and_the_other_query_patterns_leave_it_unbuilt(self, snapshot_path, clock):
        store = load(snapshot_path)
        assert store._chain_index is None
        run(store, StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target="art6",
                                   temporal=TemporalScope.instant(date(2011, 1, 1))), clock)
        run(store, StructuredQuery(
            QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
            temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31))), clock)
        assert store._chain_index is None
        # Provenance, by either strategy, and retrieval derive it.
        for query in (StructuredQuery(QueryPattern.PROVENANCE, textual_target="food"),
                      StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                                      textual_target="food"),
                      _retrieve(None, RetrievalMode.LEXICAL)):
            store = load(snapshot_path)
            run(store, query, clock)
            assert store._chain_index is not None, query

    def test_a_loaded_store_derives_the_index_the_committed_one_does(
            self, fixture_store, snapshot_path):
        loaded = load(snapshot_path)
        chains, run, placed_units, metadata_units = loaded.chain_index
        assert (chains, run, placed_units, metadata_units) == fixture_store.chain_index
        # Only works with wording have a chain, and each holds the store's own links.
        assert set(chains) == {fixture_store.ctvs[lv.temporal_version].work
                               for lv in fixture_store.clvs.values()}
        for urn, (ctvs, starts, ends, wordings, primary) in chains.items():
            versions = versions_of(fixture_store, urn)
            assert ctvs == [tv.id for tv in versions]
            assert fixture_store.chain_index.chains[urn].ctvs == [tv.id for tv in versions]
            # The store's own lists, not copies.
            assert ctvs is loaded.versions[urn] and starts is loaded.version_starts[urn]
            assert starts == [tv.valid_start for tv in versions]
            assert ends == [tv.valid_end for tv in versions]
            assert wordings == [
                {language: (lv_id, fixture_store.clvs[lv_id].text_unit)
                 for language, lv_id in fixture_store.clvs_by_ctv.get(tv.id, {}).items()}
                for tv in versions]
            assert primary == fixture_store.primary_language(urn)
        # The version run: every worded version once, by valid_start, holding its chain's map.
        assert run.starts == sorted(run.starts)
        assert sorted(f"{urn}@{start.isoformat()}" for urn, start in zip(run.works, run.starts)) \
            == sorted({lv.temporal_version for lv in fixture_store.clvs.values()})
        for start, end, urn, languages, primary in zip(*run):
            position = chains[urn].starts.index(start)
            assert end == chains[urn].ends[position]
            assert languages is chains[urn].wordings[position] and primary == chains[urn].primary
        # Each language version's unit sits at its CTV's place among its work's CTVs.
        all_ctvs = fixture_store.ctvs.values()
        assert placed_units == {
            lv.text_unit: (tv.work, sum(other.work == tv.work
                                        and other.valid_start < tv.valid_start
                                        for other in all_ctvs))
            for lv in fixture_store.clvs.values()
            for tv in [fixture_store.ctvs[lv.temporal_version]]}
        # The norm's one fact, its publication date.
        assert metadata_units == {NORM_URN: [metadata_unit_id(NORM_URN, "publication_date")]}

    def test_an_uncommitted_store_derives_it_afresh_and_keeps_none(self):
        store = synthcorpus.build_store(synthcorpus.generate_corpus(3))
        first = store.chain_index
        assert store._chain_index is None and store.chain_index is not first
        assert store.chain_index == first and first.chains

    def test_concurrent_first_corpus_wide_retrieves_get_equal_hits(
            self, fixture_store, snapshot_path, slow_chain_builds):
        store = load(snapshot_path)
        request = RetrievalRequest("social rights housing", frozenset(store.works),
                                   date(2016, 1, 1), aspects=frozenset(Aspect), k=50,
                                   mode=RetrievalMode.HYBRID)
        seen = _race(lambda slot: scoped_search(store, request), readers=4)
        assert len(slow_chain_builds) == 1
        expected = scoped_search(fixture_store, request)
        assert len(expected) > 8 and seen == [expected] * 4

    def test_concurrent_first_provenance_readers_get_identical_annexes(
            self, fixture_store, snapshot_path, slow_chain_builds, clock):
        store = load(snapshot_path)
        # Span first and structure first, each read by half the threads.
        queries = [StructuredQuery(QueryPattern.PROVENANCE, textual_target="food"),
                   StructuredQuery(QueryPattern.PROVENANCE, structural_target="art6",
                                   textual_target="food")]
        seen = _race(lambda slot: run(store, queries[slot % 2], clock).annex_json(), readers=4)
        assert len(slow_chain_builds) == 1
        expected = [run(fixture_store, query, clock).annex_json() for query in queries]
        assert seen == expected * 2


def _impact(membership: MembershipPolicy = MembershipPolicy.SNAPSHOT_ANCHORED,
            **entry) -> StructuredQuery:
    return StructuredQuery(QueryPattern.IMPACT_ANALYSIS, membership=membership,
                           temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31)),
                           **(entry or {"structural_target": "tit2_cap2"}))


class TestTimeIndex:
    """Scope, impact and action retrieval read a time index derived on the first scope read."""

    def test_load_a_point_in_time_query_and_corpus_wide_reads_leave_it_unbuilt(
            self, snapshot_path, clock):
        store = load(snapshot_path)
        assert store._time_index is None
        run(store, StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target="art6",
                                   temporal=TemporalScope.instant(date(2011, 1, 1))), clock)
        run(store, _retrieve(None, RetrievalMode.LEXICAL), clock)
        run(store, StructuredQuery(QueryPattern.PROVENANCE, textual_target="food"), clock)
        assert store._time_index is None
        # A scope read derives it: impact, a theme entry, a scoped retrieval,
        # and action descriptions, which are read from it even corpus-wide.
        for query in (_impact(),
                      StructuredQuery(QueryPattern.POINT_IN_TIME, theme_target="Social Rights",
                                      temporal=TemporalScope.instant(date(2016, 1, 1))),
                      _retrieve("art6", RetrievalMode.LEXICAL),
                      replace(_retrieve(None, RetrievalMode.LEXICAL),
                              aspects=frozenset({Aspect.ACTION_DESCRIPTION}))):
            store = load(snapshot_path)
            run(store, query, clock)
            assert store._time_index is not None, query

    def test_concurrent_first_scope_readers_share_one_build(
            self, fixture_store, snapshot_path, slow_time_builds, clock):
        store = load(snapshot_path)
        # Every membership policy, one of them through a theme entry, each read by two threads.
        queries = [_impact(MembershipPolicy.SNAPSHOT_ANCHORED),
                   _impact(MembershipPolicy.ACTION_TIME, theme_target="Social Rights"),
                   _impact(MembershipPolicy.LIFETIME)]
        seen = _race(lambda slot: run(store, queries[slot % 3], clock).annex_json())
        assert len(slow_time_builds) == 1
        expected = [run(fixture_store, query, clock).annex_json() for query in queries]
        assert seen == expected * 2 and all(len(json.loads(a)["actions"]) == 3 for a in expected)

    def test_an_uncommitted_store_keeps_none_and_reads_nodes_added_later(self, clock):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        norm, inserted = "urn:test:mini", "urn:test:mini!art1_par1"
        window = (date(2001, 1, 1), date(2001, 12, 31))

        def scope(policy: MembershipPolicy) -> frozenset[str]:
            return resolve_scope(store, norm, window[0], policy, window=window)

        assert scope(MembershipPolicy.ACTION_TIME) == frozenset()
        assert inserted not in scope(MembershipPolicy.LIFETIME)
        apply_file(store, amendment_file("urn:test:mini!art1", "2001-06-01", "", components=[
            {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}]))
        assert inserted in scope(MembershipPolicy.LIFETIME)
        assert scope(MembershipPolicy.ACTION_TIME) == set(store.descendants(norm))
        answer = run(store, replace(_impact(MembershipPolicy.LIFETIME, structural_target=norm),
                                    temporal=TemporalScope.interval(*window)), clock)
        assert [a["target"] for a in answer.annex["actions"]] == [inserted]
        assert store._time_index is None


def reference_aggregation(store: GraphStore) -> dict[str, tuple[TemporalVersion, ...]]:
    """Each version's children's versions on its start, by ``version_at`` in ``children`` order."""
    out = {}
    for cid, tv in store.ctvs.items():
        held = tuple(child for urn in store.children.get(tv.work, ())
                     if (child := store.version_at(urn, tv.valid_start)) is not None)
        if held:
            out[cid] = held
    return out


def _ids(index: dict[str, tuple[TemporalVersion, ...]]) -> dict[str, tuple[str, ...]]:
    return {cid: tuple(child.id for child in held) for cid, held in index.items()}


def _reloaded(store: GraphStore, tmp_path) -> GraphStore:
    store.commit()
    save(store, tmp_path / "reloaded.ndjson")
    return load(tmp_path / "reloaded.ndjson")


def _one_day_of_insertions_and_an_amendment() -> GraphStore:
    """Three articles; on 2003-06-01 an amendment and two insertions, then repeals and amendments."""
    store = GraphStore()
    enact(store, parse_document(mini_doc(3)))
    files = [
        amendment_file(f"{MINI}!art1_cpt", "2003-06-01", "Amended."),
        amendment_file(f"{MINI}!art1", "2003-06-01", "", components=[
            {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted paragraph."}]),
        amendment_file(MINI, "2003-06-01", "", components=[
            {"fragment": "art4", "type": "article", "children": [
                {"fragment": "art4_cpt", "type": "caput", "text": "Inserted article."}]}]),
        amendment_file(f"{MINI}!art2_cpt", "2004-01-01", "", action_type="repeal"),
        amendment_file(f"{MINI}!art2", "2005-01-01", "", action_type="repeal"),
        amendment_file(f"{MINI}!art1_par1", "2005-01-01", "Paragraph v2."),
    ]
    apply_events(store, [(f"e{i}", parse_event_file(file)) for i, file in enumerate(files)])
    return store


MINI = "urn:test:mini"


class TestAggregationIndex:
    """Which child versions each version aggregates is derived from the work tree
    and the chains, never stored, and equals a walk of ``version_at``."""

    def test_the_reference_corpus_derives_the_reference_walk(self, fixture_store, snapshot_path):
        derived = aggregation(fixture_store)
        assert derived == reference_aggregation(fixture_store)
        assert aggregation(load(snapshot_path)) == aggregation(load(GOLDEN)) == derived
        # As many lists, and ids in them, as the version 6 golden snapshot stored.
        assert len(derived) == 23 and sum(map(len, derived.values())) == 30

    def test_synthetic_corpora_derive_it_alike_before_commit_and_after_a_reload(self, tmp_path):
        held = 0
        for seed in range(40):
            store = synthcorpus.build_store(synthcorpus.generate_corpus(seed))
            derived = aggregation(store)
            assert derived == reference_aggregation(store), seed
            reloaded = _reloaded(store, tmp_path)
            assert aggregation(reloaded) == reference_aggregation(reloaded) == derived, seed
            held += sum(map(len, derived.values()))
        assert held > 1000

    def test_same_day_insertions_and_amendment_then_repeals(self, tmp_path):
        store = _one_day_of_insertions_and_an_amendment()
        assert aggregation(store) == reference_aggregation(store)
        derived = _ids(aggregation(store))
        day = {"2000-01-01": "2000-01-01", "2003": "2003-06-01", "2004": "2004-01-01",
               "2005": "2005-01-01"}
        at = {key: lambda urn, d=d: f"{MINI}!{urn}@{d}" for key, d in day.items()}
        assert [derived.get(cid, ()) for cid in store.versions[MINI]] == [
            (at["2000-01-01"]("art1"), at["2000-01-01"]("art2"), at["2000-01-01"]("art3")),
            # One version for the day: the amended article, then the inserted one.
            (at["2003"]("art1"), at["2000-01-01"]("art2"), at["2000-01-01"]("art3"),
             at["2003"]("art4")),
            (at["2003"]("art1"), at["2004"]("art2"), at["2000-01-01"]("art3"),
             at["2003"]("art4")),
            # The repealed article is gone; art1 rolled for its paragraph.
            (at["2005"]("art1"), at["2000-01-01"]("art3"), at["2003"]("art4")),
        ]
        assert [derived.get(cid, ()) for cid in store.versions[f"{MINI}!art1"]] == [
            (at["2000-01-01"]("art1_cpt"),),
            (at["2003"]("art1_cpt"), at["2003"]("art1_par1")),
            (at["2003"]("art1_cpt"), at["2005"]("art1_par1")),
        ]
        # A version whose children are all repealed aggregates nothing.
        assert f"{MINI}!art2@2004-01-01" not in derived
        assert _ids(aggregation(_reloaded(store, tmp_path))) == derived

    def test_a_child_without_a_version_on_a_parent_start_is_left_out(self):
        store = GraphStore()
        store.add_work(WorkNode("urn:n", ()))
        kids = ["urn:n!b", "urn:n!a", "urn:n!c"]  # added against ordinal order
        for ordinal, kid in reversed(list(enumerate(kids))):
            store.add_work(WorkNode(kid, (), parent="urn:n", ordinal=ordinal))

        def act(day: str, action_type: ActionType, *targets: str) -> ActionNode:
            d = date.fromisoformat(day)
            return ActionNode(f"act:{day}", action_type, d, d, targets=targets,
                              inserts=len(targets) > 1 or targets == (c,))

        n, (b, a, c) = "urn:n", kids
        # n is enacted without its children; b and a are inserted on 01-01, b
        # is repealed on 02-01, a amended on 03-01 and repealed on 05-01, c
        # inserted on 04-01; n rolls with each.
        store.replay([
            act("1999-01-01", ActionType.ENACTMENT, n),
            act("2000-01-01", ActionType.AMENDMENT, b, a),
            act("2000-02-01", ActionType.REPEAL, b),
            act("2000-03-01", ActionType.AMENDMENT, a),
            act("2000-04-01", ActionType.AMENDMENT, c),
            act("2000-05-01", ActionType.REPEAL, a),
        ])
        assert aggregation(store) == reference_aggregation(store)
        assert _ids(aggregation(store)) == {
            f"{n}@2000-01-01": (f"{b}@2000-01-01", f"{a}@2000-01-01"),
            f"{n}@2000-02-01": (f"{a}@2000-01-01",),
            f"{n}@2000-03-01": (f"{a}@2000-03-01",),
            f"{n}@2000-04-01": (f"{a}@2000-03-01", f"{c}@2000-04-01"),
            f"{n}@2000-05-01": (f"{c}@2000-04-01",)}

    def test_an_uncommitted_store_derives_it_afresh_and_keeps_none(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        first = aggregation(store)
        assert store.aggregation_of(MINI) == first and store._aggregations == {}
        apply_file(store, amendment_file(f"{MINI}!art1", "2003-06-01", "", components=[
            {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}]))
        assert aggregation(store) == reference_aggregation(store) != first
        assert store._aggregations == {}

    def test_only_a_point_in_time_query_derives_it(self, snapshot_path, clock):
        store = load(snapshot_path)
        run(store, _impact(), clock)
        run(store, StructuredQuery(QueryPattern.PROVENANCE, textual_target="food"), clock)
        run(store, _retrieve(None, RetrievalMode.LEXICAL), clock)
        assert store._aggregations == {}
        run(store, StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target="art6",
                                   temporal=TemporalScope.instant(date(2011, 1, 1))), clock)
        # Only the queried norm's, though the instruments' stub norms have components too.
        assert list(store._aggregations) == [NORM_URN]
        assert len({urn_norm(parent) for parent in store.children}) > 1
        held = store._aggregations[NORM_URN]
        assert store.aggregation_of(NORM_URN) is held
        assert held == {cid: versions for cid, versions in reference_aggregation(store).items()
                        if urn_norm(store.ctvs[cid].work) == NORM_URN}

    def test_concurrent_first_point_in_time_readers_share_one_build(
            self, fixture_store, snapshot_path, monkeypatch, clock):
        builds = _slowed(monkeypatch, "_derive_norm_aggregation")
        store = load(snapshot_path)
        queries = [StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target=target,
                                   temporal=TemporalScope.instant(date(2011, 1, 1)))
                   for target in ("art6", "tit2_cap2")]
        seen = _race(lambda slot: run(store, queries[slot % 2], clock).annex_json(), readers=4)
        assert len(builds) == 1
        assert seen == [run(fixture_store, query, clock).annex_json() for query in queries] * 2

    def test_concurrent_readers_of_two_norms_build_one_each(self, tmp_path, monkeypatch, clock):
        unsaved = GraphStore()
        other = mini_doc()
        other["norm"].update(urn="urn:test:other", title="Other Statute", short_title="OS")
        for doc in (mini_doc(), other):
            enact(unsaved, parse_document(doc))
        store = _reloaded(unsaved, tmp_path)
        builds = _slowed(monkeypatch, "_derive_norm_aggregation")
        queries = [StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target=target,
                                   temporal=TemporalScope.instant(date(2011, 1, 1)))
                   for target in (MINI, "urn:test:other")]
        seen = _race(lambda slot: run(store, queries[slot % 2], clock).annex_json(), readers=4)
        assert len(builds) == 2
        assert sorted(store._aggregations) == [MINI, "urn:test:other"]
        assert seen == [run(unsaved, query, clock).annex_json() for query in queries] * 2
        assert aggregation(store) == reference_aggregation(store) == aggregation(unsaved)


class TestLanguageRule:
    """The language rule (store.pick_wording), over a stored version's language map."""

    @staticmethod
    def _read(languages: tuple[str, ...], language: str | None, fallback: bool) -> str | None:
        """The CLV read of a Portuguese norm whose one version has wording in ``languages``."""
        store = GraphStore()
        store.add_work(WorkNode("urn:x", (), metadata=(("language", "pt"),)))
        day = date(2000, 1, 1)
        store.replay([ActionNode("act:x", ActionType.ENACTMENT, day, day, targets=("urn:x",))])
        for code in languages:
            store.add_clv(LanguageVersion("urn:x@2000-01-01", code))
        return pick_wording(store.clvs_by_ctv.get("urn:x@2000-01-01", {}),
                            store.primary_language("urn:x"), language, fallback)

    # (requested "en" present, primary "pt" present, fallback) -> language read
    @pytest.mark.parametrize("requested, primary, fallback, read", [
        (True, True, True, "en"),
        (True, True, False, "en"),
        (True, False, True, "en"),
        (True, False, False, "en"),
        (False, True, True, "pt"),
        (False, True, False, None),
        (False, False, True, None),
        (False, False, False, None),
    ])
    def test_requested_then_primary_when_fallback_is_on(
            self, requested, primary, fallback, read):
        # "fr" stands for wording in some third language, always present.
        languages = ("fr",) + ("en",) * requested + ("pt",) * primary
        got = self._read(languages, "en", fallback)
        assert got == (f"urn:x@2000-01-01#{read}" if read else None)

    @pytest.mark.parametrize("fallback", [True, False])
    def test_no_language_means_the_primary_one(self, fallback):
        assert self._read(("en", "pt"), None, fallback) == "urn:x@2000-01-01#pt"
        assert self._read(("en",), None, fallback) is None

    def test_a_version_without_wording_reads_nothing(self):
        assert self._read((), "pt", True) is None


class TestAliasIndexes:
    def test_alias_lookup(self, fixture_store):
        assert fixture_store.alias_index["Article 6"] == {f"{NORM_URN}!art6"}

    def test_fragment_lookup(self, fixture_store):
        assert fixture_store.fragment_index["art6_cpt"] == {ART6_CPT}


def test_empty_store_counts():
    assert GraphStore().node_counts() == {
        "works": 0, "temporal_versions": 0, "language_versions": 0,
        "actions": 0, "themes": 0, "text_units": 0,
    }
