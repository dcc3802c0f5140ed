from __future__ import annotations

import json
import re
import sys
import threading
import time
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from normgraph.cli import main
from normgraph.errors import DanglingReference, MalformedSnapshot, UnknownWork
from normgraph.fixture_corpus import ART6_CPT, NORM_URN
from normgraph.model import (
    Aspect,
    LanguageVersion,
    TemporalVersion,
    TextUnit,
    ThemeNode,
    ValidityInterval,
    WorkId,
    WorkKind,
    WorkNode,
    validate_graph,
)
from normgraph.planner import QueryPattern, StructuredQuery, run
from normgraph.retrieval import RetrievalMode
from normgraph.store import FORMAT_VERSION, GraphStore, load, save, tokenize
from normgraph.temporal import TemporalScope

# A save of the fixture corpus in the current format; see TestGoldenSnapshot.
GOLDEN = Path(__file__).parent / "data" / "golden_fixture.ndjson"
META = {"kind": "meta", "format_version": FORMAT_VERSION,
        "embedding": {"name": "hashed_tfidf", "dimension": 256},
        "idf": {"n_units": 0, "avgdl": 0.0, "df": {}}}


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
        assert loaded.df == fixture_store.df
        assert loaded.n_units == fixture_store.n_units
        assert loaded.avgdl == fixture_store.avgdl

    def test_save_load_save_is_byte_identical(self, fixture_store, tmp_path):
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        save(fixture_store, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_record_count_equals_node_count_plus_header(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        kinds = Counter(json.loads(line)["kind"] for line in lines)
        assert kinds.pop("meta") == 1
        assert sum(kinds.values()) == sum(fixture_store.node_counts().values())
        # Hand count: 9 norm works + 8 instrument stub works; 9 works x 1
        # initial version + 4 events x (target + 4 ancestors); 9 content
        # versions; enactment + 4 amendments; 1 theme; 9 content + 5 action
        # + 1 metadata + 1 theme description units.
        assert kinds == Counter(
            work=17, ctv=29, clv=9, action=5, theme=1, unit=16)

    def test_indexes_are_rebuilt_not_persisted(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        assert "term_index" not in path.read_text(encoding="utf-8")
        loaded = load(path)
        assert loaded.term_index == fixture_store.term_index

    def test_embeddings_are_persisted_not_recomputed(self, fixture_store, tmp_path):
        path = tmp_path / "snap.ndjson"
        save(fixture_store, path)
        loaded = load(path)
        assert loaded.unit_rows == fixture_store.unit_rows
        for uid in fixture_store.units:
            # Bitwise: the decimal text written by save reads back exactly.
            assert loaded.embedding(uid).tobytes() == fixture_store.embedding(uid).tobytes()


class TestGoldenSnapshot:
    """The on-disk format is pinned by a committed save of the fixture corpus."""

    def test_load_then_save_reproduces_it_byte_for_byte(self, tmp_path):
        path = tmp_path / "resaved.ndjson"
        save(load(GOLDEN), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_its_nodes_are_those_of_an_ingest_of_the_fixture_corpus(self, fixture_store):
        # Embeddings are left out: they depend on the platform's float arithmetic.
        golden = load(GOLDEN)
        assert validate_graph(golden) == []
        for nodes in ("works", "ctvs", "clvs", "actions", "themes", "units"):
            assert getattr(golden, nodes) == getattr(fixture_store, nodes), nodes
        assert (golden.df, golden.n_units) == (fixture_store.df, fixture_store.n_units)


class TestLoad:
    def test_fixture_snapshot_contents(self, snapshot_path):
        store = load(snapshot_path)
        assert store.works[NORM_URN].kind.value == "norm"
        assert len(store.versions_of(ART6_CPT)) == 4

    def test_empty_file_loads_empty_store(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("", encoding="utf-8")
        store = load(path)
        assert sum(store.node_counts().values()) == 0

    def test_dangling_aggregate_reference(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        records = [
            META,
            {"kind": "work", "id": "urn:n", "aliases": [], "work_kind": "norm",
             "component_type": "other", "parent": None, "ordinal": 0, "metadata": {}},
            {"kind": "ctv", "id": "urn:n@2000-01-01", "work": "urn:n",
             "valid_start": "2000-01-01", "valid_end": None,
             "aggregates": ["urn:n!a@2000-01-01"], "produced_by": "", "terminated_by": None},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        with pytest.raises(DanglingReference):
            load(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"kind": "work"\nnot json', encoding="utf-8")
        with pytest.raises(MalformedSnapshot) as exc:
            load(path)
        assert ":1:" in str(exc.value) or ":1" in str(exc.value)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"kind": "mystery"}', encoding="utf-8")
        with pytest.raises(MalformedSnapshot):
            load(path)


def _unit_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines, [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "unit"]


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

    def test_version_1_is_rejected_with_a_reingest_hint(self, snapshot_path, tmp_path):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 1
        lines[0] = json.dumps(header)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == 1
        assert "unsupported format_version 1" in str(exc.value)
        assert "re-run `normgraph ingest`" in str(exc.value)


DROP = object()


class TestStrictRecords:
    """Every key of a record is required and every value has an exact type."""

    @pytest.mark.parametrize("kind, key, value, reason", [
        pytest.param("work", "metadata", ["label"], "'metadata' must be an object of strings",
                     id="work-metadata-list"),
        pytest.param("ctv", "aggregates", [["x"]], "'aggregates' must be a list of strings",
                     id="ctv-aggregates-holding-a-list"),
        pytest.param("clv", "language", 7, "'language' must be a string", id="clv-language-int"),
        pytest.param("work", "ordinal", "0", "'ordinal' must be an integer", id="work-ordinal-string"),
        pytest.param("action", "targets", "a", "'targets' must be a list of strings",
                     id="action-targets-string"),
        pytest.param("work", "ordinal", False, "'ordinal' must be an integer", id="work-ordinal-bool"),
        pytest.param("unit", "synthetic", 0, "'synthetic' must be a boolean", id="unit-synthetic-int"),
        pytest.param("action", "effective_date", "2000-02-30", "'effective_date' must be an ISO date",
                     id="action-bad-date"),
        pytest.param("action", "enactment_date", "20000214", "'enactment_date' must be an ISO date",
                     id="action-compact-date"),
        pytest.param("ctv", "valid_end", "2000-W07-1", "'valid_end' must be an ISO date or null",
                     id="ctv-week-date"),
        pytest.param("work", "work_kind", "statute", "'work_kind' must be a WorkKind value",
                     id="work-unknown-kind"),
        pytest.param("ctv", "produced_by", DROP, "missing key 'produced_by'", id="ctv-no-produced_by"),
        pytest.param("theme", "members", DROP, "missing key 'members'", id="theme-no-members"),
    ])
    def test_a_bad_value_is_a_malformed_snapshot_naming_its_line(
            self, snapshot_path, tmp_path, capsys, kind, key, value, reason):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        record = json.loads(lines[at])
        if value is DROP:
            del record[key]
        else:
            record[key] = value
        lines[at] = json.dumps(record)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == at + 1
        assert f"bad {kind!r} record: {reason}" in str(exc.value)
        code = main(["query", "at", "--snapshot", str(tmp_path / "bad.ndjson"),
                     "--target", "art6", "--at", "2011-01-01"])
        assert code == 3
        assert f":{at + 1}: bad {kind!r} record" in capsys.readouterr().err

    # Repeated units: test_load_rejects_a_repeated_unit_record.
    @pytest.mark.parametrize("kind", ["work", "ctv", "clv", "action", "theme"])
    def test_a_repeated_id_is_a_malformed_snapshot(self, snapshot_path, tmp_path, kind):
        lines = snapshot_path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        lines.insert(at + 1, lines[at])
        with pytest.raises(MalformedSnapshot, match=f"repeated {kind} ") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == at + 2


class TestEmbeddingMatrix:
    def test_one_read_only_row_per_unit_in_sorted_id_order(self, fixture_store):
        matrix = fixture_store.embeddings
        assert matrix.shape == (len(fixture_store.units), fixture_store.embedding_dimension)
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert list(fixture_store.unit_rows) == sorted(fixture_store.units)
        assert list(fixture_store.unit_rows.values()) == list(range(len(matrix)))
        row = fixture_store.embedding(sorted(fixture_store.units)[0])
        with pytest.raises(ValueError):
            row[0] = 1.0

    @pytest.mark.parametrize("width", [0, 255, 257])
    def test_load_rejects_an_embedding_of_another_width(self, snapshot_path, tmp_path, width):
        # A row with an entry in column `width` is wider than a header of that width.
        lines, units = _unit_lines(snapshot_path)
        header = json.loads(lines[0])
        header["embedding"]["dimension"] = width
        lines[0] = json.dumps(header)
        record = json.loads(lines[units[0]])
        record["embedding"] = [width, 0.5]
        lines[units[0]] = json.dumps(record)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == units[0] + 1
        assert f"not strictly increasing in [0, {width})" in str(exc.value)

    @pytest.mark.parametrize("embedding, reason", [
        pytest.param([3, 0.5, 7], "not a flat list of index, value pairs", id="odd-length"),
        pytest.param({"3": 0.5}, "not a flat list of index, value pairs", id="object"),
        pytest.param([3.0, 0.5], "index that is not an integer", id="float-index"),
        pytest.param([True, 0.5], "index that is not an integer", id="bool-index"),
        pytest.param(["3", 0.5], "index that is not an integer", id="string-index"),
        pytest.param([None, 0.5], "index that is not an integer", id="null-index"),
        pytest.param([-1, 0.5], "not strictly increasing in [0, 256)", id="negative-index"),
        pytest.param([256, 0.5], "not strictly increasing in [0, 256)", id="index-at-dimension"),
        pytest.param([3, 0.5, 3, 0.25], "not strictly increasing", id="repeated-index"),
        pytest.param([7, 0.5, 3, 0.25], "not strictly increasing", id="descending-indices"),
        pytest.param([3, "0.5"], "value that is not a number", id="string-value"),
        pytest.param([3, None], "value that is not a number", id="null-value"),
        pytest.param([3, True], "value that is not a number", id="bool-value"),
        pytest.param([3, [0.5]], "value that is not a number", id="list-value"),
        pytest.param([3, 10 ** 400], "bad 'unit' record", id="value-beyond-float64"),
    ])
    def test_load_rejects_a_malformed_sparse_embedding(
            self, snapshot_path, tmp_path, embedding, reason):
        lines, units = _unit_lines(snapshot_path)
        record = json.loads(lines[units[2]])
        record["embedding"] = embedding
        lines[units[2]] = json.dumps(record)
        with pytest.raises(MalformedSnapshot) as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == units[2] + 1
        assert reason in str(exc.value)

    def test_load_rejects_a_dense_version_1_row_in_a_version_2_file(
            self, fixture_store, snapshot_path, tmp_path):
        lines, units = _unit_lines(snapshot_path)
        record = json.loads(lines[units[1]])
        record["embedding"] = fixture_store.embedding(record["id"]).tolist()
        lines[units[1]] = json.dumps(record)
        with pytest.raises(MalformedSnapshot, match="index that is not an integer") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == units[1] + 1

    def test_load_rejects_a_repeated_unit_record(self, snapshot_path, tmp_path):
        lines, units = _unit_lines(snapshot_path)
        lines.insert(units[4] + 1, lines[units[4]])
        with pytest.raises(MalformedSnapshot, match="repeated unit") as exc:
            _load_lines(lines, tmp_path)
        assert exc.value.line == units[4] + 2

    def test_records_hold_only_the_nonzero_entries(self, fixture_store, snapshot_path):
        lines, units = _unit_lines(snapshot_path)
        for i in units:
            record = json.loads(lines[i])
            row = fixture_store.embedding(record["id"])
            index = np.flatnonzero(row)
            assert record["embedding"][0::2] == index.tolist()
            assert record["embedding"][1::2] == row[index].tolist()

    def test_negative_zero_round_trips_bitwise(self, tmp_path):
        # A unit row, so that the strict load accepts it; a NaN row cannot
        # load (see the next test).
        special = np.zeros(256)
        special[[2, 9, 200]] = [-0.0, 0.6, 0.8]

        class Fixed:
            def embed(self, text):
                return special if text == "special" else np.zeros(256)

        store = GraphStore()
        for name, text in (("special", "special"), ("blank", "")):
            store.add_theme(ThemeNode(f"theme:{name}", name, f"theme:{name}#description"))
            store.add_unit(TextUnit(f"theme:{name}#description", Aspect.THEME_DESCRIPTION,
                                    f"theme:{name}", "en", text))
        store.commit(Fixed())
        first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save(store, first)
        records = {r.get("id"): r for r in map(json.loads, first.read_text().splitlines())}
        assert records["theme:blank#description"]["embedding"] == []
        special_record = records["theme:special#description"]["embedding"]
        assert special_record[0::2] == [2, 9, 200]
        assert '"embedding":[2,-0.0,9,0.6,200,0.8]' in first.read_text()
        loaded = load(first)
        assert loaded.embeddings.tobytes() == store.embeddings.tobytes()
        save(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("text", ["some words", ""])
    def test_a_nan_embedding_is_an_invariant_violation(self, tmp_path, text):
        row = np.zeros(256)
        row[[3, 7]] = [1.0, np.nan]

        class WithNan:
            def embed(self, text):
                return row

        store = GraphStore()
        store.add_theme(ThemeNode("theme:t", "T", "theme:t#description"))
        store.add_unit(TextUnit("theme:t#description", Aspect.THEME_DESCRIPTION,
                                "theme:t", "en", text))
        store.commit(WithNan())
        [violation] = validate_graph(store)
        assert violation.code == "EmbeddingShape"
        assert violation.nodes == ("theme:t#description",)
        path = tmp_path / "nan.ndjson"
        save(store, path)
        assert '"embedding":[3,1.0,7,NaN]' in path.read_text()
        with pytest.raises(MalformedSnapshot, match=(
                r"nan\.ndjson: 1 invariant violation\(s\); the first is "
                + re.escape(str(violation)))):
            load(path)
        assert main(["query", "retrieve", "--snapshot", str(path), "--text", "words"]) == 3

    @pytest.mark.parametrize("embedding", [None, "0.0", ["x"] * 256, [[0.0]] * 256])
    def test_load_rejects_an_embedding_that_is_not_a_list_of_numbers(
            self, snapshot_path, tmp_path, embedding):
        lines, units = _unit_lines(snapshot_path)
        record = json.loads(lines[units[0]])
        record["embedding"] = embedding
        lines[units[0]] = json.dumps(record)
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(MalformedSnapshot) as exc:
            load(path)
        assert exc.value.line == units[0] + 1

    def test_load_sorts_rows_of_an_unsorted_file(self, fixture_store, snapshot_path, tmp_path):
        lines, units = _unit_lines(snapshot_path)
        head, unit_lines = lines[:units[0]], lines[units[0]:]
        path = tmp_path / "reversed.ndjson"
        path.write_text("\n".join(head + unit_lines[::-1]), encoding="utf-8")
        loaded = load(path)
        assert loaded.unit_rows == fixture_store.unit_rows
        assert np.array_equal(loaded.embeddings, fixture_store.embeddings)
        assert loaded.embeddings.flags.c_contiguous

    def test_commit_rejects_an_embedder_of_another_shape(self):
        class Short:
            dimension = 8

            def embed(self, text):
                return np.ones(8)

        store = GraphStore()
        store.add_theme(ThemeNode("theme:t", "T", "theme:t#description"))
        store.add_unit(TextUnit("theme:t#description", Aspect.THEME_DESCRIPTION,
                                "theme:t", "en", "some words"))
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            store.commit(Short())
        assert not store.committed
        store.commit()
        assert store.embedding("theme:t#description").shape == (256,)

    def test_save_rejects_an_uncommitted_store(self, tmp_path):
        path = tmp_path / "never.ndjson"
        with pytest.raises(RuntimeError):
            save(GraphStore(), path)
        assert not path.exists()


class TestVersionsOf:
    def test_amended_component_lists_all_versions_in_order(self, fixture_store):
        starts = [tv.validity.valid_start for tv in fixture_store.versions_of(ART6_CPT)]
        assert starts == [
            date(1988, 10, 5), date(2000, 2, 15), date(2010, 2, 4), date(2015, 9, 15)]

    def test_never_amended_component_has_one_version(self, fixture_store):
        assert len(fixture_store.versions_of(f"{NORM_URN}!art7_item1")) == 1

    def test_unknown_work(self, fixture_store):
        with pytest.raises(UnknownWork):
            fixture_store.versions_of("urn:nowhere")


class TestIndexCoherence:
    def test_term_index_matches_independent_rebuild(self, fixture_store):
        rebuilt: dict[str, dict[str, int]] = {}
        for uid in sorted(fixture_store.units):
            for token in tokenize(fixture_store.units[uid].text):
                rebuilt.setdefault(token, {}).setdefault(uid, 0)
                rebuilt[token][uid] += 1
        assert rebuilt == fixture_store.term_index

    def test_committed_store_rejects_mutation(self, fixture_store):
        with pytest.raises(RuntimeError):
            fixture_store.add_theme(None)  # type: ignore[arg-type]

    def test_children_sorted_by_ordinal(self, fixture_store):
        for parent, children in fixture_store.children.items():
            ordinals = [fixture_store.works[c].ordinal for c in children]
            assert ordinals == sorted(ordinals)


def _term_index_built(store: GraphStore) -> bool:
    return store._text_index is not None


class TestLazyTermIndex:
    """A loaded store tokenizes its units only when a lexical path needs them."""

    def test_point_in_time_and_impact_leave_it_unbuilt(self, snapshot_path, clock):
        store = load(snapshot_path)
        assert not _term_index_built(store)
        run(store, StructuredQuery(QueryPattern.POINT_IN_TIME, structural_target="art6",
                                   temporal=TemporalScope.instant(date(2011, 1, 1))), clock)
        run(store, StructuredQuery(
            QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
            temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31))), clock)
        assert not _term_index_built(store)

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
        assert store.term_index == fixture_store.term_index
        assert store.unit_len == fixture_store.unit_len
        assert answer.annex_json() == run(fixture_store, query, clock).annex_json()

    def test_concurrent_first_readers_share_one_complete_index(
            self, fixture_store, snapshot_path, monkeypatch):
        store = load(snapshot_path)
        builds = []
        rebuild = GraphStore._rebuild_text_index

        def slow_rebuild(self):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the window in which both readers find no index
            rebuild(self)

        monkeypatch.setattr(GraphStore, "_rebuild_text_index", slow_rebuild)
        readers = 6  # more threads than cores
        barrier = threading.Barrier(readers)
        seen: list = [None] * readers

        def first_read(slot: int) -> None:
            barrier.wait()
            # Half the readers start with unit_len, so both names race.
            if slot % 2:
                unit_len = store.unit_len
                term_index = store.term_index
            else:
                term_index = store.term_index
                unit_len = store.unit_len
            seen[slot] = (term_index, unit_len)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_read, args=(slot,))
                       for slot in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        for term_index, unit_len in seen:
            assert term_index is seen[0][0] and unit_len is seen[0][1]
        assert seen[0] == (fixture_store.term_index, fixture_store.unit_len)


class TestLanguageRule:
    """clv_for: the one rule every reader of a version's wording goes through."""

    @staticmethod
    def _store(languages: tuple[str, ...]) -> GraphStore:
        """A Portuguese norm whose one version has wording in ``languages``."""
        store = GraphStore()
        store.add_work(WorkNode(WorkId("urn:x"), WorkKind.NORM,
                                metadata=(("language", "pt"),)))
        store.add_ctv(TemporalVersion("urn:x@2000-01-01", "urn:x",
                                      ValidityInterval(date(2000, 1, 1))))
        for language in languages:
            store.add_clv(LanguageVersion(f"urn:x@2000-01-01#{language}", "urn:x@2000-01-01",
                                          language, f"tu:{language}"))
        return store

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
        store = self._store(languages)
        got = store.clv_for("urn:x@2000-01-01", "urn:x", "en", fallback)
        assert got == (f"urn:x@2000-01-01#{read}" if read else None)

    @pytest.mark.parametrize("fallback", [True, False])
    def test_no_language_means_the_primary_one(self, fallback):
        store = self._store(("en", "pt"))
        assert store.clv_for("urn:x@2000-01-01", "urn:x", None, fallback) == (
            "urn:x@2000-01-01#pt")
        assert self._store(("en",)).clv_for("urn:x@2000-01-01", "urn:x", None, fallback) is None

    def test_a_version_without_wording_reads_nothing(self):
        assert self._store(()).clv_for("urn:x@2000-01-01", "urn:x", "pt", True) is None


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
