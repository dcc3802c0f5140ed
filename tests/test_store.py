from __future__ import annotations

import json
from collections import Counter
from datetime import date

import numpy as np
import pytest

from normgraph.errors import DanglingReference, MalformedSnapshot, UnknownWork
from normgraph.fixture_corpus import ART6_CPT, NORM_URN
from normgraph.model import Aspect, TextUnit, ThemeNode
from normgraph.store import GraphStore, load, save, tokenize


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
        lines, units = _unit_lines(snapshot_path)
        record = json.loads(lines[units[3]])
        record["embedding"] = [0.0] * width
        lines[units[3]] = json.dumps(record)
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(MalformedSnapshot) as exc:
            load(path)
        assert exc.value.line == units[3] + 1
        assert "is not a list of 256 numbers" in str(exc.value)

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
