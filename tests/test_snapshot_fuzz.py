"""Hypothesis fuzzing of one record of the fixture snapshot.

Whatever one record is turned into, ``load`` either returns a store that
breaks no model invariant, whose lazily built term index can be read and
which saves and loads back to the same nodes and embeddings, or
raises MalformedSnapshot or DanglingReference; no other exception may
escape. Every record kind and the meta header are fuzzed; rows lose, gain
or retype a column, and unit records also get mutations of their sparse
embedding.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgraph.errors import DanglingReference, MalformedSnapshot
from normgraph.model import EMBEDDING_DIMENSION, validate_graph
from normgraph.store import load, save

from test_store import entry_bits

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
RECORD_MUTATIONS = ["truncate", "drop_column", "retype", "add_column"]
EMBEDDING_MUTATIONS = ["index", "value", "insert", "delete", "swap"]
HEADER_MUTATIONS = ["truncate", "drop_key", "retype", "add_key"]
NODES = ("works", "ctvs", "clvs", "actions", "themes", "units")


def _mutate_header(data, line: str) -> str:
    """One mutation of the header or one of the objects nested in it."""
    header = json.loads(line)
    op = data.draw(st.sampled_from(HEADER_MUTATIONS), label="mutation")
    if op == "truncate":
        return line[:data.draw(st.integers(0, len(line) - 1), label="cut")]
    objects = [header, header["columns"], header["embedding"], header["idf"], header["idf"]["df"]]
    target = data.draw(st.sampled_from(objects), label="object")
    if op == "add_key":
        target[data.draw(st.text(max_size=8), label="key")] = data.draw(JSON_VALUES, label="value")
        return json.dumps(header)
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    if op == "drop_key":
        del target[key]
    else:
        target[key] = data.draw(
            st.integers(-2, 300) | st.floats() | JSON_VALUES | st.just("hashed_tfidf"),
            label="new value")
    return json.dumps(header)


def _mutate(data, line: str, peers: list[list]) -> str:
    """One mutation of a serialized record, drawn from ``data``.

    A retyped value is arbitrary JSON or the same column of a ``peers`` row
    (the rows of the kind's records), which the loader often accepts.
    """
    record = json.loads(line)
    if record["kind"] == "meta":
        return _mutate_header(data, line)
    row = record["row"]
    mutations = RECORD_MUTATIONS
    if record["kind"] == "unit":
        mutations = RECORD_MUTATIONS + EMBEDDING_MUTATIONS
        embedding = record["embedding"]
        slots = len(embedding)
    op = data.draw(st.sampled_from(mutations), label="mutation")
    if op == "truncate":
        return line[:data.draw(st.integers(0, len(line) - 1), label="cut")]
    if op == "drop_column":
        del row[data.draw(st.integers(0, len(row) - 1), label="column")]
    elif op == "retype":
        at = data.draw(st.integers(0, len(row) - 1), label="column")
        row[at] = data.draw(st.sampled_from([peer[at] for peer in peers]) | JSON_VALUES,
                            label="new value")
    elif op == "add_column":
        row.insert(data.draw(st.integers(0, len(row)), label="at"),
                   data.draw(JSON_VALUES, label="new value"))
    elif op == "index" and slots:
        at = 2 * data.draw(st.integers(0, slots // 2 - 1), label="pair")
        embedding[at] = data.draw(st.integers(-3, 300) | JSON_VALUES, label="index")
    elif op == "value" and slots:
        at = 2 * data.draw(st.integers(0, slots // 2 - 1), label="pair") + 1
        embedding[at] = data.draw(st.floats() | st.integers() | JSON_VALUES, label="value")
    elif op == "insert":
        at = data.draw(st.integers(0, slots), label="at")
        embedding.insert(at, data.draw(st.integers(-3, 300) | JSON_VALUES, label="element"))
    elif op == "delete" and slots:
        del embedding[data.draw(st.integers(0, slots - 1), label="at")]
    elif op == "swap" and slots >= 4:
        at = 2 * data.draw(st.integers(0, slots // 2 - 2), label="pair")
        embedding[at], embedding[at + 2] = embedding[at + 2], embedding[at]
    return json.dumps(record)


def _load_a_mutated_record(snapshot_path, fuzz_dir, data, kinds) -> None:
    lines = snapshot_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    candidates = [i for i, record in enumerate(records) if record["kind"] in kinds]
    target = data.draw(st.sampled_from(candidates), label="record line")
    peers = [record.get("row") for record in records
             if record["kind"] == records[target]["kind"]]
    lines[target] = _mutate(data, lines[target], peers)
    path = fuzz_dir / "mutated.ndjson"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        store = load(path)
    except (MalformedSnapshot, DanglingReference):
        return
    assert validate_graph(store) == []
    embeddings = entry_bits(store)
    assert set(embeddings) == set(store.units)
    assert all(0 <= i < EMBEDDING_DIMENSION for entries in embeddings.values() for i, _ in entries)
    assert set(store.unit_len) == set(store.units)
    resaved = fuzz_dir / "resaved.ndjson"
    save(store, resaved)
    reloaded = load(resaved)
    for nodes in NODES:
        assert getattr(reloaded, nodes) == getattr(store, nodes), nodes
    assert (reloaded.df, reloaded.n_units, reloaded.avgdl) == (store.df, store.n_units,
                                                                store.avgdl)
    assert entry_bits(reloaded) == embeddings


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_unit_record_loads_or_fails_with_a_snapshot_error(
        snapshot_path, fuzz_dir, data):
    _load_a_mutated_record(snapshot_path, fuzz_dir, data, {"unit"})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_record_of_another_kind_loads_or_fails_with_a_snapshot_error(
        snapshot_path, fuzz_dir, data):
    _load_a_mutated_record(snapshot_path, fuzz_dir, data,
                           {"work", "ctv", "clv", "action", "theme"})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_header_loads_or_fails_with_a_snapshot_error(snapshot_path, fuzz_dir, data):
    _load_a_mutated_record(snapshot_path, fuzz_dir, data, {"meta"})


@pytest.mark.parametrize("value", [1e200, 10 ** 200, 1e308])
def test_a_value_that_overflows_when_squared_is_a_snapshot_error(
        snapshot_path, fuzz_dir, value):
    lines = snapshot_path.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "unit")
    record = json.loads(lines[at])
    record["embedding"][1::2] = [value] * (len(record["embedding"]) // 2)
    lines[at] = json.dumps(record)
    path = fuzz_dir / "overflow.ndjson"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedSnapshot, match="EmbeddingShape"):
        load(path)
