"""Hypothesis fuzzing of one record of the fixture snapshot.

Whatever one record is turned into, ``load`` either returns a store that
breaks no model invariant, whose lazily built term index can be read and
which saves and loads back to the same nodes, or raises MalformedSnapshot
or DanglingReference; no other exception may escape. Every record kind is fuzzed; unit records also get
mutations of their sparse embedding.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgraph.errors import DanglingReference, MalformedSnapshot
from normgraph.model import validate_graph
from normgraph.store import load, save

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
RECORD_MUTATIONS = ["truncate", "drop_keys", "retype"]
EMBEDDING_MUTATIONS = ["index", "value", "insert", "delete", "swap"]
NODES = ("works", "ctvs", "clvs", "actions", "themes", "units")


def _mutate(data, line: str) -> str:
    """One mutation of a serialized record, drawn from ``data``."""
    record = json.loads(line)
    mutations = RECORD_MUTATIONS
    if record["kind"] == "unit":
        mutations = RECORD_MUTATIONS + EMBEDDING_MUTATIONS
        embedding = record["embedding"]
        slots = len(embedding)
    op = data.draw(st.sampled_from(mutations), label="mutation")
    if op == "truncate":
        return line[:data.draw(st.integers(0, len(line) - 1), label="cut")]
    if op == "drop_keys":
        for key in data.draw(st.sets(st.sampled_from(sorted(record)), min_size=1), label="keys"):
            del record[key]
    elif op == "retype":
        key = data.draw(st.sampled_from(sorted(record)), label="key")
        record[key] = data.draw(JSON_VALUES, label="new value")
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
    candidates = [i for i, line in enumerate(lines) if json.loads(line)["kind"] in kinds]
    target = data.draw(st.sampled_from(candidates), label="record line")
    lines[target] = _mutate(data, lines[target])
    path = fuzz_dir / "mutated.ndjson"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        store = load(path)
    except (MalformedSnapshot, DanglingReference):
        return
    assert validate_graph(store) == []
    assert store.embeddings.shape == (len(store.units), store.embedding_dimension)
    assert set(store.unit_len) == set(store.units)
    resaved = fuzz_dir / "resaved.ndjson"
    save(store, resaved)
    reloaded = load(resaved)
    for nodes in NODES:
        assert getattr(reloaded, nodes) == getattr(store, nodes), nodes


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
