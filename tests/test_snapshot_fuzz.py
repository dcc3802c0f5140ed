"""Hypothesis fuzzing of one unit record of the fixture snapshot.

Whatever one unit record is turned into, ``load`` either returns a store
whose lazily built term index can be read, or raises MalformedSnapshot or
DanglingReference; no other exception may escape.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgraph.errors import DanglingReference, MalformedSnapshot
from normgraph.store import load

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
MUTATIONS = ["truncate", "drop_keys", "retype", "index", "value", "insert", "delete", "swap"]


def _mutate(data, line: str) -> str:
    """One mutation of a serialized unit record, drawn from ``data``."""
    record = json.loads(line)
    embedding = record["embedding"]
    slots = len(embedding)
    op = data.draw(st.sampled_from(MUTATIONS), label="mutation")
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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_unit_record_loads_or_fails_with_a_snapshot_error(
        snapshot_path, fuzz_dir, data):
    lines = snapshot_path.read_text(encoding="utf-8").splitlines()
    units = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "unit"]
    target = data.draw(st.sampled_from(units), label="unit line")
    lines[target] = _mutate(data, lines[target])
    path = fuzz_dir / "mutated.ndjson"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        store = load(path)
    except (MalformedSnapshot, DanglingReference):
        return
    assert store.embeddings.shape == (len(store.units), store.embedding_dimension)
    assert set(store.unit_len) == set(store.units)
