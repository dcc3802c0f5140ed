"""Hypothesis fuzzing of one record of the fixture and synthcorpus seed-1 snapshots.

Whatever one record is turned into, ``load`` either returns a store that
breaks no model invariant, whose lazily derived text index, embeddings and
aggregation index can be read (the last equal to a walk of ``version_at``)
and which saves and loads back to the same nodes, statistics, embeddings
and aggregation, or raises MalformedSnapshot or DanglingReference; no other
exception may escape. Every kind record and the meta header are fuzzed; a
kind record is cut short, or one of its columns loses, gains or retypes a
cell.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgraph.errors import DanglingReference, MalformedSnapshot
from normgraph.model import EMBEDDING_DIMENSION, validate_graph
from normgraph.store import load, save

import synthcorpus
from test_ingest import aggregation
from test_store import GOLDEN, entry_bits, reference_aggregation

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
RECORD_MUTATIONS = ["truncate", "drop_cell", "retype", "add_cell"]
HEADER_MUTATIONS = ["truncate", "drop_key", "retype", "add_key"]
NODES = ("works", "ctvs", "clvs", "actions", "themes", "units")


def _mutate_header(data, line: str) -> str:
    """One mutation of the header or one of the objects nested in it."""
    header = json.loads(line)
    op = data.draw(st.sampled_from(HEADER_MUTATIONS), label="mutation")
    if op == "truncate":
        return line[:data.draw(st.integers(0, len(line) - 1), label="cut")]
    objects = [header, header["columns"], header["rows"]]
    target = data.draw(st.sampled_from(objects), label="object")
    if op == "add_key":
        target[data.draw(st.text(max_size=8), label="key")] = data.draw(JSON_VALUES, label="value")
        return json.dumps(header)
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    if op == "drop_key":
        del target[key]
    else:
        target[key] = data.draw(st.integers(-2, 300) | st.floats() | JSON_VALUES,
                                label="new value")
    return json.dumps(header)


def _mutate(data, line: str) -> str:
    """One mutation of a serialized record, drawn from ``data``.

    A retyped cell becomes arbitrary JSON or another value of its column,
    which the loader often accepts. A dropped or added cell leaves its
    column one value shorter or longer than the others.
    """
    record = json.loads(line)
    if record["kind"] == "meta":
        return _mutate_header(data, line)
    columns = record["columns"]
    # An empty kind's record has no cell to drop or retype.
    ops = RECORD_MUTATIONS if columns[0] else ["truncate", "add_cell"]
    op = data.draw(st.sampled_from(ops), label="mutation")
    if op == "truncate":
        return line[:data.draw(st.integers(0, len(line) - 1), label="cut")]
    values = columns[data.draw(st.integers(0, len(columns) - 1), label="column")]
    if op == "add_cell":
        values.insert(data.draw(st.integers(0, len(values)), label="at"),
                      data.draw(JSON_VALUES, label="new value"))
        return json.dumps(record)
    row = data.draw(st.integers(0, len(values) - 1), label="row")
    if op == "drop_cell":
        del values[row]
    else:
        values[row] = data.draw(st.sampled_from(values) | JSON_VALUES, label="new value")
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
    embeddings = entry_bits(store)
    assert set(embeddings) == set(store.units)
    assert all(0 <= i < EMBEDDING_DIMENSION for entries in embeddings.values() for i, _ in entries)
    assert set(store.text_index.length_terms) == set(store.units)
    assert aggregation(store) == reference_aggregation(store)
    resaved = fuzz_dir / "resaved.ndjson"
    save(store, resaved)
    reloaded = load(resaved)
    for nodes in NODES:
        assert getattr(reloaded, nodes) == getattr(store, nodes), nodes
    assert reloaded.text_index == store.text_index
    assert entry_bits(reloaded) == embeddings
    assert aggregation(reloaded) == aggregation(store)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module", params=["golden", "seed1"])
def fuzzed(request, fuzz_dir):
    """The snapshot to fuzz: the golden one, or a save of synthcorpus seed 1."""
    if request.param == "golden":
        return GOLDEN
    store = synthcorpus.build_store(synthcorpus.generate_corpus(1))
    store.commit()
    save(store, fuzz_dir / "seed1.ndjson")
    return fuzz_dir / "seed1.ndjson"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_unit_record_loads_or_fails_with_a_snapshot_error(fuzzed, fuzz_dir, data):
    _load_a_mutated_record(fuzzed, fuzz_dir, data, {"unit"})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_record_of_another_kind_loads_or_fails_with_a_snapshot_error(
        fuzzed, fuzz_dir, data):
    _load_a_mutated_record(fuzzed, fuzz_dir, data, {"work", "clv", "action", "theme"})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_header_loads_or_fails_with_a_snapshot_error(fuzzed, fuzz_dir, data):
    _load_a_mutated_record(fuzzed, fuzz_dir, data, {"meta"})
