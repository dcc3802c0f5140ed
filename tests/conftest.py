from __future__ import annotations

from datetime import date

import pytest

from normgraph import store as store_mod
from normgraph.cli import main
from normgraph.ingest import ingest_corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    assert main(["fixture", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="session")
def fixture_store(corpus_dir):
    store, _ = ingest_corpus(corpus_dir)
    return store


@pytest.fixture(scope="session")
def snapshot_path(fixture_store, tmp_path_factory):
    path = tmp_path_factory.mktemp("snapshot") / "fixture.ndjson"
    store_mod.save(fixture_store, path)
    return path


@pytest.fixture()
def clock():
    return date(2024, 1, 2)
