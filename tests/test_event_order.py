"""Hypothesis property: no file name and no order of a day's records changes what ingests.

Ingest applies a day's events in action id order, so a corpus whose event
files are renamed (file names order them for ``ingest_corpus``), or whose
records of one day are reordered within a file, gives a byte-identical
snapshot, or is rejected with the same error class. The corpora: the
fixture, alone and with each same-day pair of ``test_cli``, and synthetic
corpora of 2-4 norms, each norm's events filed by year under one
instrument, so that a file holds several records of one day.
"""

from __future__ import annotations

import json
import tempfile
from functools import lru_cache
from importlib import resources
from itertools import groupby
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from normgraph.errors import DataError
from normgraph.ingest import ingest_corpus
from normgraph.store import save

import synthcorpus
from test_cli import _SAME_DAY_PAIRS, _same_day_file

SYNTHETIC = [(1, 9), (3, 18, 27), (5, 12, 21, 30)]
CORPORA = ["fixture", *_SAME_DAY_PAIRS, *map(str, SYNTHETIC)]


def _fixture(pair: str | None = None) -> dict[str, dict]:
    """File name -> content of the fixture corpus, with one same-day pair's event files."""
    shipped = resources.files("normgraph").joinpath("fixtures")
    files = {entry.name: json.loads(entry.read_text(encoding="utf-8"))
             for entry in shipped.iterdir() if not entry.name.endswith(".sattruth.json")}
    if pair is not None:
        first, second, _ = _SAME_DAY_PAIRS[pair]
        for i, (short_title, event) in enumerate((first, second)):
            files[f"pair{i}.satev.json"] = _same_day_file(short_title, event)
    return files


def _synthetic(seeds: tuple[int, ...]) -> dict[str, dict]:
    """File name -> content of a corpus of the synthetic norms of ``seeds``.

    Each norm's events of one year are one file's records, under one instrument.
    """
    files = {}
    for seed in seeds:
        corpus = synthcorpus.generate_corpus(seed)
        files[f"n{seed}.satdoc.json"] = corpus.doc
        for year, events in groupby(corpus.events(), key=lambda e: e["effective_date"][:4]):
            files[f"n{seed}_{year}.satev.json"] = {
                "format_version": 1,
                "instrument": {"urn": f"urn:test:omnibus:{seed}:{year}",
                               "title": f"Omnibus Act {seed} of {year}",
                               "short_title": f"OA {seed}/{year}",
                               "publication_date": f"{year}-01-01"},
                "events": list(events),
            }
    return files


def _files(corpus: str) -> dict[str, dict]:
    if corpus == "fixture":
        return _fixture()
    if corpus in _SAME_DAY_PAIRS:
        return _fixture(corpus)
    return _synthetic(SYNTHETIC[[str(seeds) for seeds in SYNTHETIC].index(corpus)])


def _outcome(files: dict[str, dict], base: Path) -> bytes | str:
    """The snapshot ``files`` ingest to, written into a new directory under ``base``, or the
    class of the error that rejects them."""
    directory = Path(tempfile.mkdtemp(dir=base))
    for name, content in files.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")
    try:
        store, _ = ingest_corpus(directory)
    except DataError as exc:
        return type(exc).__name__
    save(store, directory / "snapshot.ndjson")
    return (directory / "snapshot.ndjson").read_bytes()


@lru_cache(maxsize=None)
def _as_named(corpus: str, base: Path) -> bytes | str:
    return _outcome(_files(corpus), base)


def test_the_corpora_hold_same_day_records_in_one_file_and_both_outcomes(tmp_path):
    held = 0
    for corpus in CORPORA:
        for content in _files(corpus).values():
            days = [event["effective_date"] for event in content.get("events", ())]
            held += len(days) - len(set(days))
    assert held >= 5
    outcomes = [_outcome(_files(corpus), tmp_path) for corpus in CORPORA]
    assert sum(isinstance(outcome, bytes) for outcome in outcomes) == 6
    assert sorted(o for o in outcomes if isinstance(o, str)) == [
        "MalformedInput", "NoOpenVersion", "UnknownTarget"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_renamed_files_and_reordered_days_ingest_alike(tmp_path_factory, data):
    corpus = data.draw(st.sampled_from(CORPORA), label="corpus")
    files = _files(corpus)
    events = sorted(name for name in files if name.endswith(".satev.json"))
    names = data.draw(st.permutations(range(len(events))), label="names")
    for name, new in zip(events, names):
        content = files.pop(name)
        if "events" in content:
            content["events"] = [
                event for _, day in groupby(content["events"], key=lambda e: e["effective_date"])
                for event in data.draw(st.permutations(list(day)), label=f"{name} day")]
        files[f"{new:03d}.satev.json"] = content
    base = tmp_path_factory.getbasetemp()
    assert _outcome(files, base) == _as_named(corpus, base)
