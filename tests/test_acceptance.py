"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import json
import random
import time
from datetime import date, timedelta
from pathlib import Path


from normgraph.cli import main
from normgraph.errors import NotYetEnacted, RepealedAt
from normgraph.ingest import (
    add_language, apply_events, enact, parse_document, parse_event_file)
from normgraph.planner import QueryPattern, StructuredQuery, run
from normgraph.store import GraphStore
from normgraph.temporal import TemporalScope, snapshot_text

import synthcorpus
from reference_ids import (
    ACT_CA64,
    ACT_CA72,
    ACT_CA90,
    ART6,
    ART7,
    NORM_URN,
    RIGHTS_1999,
)
from test_ingest import aggregation, versions_of
from test_planner import rights_from_text

DATA = Path(__file__).parent / "data"
CLOCK = date(2024, 1, 2)


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} PASS — {name}{suffix}")


def test_criterion_1_point_in_time_fidelity(fixture_store, snapshot_path, capsys):
    started = time.perf_counter()
    answer = run(fixture_store, StructuredQuery(
        QueryPattern.POINT_IN_TIME, structural_target="art6",
        temporal=TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))),
        CLOCK)
    elapsed = time.perf_counter() - started
    (_, _, clv) = answer.citations[0]
    text = fixture_store.units[fixture_store.clvs[clv].text_unit].text
    rights = rights_from_text(text)
    assert rights == set(RIGHTS_1999)
    assert "housing" not in rights and "food" not in rights
    assert elapsed < 1.0

    # Same criterion through the command-line surface.
    cli_started = time.perf_counter()
    code = main(["query", "at", "--snapshot", str(snapshot_path),
                 "--target", "art6", "--between", "1999-01-01", "1999-12-31"])
    cli_elapsed = time.perf_counter() - cli_started
    assert code == 0
    out = capsys.readouterr().out
    caput_line = next(line for line in out.splitlines() if "] " in line)
    assert rights_from_text(caput_line.split("] ", 1)[1]) == set(RIGHTS_1999)
    assert cli_elapsed < 1.0
    with capsys.disabled():
        report(1, "point-in-time fidelity",
               f"planner {elapsed * 1000:.1f} ms, cli {cli_elapsed * 1000:.0f} ms")


def test_criterion_2_impact_analysis_fidelity(fixture_store):
    answer = run(fixture_store, StructuredQuery(
        QueryPattern.IMPACT_ANALYSIS, structural_target="tit2_cap2",
        temporal=TemporalScope.interval(date(2010, 1, 1), date(2019, 12, 31))),
        CLOCK)

    def article_of(urn: str) -> str:
        work = fixture_store.works[urn]
        while work.component_type.value != "article":
            work = fixture_store.works[work.parent]
        return work.urn

    attributed = {(a["action"], article_of(a["target"]))
                  for a in answer.annex["actions"]}
    assert attributed == {
        (ACT_CA64, ART6), (ACT_CA72, ART7), (ACT_CA90, ART6)}
    dates = {a["date"] for a in answer.annex["actions"]}
    assert dates == {"2010-02-04", "2013-04-02", "2015-09-15"}
    report(2, "impact analysis fidelity")


def test_criterion_3_provenance_fidelity(fixture_store):
    answer = run(fixture_store, StructuredQuery(
        QueryPattern.PROVENANCE, structural_target="art6",
        textual_target="food"), CLOCK)
    golden = (DATA / "golden_provenance_annex.json").read_text(encoding="utf-8")
    assert answer.annex_json() == golden
    assert "valid until 2010-02-03" in answer.rendered_text
    assert "valid from 2010-02-04" in answer.rendered_text
    assert answer.confidence == 1.0
    report(3, "provenance fidelity", "annex matches golden file")


def test_criterion_4_oracle_equivalence(corpus_dir):
    started = time.perf_counter()
    checked = 0

    # Fixture corpus first.
    doc = json.loads(
        (corpus_dir / "constitution_1988.satdoc.json").read_text(encoding="utf-8"))
    event_files = []
    for path in sorted(corpus_dir.glob("*.satev.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("events"):
            event_files.append(payload)
    event_files.sort(key=lambda ef: ef["events"][0]["effective_date"])
    fixture = synthcorpus.SynthCorpus(doc=doc, event_files=event_files)
    store = synthcorpus.build_store(fixture)
    for at in [fixture.enactment] + fixture.event_dates():
        assert snapshot_text(store, fixture.norm_urn, at) == \
            synthcorpus.oracle_snapshot(fixture, at)
        checked += 1

    # 200 random corpora of bounded size.
    for seed in range(200):
        corpus = synthcorpus.generate_corpus(seed, max_components=10, max_events=15)
        store = synthcorpus.build_store(corpus)
        for at in [corpus.enactment] + corpus.event_dates():
            engine = snapshot_text(store, corpus.norm_urn, at)
            oracle = synthcorpus.oracle_snapshot(corpus, at)
            assert engine == oracle, (seed, at)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, "oracle equivalence",
           f"{checked} snapshots across 201 corpora in {elapsed:.2f}s")


def test_criterion_5_aggregation_economy(fixture_store):
    enactment_versions = [
        tv for tv in fixture_store.ctvs.values()
        if tv.valid_start == date(1988, 10, 5)]
    initial = len(enactment_versions)

    expected = initial
    for action in fixture_store.actions.values():
        if action.action_type.value != "amendment":
            continue
        for target in action.targets:
            ancestors = 0
            work = fixture_store.works[target]
            while work.parent is not None:
                ancestors += 1
                work = fixture_store.works[work.parent]
            ancestors += 1  # the norm root itself rolls too
            expected += 1 + (ancestors - 1)
    assert len(fixture_store.ctvs) == expected == 29

    # Unchanged sibling versions are shared by id, not copied.
    cap2_2000 = fixture_store.ctvs[f"{NORM_URN}!tit2_cap2@2000-02-15"]
    art7_first = versions_of(fixture_store, ART7)[0]
    assert art7_first in aggregation(fixture_store)[cap2_2000.id]
    assert len(versions_of(fixture_store, ART7)) == 2  # 1988 + CA 72 only
    report(5, "aggregation economy", f"{expected} temporal versions, closed form")


def test_criterion_6_anachronism_exclusion():
    rng = random.Random(2024)
    successes = 0
    violations = 0
    seed = 0
    while successes < 1000:
        corpus = synthcorpus.generate_corpus(seed, max_components=10, max_events=15)
        seed += 1
        store = synthcorpus.build_store(corpus)
        works = sorted(store.versions)
        horizon = (corpus.event_dates()[-1] if corpus.event_dates()
                   else corpus.enactment) + timedelta(days=400)
        for _ in range(40):
            urn = rng.choice(works)
            t = date.fromordinal(rng.randint(
                corpus.enactment.toordinal() - 30, horizon.toordinal()))
            query = StructuredQuery(
                QueryPattern.POINT_IN_TIME, structural_target=urn,
                temporal=TemporalScope.instant(t))
            try:
                answer = run(store, query, t)
            except (NotYetEnacted, RepealedAt):
                continue
            successes += 1
            for _, ctv, _ in answer.citations:
                if not store.ctvs[ctv].contains(t):
                    violations += 1
    assert violations == 0
    report(6, "anachronism exclusion", f"{successes} probes, 0 violations")


def test_criterion_7_multilingual_economy(corpus_dir):
    store = GraphStore()
    doc = parse_document(
        (corpus_dir / "constitution_1988.satdoc.json").read_text(encoding="utf-8"))
    enact(store, doc)
    event_files = [(path.name, parse_event_file(path.read_text(encoding="utf-8"), path=str(path)))
                   for path in sorted(corpus_dir.glob("*.satev.json"))]
    apply_events(store, event_files)

    before = store.node_counts()
    created = add_language(
        store, NORM_URN,
        {"art6_cpt": "Social rights are education, health, work, leisure, "
                     "security, social security, protection of motherhood and "
                     "childhood, and assistance to the destitute, in the manner "
                     "prescribed by this Constitution."},
        "en", at=date(1988, 10, 5))
    after = store.node_counts()

    assert len(created) == 1
    assert after["works"] == before["works"]
    assert after["temporal_versions"] == before["temporal_versions"]
    assert after["language_versions"] == before["language_versions"] + 1
    assert after["text_units"] == before["text_units"] + 1
    report(7, "multilingual economy", "work and version counts unchanged")


def test_criterion_8_metrics_all_ones(snapshot_path, corpus_dir, capsys):
    code = main(["eval", "--snapshot", str(snapshot_path),
                 "--truth", str(corpus_dir / "reference.sattruth.json"),
                 "--min", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("1.000") == 5
    with capsys.disabled():
        report(8, "eval metrics at 1.0", "exit 0 under --min 1.0")


def test_criterion_9_determinism(corpus_dir, snapshot_path, tmp_path, capsys):
    query_args = ["query", "at", "--snapshot", str(snapshot_path),
                  "--target", "art6", "--between", "1999-01-01", "1999-12-31",
                  "--json", "--clock", "2024-01-02"]
    assert main(query_args) == 0
    first = capsys.readouterr().out
    assert main(query_args) == 0
    second = capsys.readouterr().out
    assert first == second

    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    assert main(["ingest", str(corpus_dir), "--out", str(a)]) == 0
    assert main(["ingest", str(corpus_dir), "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    with capsys.disabled():
        report(9, "determinism", "byte-identical queries and snapshots")
