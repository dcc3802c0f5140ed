from __future__ import annotations

import random
from datetime import date

import pytest

from normgraph.model import (
    ActionNode,
    ActionType,
    ComponentType,
    TemporalVersion,
    ValidityInterval,
    WorkId,
    WorkKind,
    WorkNode,
    ctv_id,
    interval_contains,
    parse_iso_date,
    validate_graph,
)
from normgraph.store import GraphStore

import synthcorpus


class TestParseIsoDate:
    def test_reads_a_calendar_date(self):
        assert parse_iso_date("2000-02-14") == date(2000, 2, 14)

    @pytest.mark.parametrize("value", [
        "20000214",  # basic format: read by date.fromisoformat from Python 3.11 on
        "2000-W07-1",  # ISO week date: likewise
        "2000-045",  # ordinal date
        "2000-02-14T00:00", "2000-02-14 ", "2000-02-14\n", "2000-2-14",
        "２０００-02-14",  # digits that are not ASCII
        "2000-13-01", "2000-02-30", "", None, 20000214,
    ])
    def test_rejects_anything_else(self, value):
        with pytest.raises(ValueError, match="not a YYYY-MM-DD date"):
            parse_iso_date(value)


def iv(start: str, end: str | None = None) -> ValidityInterval:
    return ValidityInterval(
        date.fromisoformat(start),
        date.fromisoformat(end) if end else None,
    )


class TestIntervalContains:
    def test_paper_1999_lookup_hits_original_version(self):
        assert interval_contains(iv("1988-10-05", "2000-02-15"), date(1999, 6, 1))

    def test_start_boundary_is_inclusive(self):
        assert interval_contains(iv("1988-10-05"), date(1988, 10, 5))

    def test_end_boundary_is_exclusive(self):
        # "valid until 2010-02-03" is stored as valid_end 2010-02-04
        assert not interval_contains(iv("2000-02-15", "2010-02-04"), date(2010, 2, 4))

    def test_before_start(self):
        assert not interval_contains(iv("1988-10-05"), date(1980, 1, 1))


class TestValidityInterval:
    def test_start_must_precede_end(self):
        with pytest.raises(ValueError):
            ValidityInterval(date(2000, 1, 2), date(2000, 1, 2))

    def test_last_valid_day(self):
        assert iv("2000-02-15", "2010-02-04").last_valid_day == date(2010, 2, 3)
        assert iv("2000-02-15").last_valid_day is None

    def test_open_interval(self):
        assert iv("1988-10-05").is_open


class TestWorkId:
    def test_fragment_and_norm_urn(self):
        wid = WorkId("urn:lex:x;1988!art6_cpt")
        assert wid.fragment == "art6_cpt"
        assert wid.norm_urn == "urn:lex:x;1988"

    def test_norm_level_urn_has_no_fragment(self):
        assert WorkId("urn:lex:x;1988").fragment is None

    def test_empty_urn_rejected(self):
        with pytest.raises(ValueError):
            WorkId("")

    def test_aliases_do_not_affect_identity(self):
        assert WorkId("urn:x", ("A",)) == WorkId("urn:x", ("B",))


def _two_version_store(second_start: str, first_end: str) -> GraphStore:
    """Minimal store: one norm work with two versions and their actions."""
    store = GraphStore()
    urn = "urn:test:n"
    store.add_work(WorkNode(id=WorkId(urn), kind=WorkKind.NORM,
                            component_type=ComponentType.OTHER))
    first = TemporalVersion(
        id=ctv_id(urn, date(2000, 1, 1)), work=urn,
        validity=iv("2000-01-01", first_end), produced_by="act:e", terminated_by="act:a")
    second = TemporalVersion(
        id=ctv_id(urn, date.fromisoformat(second_start)), work=urn,
        validity=iv(second_start), produced_by="act:a")
    store.add_ctv(first)
    store.add_ctv(second)
    store.add_action(ActionNode(
        id="act:e", action_type=ActionType.ENACTMENT,
        enactment_date=date(2000, 1, 1), effective_date=date(2000, 1, 1),
        produces=(first.id,), targets=(urn,)))
    store.add_action(ActionNode(
        id="act:a", action_type=ActionType.AMENDMENT,
        enactment_date=date.fromisoformat(first_end),
        effective_date=date.fromisoformat(first_end),
        terminates=(first.id,), produces=(second.id,),
        source_provision=None, targets=(urn,)))
    return store


class TestValidateGraph:
    def test_fixture_graph_is_clean(self, fixture_store):
        assert validate_graph(fixture_store) == []

    def test_overlapping_versions_reported(self):
        # Second version starts one day before the first one ends.
        store = _two_version_store("2000-06-14", "2000-06-15")
        codes = [v.code for v in validate_graph(store)]
        assert codes.count("OverlappingValidity") == 1

    def test_gap_between_versions_reported(self):
        store = _two_version_store("2000-06-20", "2000-06-15")
        codes = [v.code for v in validate_graph(store)]
        assert "ValidityGap" in codes

    def test_action_date_mismatch_reported(self):
        # Amendment effective 2000-06-15 but the produced version starts later.
        store = _two_version_store("2000-06-16", "2000-06-15")
        violations = [v for v in validate_graph(store) if v.code == "ActionDateMismatch"]
        assert len(violations) == 1
        assert "act:a" in violations[0].nodes

    def test_synthetic_corpora_satisfy_all_invariants(self):
        for seed in range(25):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            assert validate_graph(store) == [], f"seed {seed}"


class TestTilingProperty:
    def test_versions_tile_without_gaps(self, fixture_store):
        for urn in fixture_store.works:
            chain = fixture_store.versions.get(urn, [])
            versions = [fixture_store.ctvs[c] for c in chain]
            for prev, cur in zip(versions, versions[1:]):
                assert prev.validity.valid_end == cur.validity.valid_start
            if versions:
                assert versions[-1].validity.is_open or versions[-1].terminated_by

    def test_random_probe_hits_exactly_one_version(self, fixture_store):
        rng = random.Random(7)
        for urn, chain in fixture_store.versions.items():
            versions = [fixture_store.ctvs[c] for c in chain]
            start = versions[0].validity.valid_start.toordinal()
            for _ in range(20):
                t = date.fromordinal(rng.randint(start, start + 15000))
                holders = [v for v in versions if interval_contains(v.validity, t)]
                assert len(holders) <= 1
                if versions[-1].validity.is_open:
                    assert len(holders) == 1
