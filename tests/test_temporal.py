from __future__ import annotations

import json
import random
from datetime import date, timedelta

import pytest

from normgraph.errors import MissingLanguage, NotYetEnacted, RepealedAt, UnknownEntry
from normgraph.ingest import enact, parse_document
from normgraph.store import GraphStore
from normgraph.temporal import (
    MembershipPolicy,
    SnapshotPolicy,
    TemporalScope,
    ctv_at,
    resolve_instant,
    resolve_scope,
    snapshot_text,
)

import synthcorpus
from reference_ids import ART6, ART6_CPT, ART7, ART7_CPT, CAP2, NORM_URN
from test_ingest import amendment_file, apply_file, mini_doc


class TestResolveInstant:
    def test_interval_snapshot_last_takes_supremum(self):
        scope = TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))
        assert resolve_instant(scope, date(2024, 1, 1)) == date(1999, 12, 31)

    def test_interval_snapshot_first_takes_infimum(self):
        scope = TemporalScope.interval(
            date(1999, 1, 1), date(1999, 12, 31), SnapshotPolicy.SNAPSHOT_FIRST)
        assert resolve_instant(scope, date(2024, 1, 1)) == date(1999, 1, 1)

    def test_instant_is_identity(self):
        scope = TemporalScope.instant(date(2000, 2, 15))
        assert resolve_instant(scope, date(2024, 1, 1)) == date(2000, 2, 15)

    def test_now_uses_injected_clock(self):
        assert resolve_instant(TemporalScope.now(), date(2024, 1, 2)) == date(2024, 1, 2)

    def test_only_now_needs_a_clock(self):
        assert resolve_instant(TemporalScope.instant(date(2000, 2, 15))) == date(2000, 2, 15)
        with pytest.raises(ValueError, match="needs the injected clock"):
            resolve_instant(TemporalScope.now())

    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            TemporalScope.interval(date(2001, 1, 1), date(2000, 1, 1))


class TestCtvAt:
    def test_1999_resolves_to_original_version(self, fixture_store):
        tv = ctv_at(fixture_store, ART6_CPT, date(1999, 12, 31))
        assert tv.validity.valid_start == date(1988, 10, 5)

    def test_inclusive_start_boundary(self, fixture_store):
        tv = ctv_at(fixture_store, ART6_CPT, date(1988, 10, 5))
        assert tv.validity.valid_start == date(1988, 10, 5)

    def test_before_enactment_raises(self, fixture_store):
        with pytest.raises(NotYetEnacted) as exc:
            ctv_at(fixture_store, ART6_CPT, date(1980, 1, 1))
        assert exc.value.at == date(1980, 1, 1)

    def test_after_repeal_raises(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2003-06-01", "", action_type="repeal"))
        with pytest.raises(RepealedAt) as exc:
            ctv_at(store, "urn:test:mini!art1_cpt", date(2004, 1, 1))
        assert exc.value.repealed_end == date(2003, 6, 1)

    def test_amendment_day_resolves_to_new_version(self, fixture_store):
        tv = ctv_at(fixture_store, ART6_CPT, date(2000, 2, 15))
        assert tv.validity.valid_start == date(2000, 2, 15)
        previous = ctv_at(fixture_store, ART6_CPT, date(2000, 2, 14))
        assert previous.validity.valid_start == date(1988, 10, 5)


class TestResolveScope:
    def test_chapter_scope_contains_both_article_subtrees(self, fixture_store):
        scope = resolve_scope(fixture_store, CAP2, date(2010, 1, 1))
        assert ART6 in scope and ART6_CPT in scope
        assert ART7 in scope and ART7_CPT in scope
        assert f"{NORM_URN}!art7_item1" in scope
        assert NORM_URN not in scope

    def test_leaf_scope_is_singleton(self, fixture_store):
        scope = resolve_scope(fixture_store, ART6_CPT, date(2010, 1, 1))
        assert set(scope) == {ART6_CPT}

    def test_unknown_entry(self, fixture_store):
        with pytest.raises(UnknownEntry):
            resolve_scope(fixture_store, "urn:nowhere", date(2010, 1, 1))

    def test_lifetime_adds_component_inserted_mid_window(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1", "2001-06-01", "", components=[
                {"fragment": "art1_par1", "type": "paragraph", "text": "Inserted."}]))
        window = (date(2001, 1, 1), date(2001, 12, 31))
        anchored = resolve_scope(store, "urn:test:mini!art1", window[0],
                                 MembershipPolicy.SNAPSHOT_ANCHORED, window=window)
        lifetime = resolve_scope(store, "urn:test:mini!art1", window[0],
                                 MembershipPolicy.LIFETIME, window=window)
        # Hand enumeration: at the window start only art1 and its caput
        # exist; the inserted paragraph lives only under lifetime scoping.
        assert set(anchored) == {"urn:test:mini!art1", "urn:test:mini!art1_cpt"}
        assert set(lifetime) == set(anchored) | {"urn:test:mini!art1_par1"}

    def test_action_time_scope_tracks_liveness_at_event_dates(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc()))
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2001-06-01", "", action_type="repeal"))
        apply_file(store, amendment_file(
            "urn:test:mini!art2_cpt", "2002-06-01", "Second v2."))
        window = (date(2002, 1, 1), date(2002, 12, 31))
        scope = resolve_scope(store, "urn:test:mini", window[0],
                              MembershipPolicy.ACTION_TIME, window=window)
        # Only the 2002 amendment fires in-window; art1's caput was already
        # repealed when it did.
        assert "urn:test:mini!art2_cpt" in scope
        assert "urn:test:mini!art1_cpt" not in scope

    def test_action_time_takes_event_dates_from_every_norm(self):
        """Pins today's meaning: any norm's in-window action dates admit components.

        Norm A has no action in the window; norm B is amended inside it. A's
        components alive on B's date are admitted, and without B's event A's
        scope is empty.
        """
        def store_with(events):
            store = GraphStore()
            enact(store, parse_document(mini_doc()))
            other = mini_doc()
            other["norm"].update(urn="urn:test:other", title="Other Statute", short_title="OS")
            enact(store, parse_document(other))
            for event in events:
                apply_file(store, event)
            return store

        window = (date(2002, 1, 1), date(2002, 12, 31))
        b_amended = amendment_file("urn:test:other!art2_cpt", "2002-06-01", "Other v2.")

        def scope_of_a(store):
            return set(resolve_scope(store, "urn:test:mini", window[0],
                                     MembershipPolicy.ACTION_TIME, window=window))

        assert scope_of_a(store_with([b_amended])) == {
            "urn:test:mini", "urn:test:mini!art1", "urn:test:mini!art1_cpt",
            "urn:test:mini!art2", "urn:test:mini!art2_cpt"}
        assert scope_of_a(store_with([])) == set()

    def test_theme_entry_expands_members(self, fixture_store):
        theme_scope_result = resolve_scope(
            fixture_store, "theme:social-rights", date(2010, 1, 1))
        direct = resolve_scope(fixture_store, CAP2, date(2010, 1, 1))
        assert set(theme_scope_result) == set(direct)


class TestSnapshotText:
    def test_2005_text_has_housing_but_not_food(self, fixture_store):
        fragments = snapshot_text(fixture_store, ART6, date(2005, 1, 1))
        assert len(fragments) == 1
        work, text = fragments[0]
        assert work == ART6_CPT
        assert "housing" in text
        assert "food" not in text

    def test_single_leaf_norm(self):
        store = GraphStore()
        enact(store, parse_document(mini_doc(fragments=1)))
        fragments = snapshot_text(store, "urn:test:mini", date(2001, 1, 1))
        assert fragments == [("urn:test:mini!art1_cpt", "Provision 1 original text.")]

    def test_language_fallback_and_missing_language(self, fixture_store):
        with_fallback = snapshot_text(
            fixture_store, ART7, date(2014, 1, 1), language="en")
        assert with_fallback  # falls back to the primary language text
        with pytest.raises(MissingLanguage):
            snapshot_text(fixture_store, ART7, date(2014, 1, 1),
                          language="en", language_fallback=False)

    def test_translated_version_served_in_requested_language(self, fixture_store):
        fragments = snapshot_text(fixture_store, ART6, date(1999, 6, 1), language="en")
        assert len(fragments) == 1
        assert "education" in fragments[0][1]

    def test_fixture_snapshots_match_replay_oracle(self, corpus_dir):
        doc = json.loads(
            (corpus_dir / "constitution_1988.satdoc.json").read_text(encoding="utf-8"))
        event_files = []
        for path in sorted(corpus_dir.glob("*.satev.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("events"):
                event_files.append(payload)
        event_files.sort(key=lambda ef: ef["events"][0]["effective_date"])
        corpus = synthcorpus.SynthCorpus(doc=doc, event_files=event_files)
        store = synthcorpus.build_store(corpus)
        for at in [corpus.enactment] + corpus.event_dates():
            assert snapshot_text(store, corpus.norm_urn, at) == \
                synthcorpus.oracle_snapshot(corpus, at), at

    def test_snapshot_constant_inside_interval(self, fixture_store):
        for tv in fixture_store.versions_of(NORM_URN):
            start = tv.validity.valid_start
            end = tv.validity.valid_end or (start + timedelta(days=400))
            probes = {start, end - timedelta(days=1),
                      start + (end - start) // 2}
            snapshots = {
                tuple(snapshot_text(fixture_store, NORM_URN, p)) for p in probes}
            assert len(snapshots) == 1, tv.id


class TestUniquenessProperty:
    def test_exactly_one_version_per_alive_instant(self):
        rng = random.Random(11)
        for seed in range(30):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            horizon = corpus.enactment.toordinal() + 7000
            for urn, chain in store.versions.items():
                versions = [store.ctvs[c] for c in chain]
                for _ in range(5):
                    t = date.fromordinal(
                        rng.randint(corpus.enactment.toordinal(), horizon))
                    holders = [
                        v for v in versions
                        if v.validity.valid_start <= t
                        and (v.validity.valid_end is None or t < v.validity.valid_end)
                    ]
                    assert len(holders) <= 1, (seed, urn, t)
