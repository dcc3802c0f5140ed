from __future__ import annotations

import itertools
import json
import random
from datetime import date, timedelta

import pytest

from normgraph.errors import MissingLanguage, NotYetEnacted, RepealedAt, UnknownEntry, UnknownWork
from normgraph.ingest import enact, ingest_corpus, parse_document
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
from normgraph.themes import define_theme

import synthcorpus
from reference_ids import ART6, ART6_CPT, ART7, ART7_CPT, CAP2, NORM_URN
from test_ingest import amendment_file, apply_file, mini_doc, versions_of


class TestResolveInstant:
    def test_interval_snapshot_last_takes_supremum(self):
        scope = TemporalScope.interval(date(1999, 1, 1), date(1999, 12, 31))
        assert resolve_instant(scope) == date(1999, 12, 31)

    def test_interval_snapshot_first_takes_infimum(self):
        scope = TemporalScope.interval(
            date(1999, 1, 1), date(1999, 12, 31), SnapshotPolicy.SNAPSHOT_FIRST)
        assert resolve_instant(scope) == date(1999, 1, 1)

    def test_instant_is_identity(self):
        scope = TemporalScope.instant(date(2000, 2, 15))
        assert resolve_instant(scope) == date(2000, 2, 15)

    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            TemporalScope.interval(date(2001, 1, 1), date(2000, 1, 1))


class TestCtvAt:
    def test_1999_resolves_to_original_version(self, fixture_store):
        tv = ctv_at(fixture_store, ART6_CPT, date(1999, 12, 31))
        assert tv.valid_start == date(1988, 10, 5)

    def test_inclusive_start_boundary(self, fixture_store):
        tv = ctv_at(fixture_store, ART6_CPT, date(1988, 10, 5))
        assert tv.valid_start == date(1988, 10, 5)

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
        assert tv.valid_start == date(2000, 2, 15)
        previous = ctv_at(fixture_store, ART6_CPT, date(2000, 2, 14))
        assert previous.valid_start == date(1988, 10, 5)


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


def _reference_scope(store, entry, t, policy, window):
    """Scope membership as defined version by version, not from lifetimes.

    snapshot_anchored: alive at the anchor; lifetime: some version overlaps
    ``[t1, t2]``; action_time: alive on some in-window action date of any norm.
    """
    if entry in store.themes:
        return set().union(*(_reference_scope(store, member, t, policy, window)
                             for member in store.themes[entry].members))
    t1, t2 = window if window else (t, t)
    dates = {a.effective_date for a in store.actions.values() if t1 <= a.effective_date <= t2}

    def alive(urn, day):
        return any(tv.contains(day) for tv in versions_of(store, urn))

    def member(urn):
        if policy is MembershipPolicy.SNAPSHOT_ANCHORED:
            return alive(urn, t1)
        if policy is MembershipPolicy.LIFETIME:
            return any(tv.valid_start <= t2
                       and (tv.valid_end is None or tv.valid_end > t1)
                       for tv in versions_of(store, urn))
        return any(alive(urn, day) for day in dates)

    return {urn for urn in store.descendants(entry) if member(urn)}


def _reference_ctv_at(store, work, t):
    """ctv_at read from the whole chain, as ``versions_of`` lists it."""
    chain = versions_of(store, work)
    for tv in chain:
        if tv.contains(t):
            return tv
    if not chain:
        raise NotYetEnacted(work, t)
    if t < chain[0].valid_start:
        raise NotYetEnacted(work, t, first_start=chain[0].valid_start)
    raise RepealedAt(work, t, repealed_end=chain[-1].valid_end)


def _outcome(call):
    """What a ctv_at call gives: the version's id, or the error with its attributes."""
    try:
        return call().id
    except (NotYetEnacted, RepealedAt) as exc:
        return type(exc).__name__, vars(exc)


def _two_norm_store():
    """Two norms as test_action_time_takes_event_dates_from_every_norm builds them, plus a repeal
    and a theme over both."""
    store = GraphStore()
    enact(store, parse_document(mini_doc()))
    other = mini_doc()
    other["norm"].update(urn="urn:test:other", title="Other Statute", short_title="OS")
    enact(store, parse_document(other))
    apply_file(store, amendment_file("urn:test:other!art2_cpt", "2002-06-01", "Other v2."))
    apply_file(store, amendment_file("urn:test:mini!art1_cpt", "2003-06-01", "", action_type="repeal"))
    define_theme(store, "Both", "Provisions of both norms.", ["urn:test:mini!art1", "urn:test:other"])
    return store


def _reference_stores(fixture_store):
    yield "fixture", fixture_store
    yield "two norms", _two_norm_store()
    for seed in range(25):
        yield f"seed {seed}", synthcorpus.build_store(synthcorpus.generate_corpus(seed))


def _uncommitted_fixture(corpus_dir, monkeypatch):
    """The fixture corpus ingested as ingest_corpus ingests it, but left uncommitted."""
    with monkeypatch.context() as patch:
        patch.setattr(GraphStore, "commit", lambda store: None)
        store, _ = ingest_corpus(corpus_dir)
    return store


def _probe_days(store):
    """Each action date, the days either side of it, days long before and after them all,
    and the first and last days there are."""
    dates = sorted({a.effective_date for a in store.actions.values()})
    one = timedelta(days=1)
    return dates, sorted({date.min, date.max,
                          dates[0] - timedelta(days=400), dates[-1] + timedelta(days=400),
                          *dates, *(d - one for d in dates), *(d + one for d in dates)})


class TestAgainstReference:
    """resolve_scope and ctv_at give what the version-by-version definitions give."""

    def test_resolve_scope_matches_the_reference(self, corpus_dir, monkeypatch):
        """Each store is judged uncommitted, when every read derives the time index
        afresh, and again after commit(), when the first read publishes it."""
        rng = random.Random(18)
        checked = 0
        for name, store in _reference_stores(_uncommitted_fixture(corpus_dir, monkeypatch)):
            dates, days = _probe_days(store)
            first, last = days[0], days[-1]
            # Before enactment, after the last event (a repeal's end among
            # them), and one day long on each action date.
            edges = [(first, first + timedelta(days=30)), (last - timedelta(days=30), last),
                     *((d, d) for d in dates)]
            probes = []
            for entry in [*sorted(store.works), *sorted(store.themes)]:
                windows = edges + [tuple(sorted(rng.sample(days, 2))) for _ in range(12)]
                cases = [(day, None) for day in rng.sample(days, min(8, len(days)))]
                cases += [(window[0], window) for window in windows]
                probes += [(entry, t, policy, window)
                           for (t, window), policy in itertools.product(cases, MembershipPolicy)]
            expected = [_reference_scope(store, *probe) for probe in probes]
            assert not store.committed
            for stage in ("uncommitted", "committed"):
                if stage == "committed":
                    store.commit()
                for (entry, t, policy, window), want in zip(probes, expected):
                    got = resolve_scope(store, entry, t, policy, window=window)
                    assert got == want, (name, stage, entry, t, policy, window)
                    checked += 1
        assert checked > 80_000

    def test_ctv_at_matches_the_reference(self, fixture_store):
        for name, store in _reference_stores(fixture_store):
            _, days = _probe_days(store)
            for work in store.works:
                for day in days:
                    assert _outcome(lambda: ctv_at(store, work, day)) == \
                        _outcome(lambda: _reference_ctv_at(store, work, day)), (name, work, day)
        with pytest.raises(UnknownWork):
            ctv_at(fixture_store, "urn:nowhere", date(2000, 1, 1))


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
        for tv in versions_of(fixture_store, NORM_URN):
            start = tv.valid_start
            end = tv.valid_end or (start + timedelta(days=400))
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
                        if v.valid_start <= t
                        and (v.valid_end is None or t < v.valid_end)
                    ]
                    assert len(holders) <= 1, (seed, urn, t)
