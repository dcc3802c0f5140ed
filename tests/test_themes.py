from __future__ import annotations

from datetime import date

import pytest

from normgraph.errors import DuplicateLabel, UnknownMember, UnknownTheme
from normgraph.ingest import enact, parse_document
from normgraph.model import Aspect
from normgraph.retrieval import RetrievalRequest, scoped_search
from normgraph.store import GraphStore
from normgraph.temporal import MembershipPolicy, resolve_scope
from normgraph.themes import define_theme, theme_scope

from reference_ids import CAP2
from test_ingest import amendment_file, apply_file, mini_doc


def fresh_store() -> GraphStore:
    store = GraphStore()
    enact(store, parse_document(mini_doc()))
    return store


class TestDefineTheme:
    def test_theme_with_member_and_description(self):
        store = fresh_store()
        tid = define_theme(store, "Taxation", "Provisions about taxes.",
                           ["urn:test:mini!art1"])
        theme = store.themes[tid]
        assert theme.members == ("urn:test:mini!art1",)
        assert theme.description_unit == f"tu:{tid}:desc"
        assert store.units[theme.description_unit].text == "Provisions about taxes."

    def test_empty_member_list_is_valid(self):
        store = fresh_store()
        tid = define_theme(store, "Future", "Grows later.", [])
        assert store.themes[tid].members == ()

    def test_unknown_member(self):
        store = fresh_store()
        with pytest.raises(UnknownMember):
            define_theme(store, "Broken", "x", ["urn:test:mini!artX"])

    def test_duplicate_label(self):
        store = fresh_store()
        define_theme(store, "Taxation", "x", [])
        with pytest.raises(DuplicateLabel):
            define_theme(store, "Taxation", "y", [])


class TestThemeScope:
    def test_singleton_theme_equals_member_scope(self, fixture_store):
        for policy in MembershipPolicy:
            themed = theme_scope(
                fixture_store, "theme:social-rights", date(2012, 1, 1), policy,
                window=(date(2012, 1, 1), date(2016, 1, 1)))
            direct = resolve_scope(
                fixture_store, CAP2, date(2012, 1, 1), policy,
                window=(date(2012, 1, 1), date(2016, 1, 1)))
            assert themed == set(direct), policy

    def test_multi_member_union_deduplicated(self):
        store = fresh_store()
        tid = define_theme(store, "Everything", "x",
                           ["urn:test:mini!art1", "urn:test:mini!art1_cpt",
                            "urn:test:mini!art2"])
        scope = theme_scope(store, tid, date(2001, 1, 1),
                            MembershipPolicy.SNAPSHOT_ANCHORED)
        assert scope == {
            "urn:test:mini!art1", "urn:test:mini!art1_cpt",
            "urn:test:mini!art2", "urn:test:mini!art2_cpt"}

    def test_repealed_members_resolve_empty(self):
        store = fresh_store()
        apply_file(store, amendment_file(
            "urn:test:mini!art1_cpt", "2002-01-01", "", action_type="repeal"))
        tid = define_theme(store, "Gone", "x", ["urn:test:mini!art1_cpt"])
        assert theme_scope(store, tid, date(2003, 1, 1),
                           MembershipPolicy.SNAPSHOT_ANCHORED) == set()

    def test_unknown_theme(self, fixture_store):
        with pytest.raises(UnknownTheme):
            theme_scope(fixture_store, "theme:nope", date(2012, 1, 1),
                        MembershipPolicy.SNAPSHOT_ANCHORED)


class TestThemeDescriptionsDiscoverable:
    def test_scoped_search_finds_theme_description(self, fixture_store):
        request = RetrievalRequest(
            query_text="social rights provisions",
            scope=frozenset({CAP2}),
            t=date(2016, 1, 1),
            aspects=frozenset({Aspect.THEME_DESCRIPTION}),
        )
        hits = scoped_search(fixture_store, request)
        assert len(hits) == 1
        assert hits[0].provenance[2] == "theme:social-rights"
