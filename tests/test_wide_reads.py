"""Both walks of each wide read find the same answer, and the lengths rule picks each.

Content candidates come from the version run or from each scoped work's
chain, action candidates from the action run's prefix or from each scoped
work's actions, and impact actions from the window's slice of the action
run or from each scoped work's actions; each side is called directly here,
on multi-norm synthetic stores and on the reference corpus. Provenance,
corpus-wide and per norm, renders on the multi-norm stores as the plain
reference renderer does.
"""

from __future__ import annotations

from datetime import date, timedelta
from functools import lru_cache
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from normgraph import planner, retrieval
from normgraph.ingest import add_language, apply_events, enact, parse_document
from normgraph.planner import QueryPattern, StructuredQuery
from normgraph.retrieval import RetrievalRequest
from normgraph.store import GraphStore
from normgraph.temporal import MembershipPolicy, alive_at, resolve_scope
from normgraph.themes import define_theme

import synthcorpus
from test_properties import _SPANISH, _answers_as_the_reference, _spanish_wordings

_OPEN_END = date(9999, 12, 31)  # a legal query date: an open version is valid on it
_LANGUAGES = [None, "en", "es", "pt", "fr"]


@lru_cache(maxsize=None)
def _multi_norm_store(seeds: tuple[int, ...]) -> GraphStore:
    """The synthetic norms of ``seeds`` in one store, committed.

    Every other provision of each norm gets Spanish wording at its
    enactment, and a theme holds the first article of every norm.
    """
    store = GraphStore()
    corpora = [synthcorpus.generate_corpus(seed) for seed in seeds]
    for corpus in corpora:
        enact(store, parse_document(corpus.doc))
        apply_events(store, synthcorpus.event_files(corpus))
    for corpus in corpora:
        provisions = store.descendants(corpus.norm_urn)
        add_language(store, corpus.norm_urn,
                     _spanish_wordings(store, provisions[1::2], corpus.enactment), "es",
                     at=corpus.enactment)
    define_theme(store, "First articles", "The first article of every norm.",
                 [store.descendants(corpus.norm_urn)[1] for corpus in corpora])
    store.commit()
    return store


_STORES = [(3, 8, 13), (5, 21, 34, 40), (11, 17)]


def _stores(fixture_store: GraphStore) -> list[GraphStore]:
    return [fixture_store] + [_multi_norm_store(seeds) for seeds in _STORES]


def _days(store: GraphStore) -> list[date]:
    """Each version's start and end and the days beside them, a day before every start,
    and 9999-12-31."""
    days = {_OPEN_END}
    for tv in store.ctvs.values():
        days.update({tv.valid_start - timedelta(days=1), tv.valid_start})
        if tv.valid_end is not None:
            days.update({tv.valid_end - timedelta(days=1), tv.valid_end})
    return sorted(days)


def _draw_day(data, store: GraphStore) -> date:
    days = _days(store)
    return data.draw(st.one_of(st.sampled_from(days),
                               st.dates(min_value=days[0], max_value=days[-2])))


def _draw_scope(data, store: GraphStore, t: date, window=None) -> frozenset[str]:
    """One subtree, a theme's union or every work."""
    kind = data.draw(st.sampled_from(["subtree", "theme", "every"]))
    if kind == "every":
        return frozenset(store.works)
    policy = data.draw(st.sampled_from(list(MembershipPolicy)))
    if kind == "theme":
        return resolve_scope(store, data.draw(st.sampled_from(sorted(store.themes))), t, policy,
                             window=window)
    return resolve_scope(store, data.draw(st.sampled_from(sorted(store.works))), t, policy,
                         window=window)


class _Filed(dict):
    """A candidate map that fails when a finder files one unit twice."""

    def __setitem__(self, uid, entry) -> None:
        assert uid not in self, uid
        super().__setitem__(uid, entry)


def _filed(find, store: GraphStore, request: RetrievalRequest) -> dict:
    """The unit -> (reference, aspect) map that ``find`` files, each unit once."""
    found = _Filed()
    find(store, request, found)
    return dict(found)


class TestBothSides:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_content_candidates_are_the_same_from_the_run_and_the_chains(
            self, fixture_store, data):
        store = data.draw(st.sampled_from(_stores(fixture_store)))
        t = _draw_day(data, store)
        request = RetrievalRequest(
            query_text="", scope=_draw_scope(data, store, t), t=t,
            language=data.draw(st.sampled_from(_LANGUAGES)),
            language_fallback=data.draw(st.booleans()))
        by_run = _filed(retrieval._content_by_run, store, request)
        by_chains = _filed(retrieval._content_by_chains, store, request)
        assert by_run == by_chains == _filed(retrieval._content_candidates, store, request)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_action_candidates_are_the_same_from_the_run_and_the_works(self, fixture_store, data):
        store = data.draw(st.sampled_from(_stores(fixture_store)))
        t = _draw_day(data, store)
        request = RetrievalRequest(
            query_text="", scope=_draw_scope(data, store, t), t=t,
            include_future_actions=data.draw(st.booleans()))
        _, dates = store.time_index.run
        taken = len(dates) if request.include_future_actions else sum(d <= t for d in dates)
        by_run = _filed(lambda s, r, found: retrieval._actions_by_run(s, r, taken, found),
                        store, request)
        by_works = _filed(retrieval._actions_by_works, store, request)
        assert by_run == by_works == _filed(retrieval._action_candidates, store, request)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_impact_actions_are_the_same_from_the_run_and_the_works(self, fixture_store, data):
        store = data.draw(st.sampled_from(_stores(fixture_store)))
        t1, t2 = sorted((_draw_day(data, store), _draw_day(data, store)))
        policy = data.draw(st.sampled_from(list(MembershipPolicy)))
        scope = _draw_scope(data, store, t1, window=(t1, t2))
        query = StructuredQuery(QueryPattern.IMPACT_ANALYSIS, membership=policy)
        found, calls = [], []
        for side in (planner._impact_by_run, planner._impact_by_works, planner._impact_actions):
            with mock.patch.object(planner, "alive_at", wraps=alive_at) as counted:
                found.append(side(store, query, scope, (t1, t2)))
            calls.append(counted.call_count)
        assert found[0] == found[1] == found[2]
        # Both sides check the same targets' lifetimes, so the alive_at count repeats.
        assert calls[0] == calls[1] == calls[2]
        assert policy is MembershipPolicy.ACTION_TIME or calls[0] == 0


class TestTheLengthsRule:
    def test_each_wide_read_takes_each_side(self, fixture_store):
        for store in _stores(fixture_store):
            every = frozenset(store.works)
            run = store.chain_index.run
            leaf = frozenset({run.works[-1]})
            with mock.patch.object(retrieval, "_content_by_run",
                                   wraps=retrieval._content_by_run) as by_run, \
                    mock.patch.object(retrieval, "_content_by_chains",
                                      wraps=retrieval._content_by_chains) as by_chains:
                # Every work at the first start: a few started versions against every work.
                _filed(retrieval._content_candidates, store, RetrievalRequest("", every,
                                                                              run.starts[0]))
                assert (by_run.call_count, by_chains.call_count) == (1, 0)
                # One work at the open end: every worded version has started.
                _filed(retrieval._content_candidates, store, RetrievalRequest("", leaf, _OPEN_END))
                assert (by_run.call_count, by_chains.call_count) == (1, 1)

            ids, dates = store.time_index.run
            with mock.patch.object(retrieval, "_actions_by_run",
                                   wraps=retrieval._actions_by_run) as by_run, \
                    mock.patch.object(retrieval, "_actions_by_works",
                                      wraps=retrieval._actions_by_works) as by_works:
                # Every work on the first action's day: the actions of that day against every work.
                _filed(retrieval._action_candidates, store, RetrievalRequest("", every, dates[0]))
                assert (by_run.call_count, by_works.call_count) == (1, 0)
                # One work with future actions: the prefix is the whole run.
                future = RetrievalRequest("", leaf, dates[0], include_future_actions=True)
                _filed(retrieval._action_candidates, store, future)
                assert (by_run.call_count, by_works.call_count) == (1, 1)
                # Every work on the last action's day: each store has fewer actions than works.
                assert len(ids) < len(every)
                _filed(retrieval._action_candidates, store, RetrievalRequest("", every, dates[-1]))
                assert (by_run.call_count, by_works.call_count) == (2, 1)

            query = StructuredQuery(QueryPattern.IMPACT_ANALYSIS)
            with mock.patch.object(planner, "_impact_by_run",
                                   wraps=planner._impact_by_run) as by_run, \
                    mock.patch.object(planner, "_impact_by_works",
                                      wraps=planner._impact_by_works) as by_works:
                # Every work over the first action's day against one work over every day.
                planner._impact_actions(store, query, every, (dates[0], dates[0]))
                assert (by_run.call_count, by_works.call_count) == (1, 0)
                planner._impact_actions(store, query, leaf, (dates[0], dates[-1]))
                assert (by_run.call_count, by_works.call_count) == (1, 1)

    def test_an_open_version_is_a_candidate_on_9999_12_31_and_none_before_every_start(
            self, fixture_store):
        for store in _stores(fixture_store):
            run = store.chain_index.run
            every = frozenset(store.works)
            before = run.starts[0] - timedelta(days=1)
            for read in (retrieval._content_by_run, retrieval._content_by_chains):
                open_end = _filed(read, store, RetrievalRequest("", every, _OPEN_END))
                assert len(open_end) == run.ends.count(None) > 0
                assert _filed(read, store, RetrievalRequest("", every, before)) == {}


class TestProvenance:
    def test_rendered_text_and_annex_equal_the_plain_reference_renderer(self):
        """Corpus-wide (span_first) and per norm (structure_first) on every multi-norm store."""
        later = 0
        norms_cited: set[int] = set()
        for seeds in _STORES:
            store = _multi_norm_store(seeds)
            clock = max(tv.valid_start for tv in store.ctvs.values())
            roots = sorted(urn for urn, work in store.works.items() if work.parent is None)
            for target, _, answer in _answers_as_the_reference(
                    store, (None, *roots), [_SPANISH["water"], "water", "rights", "version 2"],
                    clock, seeds):
                later += answer.rendered_text.count("Pre-state: valid until")
                if target is None:
                    norms_cited.add(len({store.works[work].norm_urn
                                         for work, _, _ in answer.citations}))
        # Corpus-wide answers cited more than one norm, and introductions came after enactment.
        assert max(norms_cited) > 1 and later > 50, (norms_cited, later)
