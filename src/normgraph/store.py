"""Indexed in-memory graph container and its on-disk snapshot format.

Snapshots are newline-delimited JSON, format version 11, and hold only
nodes, stored by column. The first line is the meta header: the format
version, each record kind's column order and each kind's row count. Then
comes one line per kind, in _KINDS order and empty kinds included:
``{"kind":"<kind>","columns":[[…],[…],…]}``, one array per column in the
header's column order, each row's values at one index, rows sorted by id,
so re-saving an unchanged store is byte-identical. Load checks and decodes
a kind one column at a time. A file without its header, a kind without its
record, a record whose columns differ in length, or another count of some
kind's rows than the header gives is rejected, so a snapshot that lost
rows or values does not load. Snapshots of earlier versions are rejected
with a hint to re-run ``normgraph ingest``.

A kind's columns are its node class's fields, in the order the class
takes them, so load builds each node from one value per column. Values
the nodes derive are not stored: the model builds a CLV's id and text
unit, an action's description unit, and a theme's id and description unit
from the other fields (see model.py), so a snapshot cannot hold a foreign
one. A unit stores only its id, text and synthetic flag: its aspect, owner
and language are those of the node that names it. A work stores no kind:
it is a norm exactly when its parent is null. An action stores no titles:
its instrument's work holds them, nor which versions it closes and opens:
``GraphStore.replay`` derives them, and so builds every temporal version,
from the actions' events and the work tree. Nor is which child versions
a version aggregates: that is a function of the work tree and the
chains, derived as the aggregation index below.

Indexes are never persisted, and follow one rule. What ingest writes and
validate_graph reads is filed per node as each is added, loaded or
replayed: each work's children and version chain, each CTV's language
versions, which action produced a CTV, and the alias and fragment
tables. What only queries read is derived from the nodes in one pass on
its first read after commit, once, by ``GraphStore._derived``, the same
way for a committed store and a loaded one:

- the work set (``GraphStore.work_set``): every work's urn, the scope a
  corpus-wide (span-first) query reads;
- the text index (``GraphStore.text_index``): the inverted term index,
  each unit's BM25 length term (``bm25_length_term`` of its length in
  tokens), the IDF statistics, and which units are blank (not
  retrievable), read by span location and lexical and vector scoring;
- the chain index (``GraphStore.chain_index``) that retrieval builds its
  candidates from and provenance locates and renders spans from: for each
  work that has wording in some version, its version chain as parallel
  arrays (each version's CTV id, valid_start and valid_end, and its
  language -> (CLV id, unit id) map) with the work's primary language; the
  version run, every worded version of the corpus ascending by
  valid_start, as parallel arrays of its start, end, work, language map and
  primary language; the work and chain position of each language version's
  unit; and each work's metadata units, one per fact of its metadata;
- the aggregation index that snapshot reconstruction walks, one per norm
  (``GraphStore.aggregation_of``), derived on that norm's first read: each
  CTV id of a work in the norm's tree -> the versions (nodes, not ids) its
  work's children have on its valid_start, in ordinal order (absent when
  there are none);
- the time index (``GraphStore.time_index``), after Elmasri, Wuu & Kim
  (VLDB 1990), that scope membership, impact analysis and action retrieval
  read dates from: every work with a version chain, each norm's works in
  preorder (``descendants`` order), with parallel arrays of each one's
  first valid_start and last valid_end (None for an open end), so that
  every work's subtree is one contiguous slice; each work's actions (those
  that target it or produced a version of it), ascending by
  (effective date, id), with a parallel array of their effective dates;
  and the action run, every action of the corpus in that order, with its
  dates and the works it is filed under beside it;
- the action labels (``GraphStore.action_labels``) that answers name
  actions by: each action's instrument work's short title, else its
  title, else the action's id.

An uncommitted store, whose nodes may still change, derives each of them
afresh on each read and keeps none. Each unit's embedding is derived on
the first vector read of that unit (see retrieval.embeddings_of) and kept
only by a committed store.

Which of a version's wordings a reader gets is one rule, ``pick_wording``,
over that version's language map; every reader of a wording calls it.
"""

from __future__ import annotations

import json
import operator
import os
import re
import threading
from bisect import bisect_right, insort
from datetime import date, timedelta
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, groupby, zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO, TypeVar

from .errors import DanglingReference, MalformedSnapshot, UnknownWork
from .model import (
    ActionNode,
    ActionType,
    ComponentType,
    LanguageVersion,
    TemporalVersion,
    TextUnit,
    ThemeNode,
    WorkNode,
    ctv_id,
    metadata_tuple,
    metadata_unit_id,
    parse_iso_date,
    validate_graph,
)

FORMAT_VERSION = 11

_W = TypeVar("_W")

# BM25 shape parameters for the lexical route.
BM25_K1 = 1.5
BM25_B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Serializes first builds of a committed store's derived indexes across threads.
_BUILD_LOCK = threading.Lock()


def tokenize(text: str) -> list[str]:
    """Unicode-aware lowercase word segmentation; no stemming."""
    return _TOKEN_RE.findall(text.casefold())


class _TextIndex(NamedTuple):
    """What a store derives from its units' text, built in one pass."""

    term_index: dict[str, dict[str, int]]  # token -> {unit id: term frequency}
    # Unit id -> its BM25 length term (bm25_length_term of its length in tokens).
    length_terms: dict[str, float]
    df: dict[str, int]  # token -> number of units holding it
    n_units: int  # retrievable units
    avgdl: float  # mean length of the retrievable units, in tokens
    blank: frozenset[str]  # ids of the units that are not retrievable


def bm25_length_term(length: int, avgdl: float) -> float:
    """The BM25 term a unit of ``length`` tokens adds to each token's denominator."""
    return BM25_K1 * (1.0 - BM25_B + BM25_B * length / (avgdl or 1.0))


def pick_wording(languages: dict[str, _W], primary: str, language: str | None,
                 fallback: bool) -> _W | None:
    """The language rule, over one version's language map.

    ``language`` (``primary``, the norm's primary language, when None or
    empty), else the primary language when ``fallback`` is on; None when
    the map holds neither.
    """
    picked = languages.get(language or primary)
    if picked is None and language and fallback:
        picked = languages.get(primary)
    return picked


class _Chain(NamedTuple):
    """A worded work's version chain as parallel arrays, ascending by valid_start."""

    ctvs: list[str]  # each version's CTV id (the store's versions list)
    starts: list[date]  # each version's valid_start (the store's version_starts list)
    ends: list[date | None]  # each version's valid_end
    wordings: list[dict[str, tuple[str, str]]]  # each version's language -> (CLV id, unit id)
    primary: str  # the work's primary language


class _VersionRun(NamedTuple):
    """Every worded version of the corpus, ascending by valid_start, as parallel arrays."""

    starts: list[date]  # each version's valid_start
    ends: list[date | None]  # each version's valid_end
    works: list[str]  # each version's work urn
    wordings: list[dict[str, tuple[str, str]]]  # each version's language map, its chain's own
    primaries: list[str]  # each version's work's primary language


class _TimeIndex(NamedTuple):
    """What scope, impact and action retrieval read dates from, derived from the nodes in one pass."""

    works: list[str]  # every work with a chain, each norm's in preorder
    firsts: list[date]  # each one's first valid_start
    ends: list[date | None]  # each one's last valid_end; None while open
    # Work urn -> the slice of works holding it and its subtree.
    subtrees: dict[str, tuple[int, int]]
    # Work urn -> the ids of its actions, ascending by (effective date, id), and their dates.
    actions: dict[str, tuple[list[str], list[date]]]
    # The action run: every action id, ascending by (effective date, id), and their dates.
    run: tuple[list[str], list[date]]
    filed: list[tuple[str, ...]]  # the works each action of the run is filed under in actions


class _ChainIndex(NamedTuple):
    """What retrieval and provenance read version chains from, derived from the nodes in one pass."""

    chains: dict[str, _Chain]  # work urn -> chain, for works with wording in some version
    run: _VersionRun  # the version run
    # Unit id of each language version -> its work and chain position.
    placed_units: dict[str, tuple[str, int]]
    metadata_units: dict[str, list[str]]  # work urn -> ids of its metadata units


class ReplayFault(ValueError):
    """Actions that do not replay (GraphStore.replay); ``action`` is the one at fault."""

    def __init__(self, action: ActionNode, fault: str) -> None:
        super().__init__(f"action {action.id!r} {fault}")
        self.action = action


# What a store's == compares: its nodes and whether it is committed, not what it derives.
_STORED = operator.attrgetter("works", "ctvs", "clvs", "actions", "themes", "units", "committed")


class GraphStore:
    """All graph nodes plus the index structures every query path uses.

    Mutations are only legal before :meth:`commit`; afterwards the store
    is treated as immutable and may be shared across threads.
    """

    def __init__(self) -> None:
        self.works: dict[str, WorkNode] = {}
        self.ctvs: dict[str, TemporalVersion] = {}
        self.clvs: dict[str, LanguageVersion] = {}
        self.actions: dict[str, ActionNode] = {}
        self.themes: dict[str, ThemeNode] = {}
        self.units: dict[str, TextUnit] = {}
        self.committed = False
        # Unit id -> its embedding's entries, as {bucket: value} in ascending
        # bucket order; each filled on the unit's first vector read.
        self.unit_embeddings: dict[str, dict[int, float]] = {}
        # Indexes ingest and validate_graph read; filed as each node is added or
        # loaded, never persisted.
        self.children: dict[str, list[str]] = {}
        self.versions: dict[str, list[str]] = {}
        # valid_start of each entry of versions[urn], so version lookup bisects dates.
        self.version_starts: dict[str, list[date]] = {}
        # CTV id -> the action that produced it; filed by replay.
        self.produced_by: dict[str, str] = {}
        # Indexes only queries read; each read through the property of its name
        # (text_index, ...) and None until the first read after commit.
        self._work_set: frozenset[str] | None = None
        self._text_index: _TextIndex | None = None
        self._chain_index: _ChainIndex | None = None
        self._time_index: _TimeIndex | None = None
        # Norm urn -> its aggregation index (aggregation_of), each set on the norm's first read.
        self._aggregations: dict[str, dict[str, tuple[TemporalVersion, ...]]] = {}
        self._action_labels: dict[str, str] | None = None
        self.clvs_by_ctv: dict[str, dict[str, str]] = {}
        self.alias_index: dict[str, set[str]] = {}
        # alias.casefold() -> urns, for the case-insensitive alias lookup.
        self.folded_alias_index: dict[str, set[str]] = {}
        self.fragment_index: dict[str, set[str]] = {}
        # Works are never replaced once added, so a urn's primary language is fixed.
        self._primary_languages: dict[str, str] = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _STORED(self) == _STORED(other)
        return NotImplemented

    # -- mutation (ingestion only) -------------------------------------

    def _assert_mutable(self) -> None:
        if self.committed:
            raise RuntimeError("store is committed and read-only")

    def add_work(self, work: WorkNode) -> None:
        self._assert_mutable()
        if work.urn in self.works:
            raise ValueError(f"work {work.urn!r} already exists")
        self.works[work.urn] = work
        self._index_work(work)

    def add_clv(self, lv: LanguageVersion) -> None:
        self._assert_mutable()
        if lv.id in self.clvs:
            raise ValueError(f"language version {lv.id!r} already exists")
        self.clvs[lv.id] = lv
        self._index_clv(lv)

    def replay(self, actions: Iterable[ActionNode]) -> list[str]:
        """File ``actions`` and write the versions they close and open: the one writer of versions.

        What an action closes and opens is derived from its event and the
        work tree, a day at a time in (effective date, id) order. First each
        action's own effects: an enactment opens its norm's tree and an
        insertion its targets' subtrees, short of the roots another one
        creates; an amendment closes its target and reopens it; a repeal
        closes it. Then the rolls, in id order: each other action closes and
        reopens every ancestor of its target, from the parent up, and stops
        at the first whose version already opens that day, whichever call
        opened it. So a rolled version is produced by the first action whose
        roll reaches it, and a day's actions are given in one call (ingest
        gives each day's, load all). A target that names no work has no
        effect: validate_graph reports it.

        Returns the ids of the versions opened. Nothing is written unless the
        whole batch replays: raises ReplayFault on an id already filed, else
        on the first fault met: an enactment of a work with a parent, an
        insertion under two parents, or a work opened on a day a version of
        it already starts, while its version is open or after a gap, or
        closed with no open version or on the day its version opens.
        """
        self._assert_mutable()
        filed: dict[str, ActionNode] = {}  # in the order given, as the store keeps them
        for action in actions:
            if action.id in self.actions or action.id in filed:
                raise ReplayFault(action, "is already filed")
            filed[action.id] = action
        ordered = sorted(filed.values(), key=lambda action: (action.effective_date, action.id))
        works, children, enactment = self.works, self.children, ActionType.ENACTMENT
        creators = {urn: action for action in ordered  # each created root -> its action
                    if action.inserts or action.action_type is enactment for urn in action.targets}
        # Work urn -> [start, end, producer] of the version it held, if any, then
        # of each version this batch opens; a producer is an action of this batch.
        spans: dict[str, list[list]] = {}

        def chain(urn: str) -> list[list]:
            held = spans.get(urn)
            if held is None:
                cids = self.versions.get(urn)
                tv = self.ctvs[cids[-1]] if cids else None
                held = spans[urn] = [[tv.valid_start, tv.valid_end, None]] if tv else []
            return held

        def close(action: ActionNode, urn: str, held: list[list]) -> None:
            day = action.effective_date
            if not held or held[-1][1] is not None:
                raise ReplayFault(action, f"terminates {urn!r}, which has no open version on {day}")
            if not held[-1][0] < day:
                raise ReplayFault(action, f"terminates {urn!r} on {day}, but its open version "
                                          f"starts {held[-1][0]}")
            held[-1][1] = day

        def open_(action: ActionNode, urn: str, held: list[list]) -> None:
            day = action.effective_date
            if held:
                start, end, _ = held[-1]
                if day == start:
                    raise ReplayFault(action, f"produces {urn!r} on {day}, when a version of it "
                                              "already starts")
                if end is None:
                    raise ReplayFault(action, f"produces {urn!r} on {day} while its version "
                                              f"from {start} is open")
                if end != day:
                    raise ReplayFault(action, f"produces {urn!r} on {day}, but its last version "
                                              f"ends {end}")
            held.append([day, None, action.id])

        for day, group in groupby(ordered, key=operator.attrgetter("effective_date")):
            group = list(group)
            for action in group:
                if action.inserts or action.action_type is enactment:
                    todo = [urn for urn in reversed(action.targets) if urn in works]
                    parents = {works[urn].parent for urn in todo}
                    if len(parents) > 1:
                        raise ReplayFault(action, "inserts works under more than one parent")
                    if parents - {None} and not action.inserts:
                        raise ReplayFault(action, f"enacts {todo[0]!r}, which has a parent")
                    while todo:
                        open_(action, urn := todo.pop(), chain(urn))
                        if kids := children.get(urn):
                            todo.extend(kid for kid in reversed(kids)
                                        if creators.get(kid, action) is action)
                elif (urn := action.targets[0]) in works:
                    close(action, urn, held := chain(urn))
                    if action.action_type is ActionType.AMENDMENT:  # it reopens what it closed
                        held.append([day, None, action.id])
            for action in group:
                target = works.get(action.targets[0])
                urn = target.parent if target and action.action_type is not enactment else None
                while urn in works:  # a parent that names no work is validate_graph's to report
                    held = chain(urn)
                    if held and held[-1][0] == day:
                        break
                    close(action, urn, held)
                    held.append([day, None, action.id])
                    urn = works[urn].parent
        ctvs, opened = self.ctvs, []
        for urn, held in spans.items():
            cids = self.versions.setdefault(urn, [])
            starts = self.version_starts.setdefault(urn, [])
            for start, end, producer in held:
                tv = TemporalVersion(urn, start, end)
                # A chain only grows at its end; a closed version replaces its open self.
                if tv.id not in ctvs:
                    cids.append(tv.id)
                    starts.append(start)
                    opened.append(tv.id)
                ctvs[tv.id] = tv
                if producer is not None:
                    self.produced_by[tv.id] = producer
        self.actions.update(filed)
        return opened

    def add_unit(self, unit: TextUnit) -> None:
        self._assert_mutable()
        if unit.id in self.units:
            raise ValueError(f"text unit {unit.id!r} already exists")
        self.units[unit.id] = unit

    def add_theme(self, theme: ThemeNode) -> None:
        self._assert_mutable()
        if theme.id in self.themes:
            raise ValueError(f"theme {theme.id!r} already exists")
        self.themes[theme.id] = theme

    # -- derived indexes: add_* files each node as it arrives, _reindex
    # files every node of a loaded store, both through these functions.

    def _index_work(self, work: WorkNode) -> None:
        if work.parent is not None:
            insort(self.children.setdefault(work.parent, []), work.urn,
                   key=lambda u: self.works[u].ordinal)
        for alias in work.aliases:
            self.alias_index.setdefault(alias, set()).add(work.urn)
            self.folded_alias_index.setdefault(alias.casefold(), set()).add(work.urn)
        fragment = work.fragment
        if fragment:
            self.fragment_index.setdefault(fragment, set()).add(work.urn)

    def _index_clv(self, lv: LanguageVersion) -> None:
        self.clvs_by_ctv.setdefault(lv.temporal_version, {})[lv.language] = lv.id

    def _reindex(self) -> None:
        """File every node of a freshly loaded store, whose indexes are empty; a parent
        that names no work, a hole in the tree the replay walks, raises DanglingReference."""
        for work in self.works.values():
            if work.parent is not None and work.parent not in self.works:
                raise DanglingReference(work.urn, work.parent)
            self._index_work(work)
        for lv in self.clvs.values():
            self._index_clv(lv)

    # -- commit ---------------------------------------------------------

    def commit(self) -> None:
        """Seal the store; ingest and load both end here.

        Nothing is computed: the derived indexes and embeddings are derived
        on their first read after this.
        """
        self._assert_mutable()
        self.committed = True

    @property
    def work_set(self) -> frozenset[str]:
        """Every work's urn (see the module docstring), derived on its first read."""
        return self._derived("_work_set", lambda: frozenset(self.works))

    @property
    def text_index(self) -> _TextIndex:
        """The text index (see the module docstring), derived on its first read."""
        return self._derived("_text_index", self._derive_text_index)

    @property
    def chain_index(self) -> _ChainIndex:
        """The chain index (see the module docstring), derived on its first read."""
        return self._derived("_chain_index", self._derive_chain_index)

    @property
    def time_index(self) -> _TimeIndex:
        """The time index (see the module docstring), derived on its first read."""
        return self._derived("_time_index", self._derive_time_index)

    def aggregation_of(self, norm: str) -> dict[str, tuple[TemporalVersion, ...]]:
        """The aggregation index of ``norm``'s tree (see the module docstring).

        Derived as ``_derived`` derives an index, but kept per norm and read
        with one dict lookup, since every point-in-time query reads it.
        """
        index = self._aggregations.get(norm)
        if index is None:
            if not self.committed:
                return self._derive_norm_aggregation(norm)
            with _BUILD_LOCK:
                if norm not in self._aggregations:
                    self._aggregations[norm] = self._derive_norm_aggregation(norm)
                index = self._aggregations[norm]
        return index

    @property
    def action_labels(self) -> dict[str, str]:
        """The action labels (see the module docstring), derived on their first read."""
        return self._derived("_action_labels", self._derive_action_labels)

    def _derived(self, slot: str, derive: Callable[[], _W]) -> _W:
        """The index kept in ``slot``, derived once, on a committed store's first read.

        The derivation runs under the lock and sets ``slot`` in one
        assignment, so racing first readers wait for it and none sees a
        part-built index.
        """
        index = getattr(self, slot)
        if index is None:
            if not self.committed:
                # Its nodes may still change: derive afresh and keep nothing.
                return derive()
            with _BUILD_LOCK:
                if getattr(self, slot) is None:
                    setattr(self, slot, derive())
                index = getattr(self, slot)
        return index

    def _derive_text_index(self) -> _TextIndex:
        """Tokenize every unit."""
        term_index: dict[str, dict[str, int]] = {}
        unit_len: dict[str, int] = {}
        for uid in sorted(self.units):
            tokens = tokenize(self.units[uid].text)
            unit_len[uid] = len(tokens)
            for token in tokens:
                postings = term_index.setdefault(token, {})
                postings[uid] = postings.get(uid, 0) + 1
        blank = frozenset(uid for uid, unit in self.units.items() if not unit.retrievable)
        lengths = [n for uid, n in unit_len.items() if uid not in blank]
        df = {token: len(postings) for token, postings in term_index.items()}
        avgdl = sum(lengths) / len(lengths) if lengths else 0.0
        # Units of one length share one term, so the map holds no more objects than lengths.
        terms = {n: bm25_length_term(n, avgdl) for n in set(unit_len.values())}
        length_terms = {uid: terms[n] for uid, n in unit_len.items()}
        return _TextIndex(term_index, length_terms, df, len(lengths), avgdl, blank)

    def _derive_chain_index(self) -> _ChainIndex:
        """Chain arrays of every work with wording, the version run, where each wording sits,
        and metadata units."""
        ctvs, clvs, by_ctv = self.ctvs, self.clvs, self.clvs_by_ctv
        chains: dict[str, _Chain] = {}
        placed_units: dict[str, tuple[str, int]] = {}
        worded: list[tuple[date, date | None, str, dict[str, tuple[str, str]], str]] = []
        for urn in dict.fromkeys(ctvs[cid].work for cid in by_ctv):
            cids = self.versions[urn]
            starts, primary = self.version_starts[urn], self.primary_language(urn)
            ends = [ctvs[cid].valid_end for cid in cids]
            wordings = []
            for position, cid in enumerate(cids):
                languages = {language: (lv_id, clvs[lv_id].text_unit)
                             for language, lv_id in by_ctv.get(cid, {}).items()}
                place = (urn, position)
                for _, uid in languages.values():
                    placed_units[uid] = place
                if languages:
                    worded.append((starts[position], ends[position], urn, languages, primary))
                wordings.append(languages)
            chains[urn] = _Chain(cids, starts, ends, wordings, primary)
        worded.sort(key=operator.itemgetter(0))
        run = _VersionRun(*map(list, zip(*worded))) if worded else _VersionRun([], [], [], [], [])
        metadata_units: dict[str, list[str]] = {}
        for urn, work in self.works.items():
            if facts := [metadata_unit_id(urn, key) for key, _ in work.facts]:
                metadata_units[urn] = facts
        return _ChainIndex(chains, run, placed_units, metadata_units)

    def _derive_norm_aggregation(self, norm: str) -> dict[str, tuple[TemporalVersion, ...]]:
        """Each version's children's versions on its start (version_at's), one pass per parent
        of ``norm``'s tree.

        A child's version fills the child's slot from its start until its
        end or the next version's start; the parent's versions, walked in
        start order, each take the slots filled on their start.
        """
        ctvs, versions, starts = self.ctvs, self.versions, self.version_starts
        aggregation: dict[str, tuple[TemporalVersion, ...]] = {}
        for parent in self.descendants(norm):
            if not (kids := self.children.get(parent)):
                continue
            changes: list[tuple[date, int, TemporalVersion | None]] = []  # (day, slot, version)
            for slot, kid in enumerate(kids):
                for cid, after in zip_longest(versions.get(kid, ()), starts.get(kid, [])[1:]):
                    tv = ctvs[cid]
                    changes.append((tv.valid_start, slot, tv))
                    if tv.valid_end is not None and (after is None or tv.valid_end < after):
                        changes.append((tv.valid_end, slot, None))
            changes.sort(key=operator.itemgetter(0))
            slots: list[TemporalVersion | None] = [None] * len(kids)
            at = 0
            for cid, day in zip(versions.get(parent, ()), starts.get(parent, ())):
                while at < len(changes) and changes[at][0] <= day:
                    slots[changes[at][1]] = changes[at][2]
                    at += 1
                if held := tuple(filter(None, slots)):
                    aggregation[cid] = held
        return aggregation

    def _derive_action_labels(self) -> dict[str, str]:
        labels: dict[str, str] = {}
        for action_id, action in self.actions.items():
            work = self.works.get(action.instrument)
            meta = dict(work.metadata) if work else {}
            labels[action_id] = meta.get("short_title") or meta.get("title") or action_id
        return labels

    def _derive_time_index(self) -> _TimeIndex:
        """Lifetimes of the chained works in preorder, each subtree's slice, and action dates."""
        versions, starts, ctvs = self.versions, self.version_starts, self.ctvs
        works: list[str] = []
        firsts: list[date] = []
        ends: list[date | None] = []
        # Each work, where its slice starts, and where it ends without the work's children.
        preorder: list[tuple[str, int, int]] = []
        for root in [urn for urn, work in self.works.items() if work.parent not in self.works]:
            for urn in self.descendants(root):
                lo = len(works)
                cids = versions.get(urn)
                if cids:
                    works.append(urn)
                    firsts.append(starts[urn][0])
                    ends.append(ctvs[cids[-1]].valid_end)
                preorder.append((urn, lo, len(works)))
        # A work's subtree ends where its last child's does.
        subtrees: dict[str, tuple[int, int]] = {}
        for urn, lo, own_end in reversed(preorder):
            kids = self.children.get(urn)
            subtrees[urn] = (lo, subtrees[kids[-1]][1] if kids else own_end)
        # The action run is sorted once; each action is then filed, in run
        # order, under its targets and the works whose versions it produced,
        # the works it terminates among them.
        keys = sorted((action.effective_date, aid) for aid, action in self.actions.items())
        filed = {aid: set(action.targets) for aid, action in self.actions.items()}
        for cid, action_id in self.produced_by.items():
            filed[action_id].add(ctvs[cid].work)
        by_work: dict[str, tuple[list[str], list[date]]] = {}
        run_filed: list[tuple[str, ...]] = []
        for day, aid in keys:
            run_filed.append(urns := tuple(filed[aid]))
            for urn in urns:
                ids, days = by_work.setdefault(urn, ([], []))
                ids.append(aid)
                days.append(day)
        run = ([aid for _, aid in keys], [day for day, _ in keys])
        return _TimeIndex(works, firsts, ends, subtrees, by_work, run, run_filed)

    # -- read API ---------------------------------------------------------

    def work(self, urn: str) -> WorkNode:
        try:
            return self.works[urn]
        except KeyError:
            raise UnknownWork(urn) from None

    def version_at(self, urn: str, t: date) -> TemporalVersion | None:
        """The version of ``urn`` valid on ``t``, or None before, between or after.

        Chains are sorted by valid_start and tile time, so the only candidate
        is the last version starting on or before ``t``.
        """
        index = bisect_right(self.version_starts.get(urn, ()), t)
        if index == 0:
            return None
        tv = self.ctvs[self.versions[urn][index - 1]]
        return tv if tv.contains(t) else None

    def closed_by(self, action: ActionNode, urn: str) -> TemporalVersion | None:
        """The version of ``urn`` that ``action`` terminates, or None when it terminates none.

        An amendment or repeal closes its target, and each action what it rolls.
        """
        day = action.effective_date
        if urn in action.targets:
            closes = not action.inserts and action.action_type is not ActionType.ENACTMENT
        else:
            closes = self.produced_by.get(ctv_id(urn, day)) == action.id
        return self.version_at(urn, day - timedelta(days=1)) if closes else None

    def lifetime(self, urn: str) -> tuple[date, date | None] | None:
        """``(first valid_start, last valid_end)`` of the chain, which a valid chain tiles; None without one."""
        cids = self.versions.get(urn)
        if not cids:
            self.work(urn)  # raises UnknownWork for an unknown urn
            return None
        return self.version_starts[urn][0], self.ctvs[cids[-1]].valid_end

    def norm_of(self, urn: str) -> WorkNode:
        return self.work(self.work(urn).norm_urn)

    def primary_language(self, urn: str) -> str:
        language = self._primary_languages.get(urn)
        if language is None:
            language = self.norm_of(urn).meta("language", "en") or "en"
            self._primary_languages[urn] = language
        return language

    def descendants(self, urn: str) -> list[str]:
        """The work itself plus its whole subtree, depth-first in ordinal order."""
        self.work(urn)
        out: list[str] = []
        stack = [urn]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(self.children.get(current, ())))
        return out

    def node_counts(self) -> dict[str, int]:
        return {
            "works": len(self.works),
            "temporal_versions": len(self.ctvs),
            "language_versions": len(self.clvs),
            "actions": len(self.actions),
            "themes": len(self.themes),
            "text_units": len(self.units),
        }


# -- serialization -----------------------------------------------------------
#
# Every node kind's persisted form is one entry of _KINDS, which save and
# load walk. Every column is required and every value has an exact JSON type
# (bool is no integer). The meta header is written and read outside the
# table. Which ids must name a node is the model's table (model._REFERENCES),
# checked by validate_graph.


class _Type(NamedTuple):
    """A column's exact JSON value types, and its conversions to and from node attributes."""

    name: str
    json: frozenset[type]
    # A column's JSON values -> their attributes, as a list; None keeps them.
    # Raises KeyError, TypeError or ValueError on a value it cannot convert.
    decode: Callable[[list], list] | None = None
    encode: Callable | None = None  # attribute -> JSON value; None keeps it


def _each(convert: Callable) -> Callable[[list], list]:
    return lambda values: list(map(convert, values))


_STRING = frozenset({str})


def _only_strings(values: Iterable) -> None:
    if not _STRING.issuperset(map(type, values)):
        raise TypeError("a value that is not a string")


def _strs(values: list[list]) -> list[tuple[str, ...]]:
    _only_strings(chain.from_iterable(values))
    return list(map(tuple, values))


def _str_maps(values: list[dict]) -> list[tuple[tuple[str, str], ...]]:
    _only_strings(chain.from_iterable(map(dict.values, values)))
    return list(map(metadata_tuple, values))


def _enum(cls: type[Enum]) -> _Type:
    return _Type(f"a {cls.__name__} value", _STRING,
                 _each({member.value: member for member in cls}.__getitem__),
                 operator.attrgetter("value"))


# A snapshot repeats few distinct dates many times; each is parsed once.
_parse_date = lru_cache(maxsize=1 << 16)(parse_iso_date)

_STR = _Type("a string", _STRING)
_OPTIONAL_STR = _Type("a string or null", frozenset({str, type(None)}))
_INT = _Type("an integer", frozenset({int}))
_BOOL = _Type("a boolean", frozenset({bool}))
_DATE = _Type("an ISO date", _STRING, _each(_parse_date), date.isoformat)
# Tuples are written as JSON arrays, so a list of strings needs no encoder.
_STRS = _Type("a list of strings", frozenset({list}), _strs)
_STR_MAP = _Type("an object of strings", frozenset({dict}), _str_maps, dict)


class _Column(NamedTuple):
    key: str
    type: _Type
    # Node field, when it is not the key.
    attr: str | None = None


class _Kind:
    """One record kind: its store map, node class and columns.

    The node class takes the column values in column order; the node
    derives the rest. The getters that save uses are derived here once.
    """

    def __init__(self, nodes: str, cls: type, *columns: _Column, key: str = "id") -> None:
        self.nodes = nodes
        self.cls = cls
        self.columns = columns
        self.keys = [column.key for column in columns]
        self.key = operator.attrgetter(key)
        # Each column's node attribute getter and its encoder, if it has one.
        self.getters = [(operator.attrgetter(column.attr or column.key), column.type.encode)
                        for column in columns]


# In save order. A kind's columns are in the order its node class takes them.
_KINDS = {
    "work": _Kind(
        "works", WorkNode,
        _Column("id", _STR, attr="urn"),
        _Column("aliases", _STRS),
        _Column("component_type", _enum(ComponentType)),
        _Column("parent", _OPTIONAL_STR),
        _Column("ordinal", _INT),
        _Column("metadata", _STR_MAP),
        key="urn",
    ),
    "action": _Kind(
        "actions", ActionNode,
        _Column("id", _STR),
        _Column("action_type", _enum(ActionType)),
        _Column("enactment_date", _DATE),
        _Column("effective_date", _DATE),
        _Column("source_provision", _OPTIONAL_STR),
        _Column("targets", _STRS),
        _Column("effect", _OPTIONAL_STR),
        _Column("instrument", _OPTIONAL_STR),
        _Column("inserts", _BOOL),
    ),
    "clv": _Kind(
        "clvs", LanguageVersion,
        _Column("temporal_version", _STR),
        _Column("language", _STR),
    ),
    "theme": _Kind(
        "themes", ThemeNode,
        _Column("label", _STR),
        _Column("members", _STRS),
    ),
    "unit": _Kind(
        "units", TextUnit,
        _Column("id", _STR),
        _Column("text", _STR),
        _Column("synthetic", _BOOL),
    ),
}
_COLUMNS = {kind: spec.keys for kind, spec in _KINDS.items()}
_HEADER = ("kind", "format_version", "columns", "rows")
# Values save encodes per call: a column is streamed, never built whole.
_CHUNK = 256


def save(store: GraphStore, path: str | Path) -> None:
    """Write the store as one record per kind; load(save(s)) == s node-for-node.

    Each kind's record holds one JSON array per column, its rows sorted by
    id, and each column is encoded and written ``_CHUNK`` values at a time.
    The file is written to a temporary file beside ``path``, which is
    flushed, synced and then renamed over ``path`` in one step: a reader
    sees the old snapshot or the new one, never part of one. On any failure
    the temporary file is removed and ``path`` is left as it was. Raises
    RuntimeError on an uncommitted store, which may still change.
    """
    if not store.committed:
        raise RuntimeError("only a committed store can be saved")
    target = Path(path)
    # Unique among the writers running now, so no two share one.
    temporary = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    meta = {"kind": "meta", "format_version": FORMAT_VERSION, "columns": _COLUMNS,
            "rows": {kind: len(getattr(store, spec.nodes)) for kind, spec in _KINDS.items()}}
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    try:
        with open(temporary, "w", encoding="utf-8") as fh:
            fh.write(encode(meta))
            fh.write("\n")
            for kind, spec in _KINDS.items():
                nodes = getattr(store, spec.nodes)
                ordered = [nodes[node_id] for node_id in sorted(nodes)]
                fh.write(f'{{"kind":"{kind}","columns":[')
                for column, (get, to_json) in enumerate(spec.getters):
                    fh.write(",[" if column else "[")
                    for start in range(0, len(ordered), _CHUNK):
                        values = map(get, ordered[start:start + _CHUNK])
                        if to_json:
                            values = map(to_json, values)
                        if start:
                            fh.write(",")
                        fh.write(encode(list(values))[1:-1])
                    fh.write("]")
                fh.write("]}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _decode_column(column: _Column, values: list, bad: Callable) -> list:
    """A column's values as node attributes, checked and converted in one pass each.

    Only a column that fails is walked value by value, to raise what
    ``bad`` builds for its first bad row.
    """
    json_types, decode = column.type.json, column.type.decode
    try:
        if json_types.issuperset(map(type, values)):
            return decode(values) if decode else values
    except (KeyError, TypeError, ValueError):
        pass
    decoded = []
    for row, value in enumerate(values):
        try:
            if type(value) not in json_types:
                raise TypeError(value)
            decoded.extend(decode([value]) if decode else [value])
        except (KeyError, TypeError, ValueError):
            raise bad(f"must be {column.type.name}", row=row, column=column.key) from None
    return decoded


def _file_kind(store: GraphStore, kind: str, rec: dict, bad: Callable) -> list | None:
    """Build the nodes of one kind record, column by column, and file them in the store.

    The actions are returned instead: their replay (GraphStore.replay)
    reads the work tree, so load files them once every record is read.
    Raises what ``bad`` builds, naming the row and column where it can, on
    a record of another shape, columns of unequal lengths, a value of the
    wrong type, a node its class refuses, or a repeated id.
    """
    spec = _KINDS[kind]
    if sorted(rec) != ["columns", "kind"]:
        raise bad("its members must be kind, columns")
    columns = rec["columns"]
    if (type(columns) is not list or len(columns) != len(spec.columns)
            or not all(type(values) is list for values in columns)):
        raise bad(f"'columns' must be a list of {len(spec.columns)} arrays "
                  f"({', '.join(spec.keys)})")
    count = len(columns[0])
    for key, values in zip(spec.keys, columns):
        if len(values) != count:
            raise bad(f"holds {len(values)} values, {spec.keys[0]!r} holds {count}", column=key)
    decoded = [_decode_column(column, values, bad) for column, values in zip(spec.columns, columns)]
    try:
        nodes = list(map(spec.cls, *decoded))
    except (TypeError, ValueError):
        nodes = []
        for row, values in enumerate(zip(*decoded)):
            try:
                nodes.append(spec.cls(*values))
            except (TypeError, ValueError) as exc:
                raise bad(str(exc), row=row) from None
    ids = list(map(spec.key, nodes))
    table = dict(zip(ids, nodes))
    if len(table) != len(ids):
        seen: set[str] = set()
        for row, node_id in enumerate(ids):
            if node_id in seen:
                raise bad(f"repeated {kind} {node_id!r}", row=row)
            seen.add(node_id)
    if kind == "action":
        return nodes
    setattr(store, spec.nodes, table)
    return None


def _numbered_lines(fh: TextIO, spath: str) -> Iterator[tuple[int, str]]:
    """The snapshot's lines, numbered from 1, as ``fh`` decodes them.

    A byte that is not UTF-8 raises MalformedSnapshot naming the line that
    holds it. The reader decodes ahead of the line it hands out, so that
    line is found again from the file's bytes, with line breaks counted as
    the reader counts them; a clean file pays for none of this.
    """
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        fh.buffer.seek(0)
        data, line = fh.buffer.read(), None  # no line if the bytes changed since
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as found:
            text = data[:found.start].decode("utf-8")
            line = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
        raise MalformedSnapshot(f"invalid UTF-8 ({exc.reason})", path=spath, line=line) from None


def load(path: str | Path) -> GraphStore:
    """Read a snapshot, rebuild its indexes, and check every model invariant.

    Raises MalformedSnapshot on parse failures: a byte that is not UTF-8
    (naming its line), a file with no records, a
    first record that is not the meta header, a second header, a
    ``format_version`` other than FORMAT_VERSION, a header whose members
    are not _HEADER, whose ``columns`` are not this version's or whose
    ``rows`` do not give each kind an integer, a record of an unknown kind,
    a second record of one kind, a kind record that _file_kind rejects
    (see _KINDS for each column's type), or actions that do not replay
    (GraphStore.replay, run once every record is read); a fault inside a
    record is named by its kind, row (counted from 0, as the column arrays
    index it) and column. A work whose parent names no work raises
    DanglingReference before the replay. Then validate_graph runs once:
    when it reports any violation,
    raises DanglingReference if the first is one (validate_graph checks
    references first, derived unit ids included), and MalformedSnapshot,
    naming the first and giving the count, otherwise. Last, raises
    MalformedSnapshot when some kind's rows are not as many as the header
    gives, or some kind has no record. The store is committed, as an ingest
    ends.
    """
    store = GraphStore()
    spath = str(path)
    rows: dict[str, int] | None = None  # the header's, once it is read
    read: set[str] = set()  # the kinds whose record is read
    actions = None  # the action record's nodes and its fault builder, once it is read
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in _numbered_lines(fh, spath):
            if raw.isspace():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise MalformedSnapshot(f"invalid JSON ({exc.msg})", path=spath, line=lineno) from None
            del raw  # a kind record's line can be megabytes long
            if type(rec) is not dict:
                raise MalformedSnapshot("record is not a JSON object", path=spath, line=lineno)
            kind = rec.get("kind")
            if kind == "meta":
                if rows is not None:
                    raise MalformedSnapshot("second meta header", path=spath, line=lineno)
                version = rec.get("format_version")
                if type(version) is not int or version != FORMAT_VERSION:
                    raise MalformedSnapshot(
                        f"unsupported format_version {version!r} (this version reads "
                        f"{FORMAT_VERSION}); re-run `normgraph ingest` to rewrite the snapshot",
                        path=spath, line=lineno,
                    )
                if sorted(rec) != sorted(_HEADER):
                    why = f"the header must be an object of {', '.join(_HEADER)}"
                elif rec["columns"] != _COLUMNS:
                    why = "'columns' must list each kind's columns in this version's order"
                elif (type(rec["rows"]) is not dict or sorted(rec["rows"]) != sorted(_KINDS)
                      or not all(type(n) is int for n in rec["rows"].values())):
                    why = "'rows' must give each kind's row count as an integer"
                else:
                    rows = rec["rows"]
                    continue
                raise MalformedSnapshot(f"bad meta header: {why}", path=spath, line=lineno)
            if rows is None:
                raise MalformedSnapshot(
                    f"missing meta header: the first record is a {kind!r} record",
                    path=spath, line=lineno)
            if type(kind) is not str or kind not in _KINDS:
                raise MalformedSnapshot(f"unknown record kind {kind!r}", path=spath, line=lineno)
            if kind in read:
                raise MalformedSnapshot(f"second {kind!r} record", path=spath, line=lineno)
            read.add(kind)
            bad = partial(MalformedSnapshot, path=spath, line=lineno, kind=kind)
            if (nodes := _file_kind(store, kind, rec, bad)) is not None:
                actions = (nodes, bad)
            del rec  # drop its parsed columns before the next record is parsed

    if rows is None:
        raise MalformedSnapshot("missing meta header: the file holds no records", path=spath)
    store._reindex()
    if actions:
        nodes, bad = actions
        try:  # the actions are filed by their replay, which builds every version
            store.replay(nodes)
        except ReplayFault as exc:
            raise bad(str(exc), row=nodes.index(exc.action)) from None
    violations = validate_graph(store)
    if violations:
        first = violations[0]
        if first.code == "DanglingReference":
            raise DanglingReference(*first.nodes)
        raise MalformedSnapshot(
            f"{len(violations)} invariant violation(s); the first is {first}", path=spath)
    for kind, spec in _KINDS.items():
        held = len(getattr(store, spec.nodes))
        if held != rows[kind]:
            raise MalformedSnapshot(f"the header gives {rows[kind]} {kind} row(s), "
                                    f"the file holds {held}", path=spath)
    missing = [kind for kind in _KINDS if kind not in read]
    if missing:
        raise MalformedSnapshot(f"the file holds no {missing[0]!r} record", path=spath)
    store.commit()
    return store
