"""Deterministic temporal and structural resolution.

Pure read-only functions over an immutable store: pick the evaluation
instant for a temporal scope, select the unique version valid at a date,
resolve hierarchical scope membership under a disclosed policy, and
reconstruct full document text as of any date via the aggregation index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from datetime import date

from .errors import MissingLanguage, NotYetEnacted, RepealedAt, UnknownEntry
from .model import Record, TemporalVersion, urn_norm
from .store import GraphStore, pick_wording


class SnapshotPolicy(str, Enum):
    """How an interval scope collapses to a single evaluation instant."""

    SNAPSHOT_LAST = "snapshot_last"
    SNAPSHOT_FIRST = "snapshot_first"


class MembershipPolicy(str, Enum):
    """How hierarchy membership is fixed for a windowed query."""

    SNAPSHOT_ANCHORED = "snapshot_anchored"
    ACTION_TIME = "action_time"
    LIFETIME = "lifetime"


class TemporalScope(Record):
    """An instant, or an interval that ``resolution_policy`` collapses to one (``kind``: which)."""

    __slots__ = ("kind", "start", "end", "resolution_policy")

    def __init__(self, kind: str, start: date | None = None, end: date | None = None,
                 resolution_policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST) -> None:
        if kind == "instant" and start is None:
            raise ValueError("instant scope needs a date")
        if kind == "interval":
            if start is None or end is None:
                raise ValueError("interval scope needs both dates")
            if start > end:
                raise ValueError(f"interval start {start} after end {end}")
        self._assign(kind, start, end, resolution_policy)

    @classmethod
    def instant(cls, t: date, policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST) -> "TemporalScope":
        return cls(kind="instant", start=t, resolution_policy=policy)

    @classmethod
    def interval(cls, t1: date, t2: date,
                 policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST) -> "TemporalScope":
        return cls(kind="interval", start=t1, end=t2, resolution_policy=policy)


def resolve_instant(scope: TemporalScope) -> date:
    """Collapse a temporal scope to one date."""
    if scope.kind == "instant" or scope.resolution_policy is SnapshotPolicy.SNAPSHOT_FIRST:
        return scope.start
    return scope.end


def ctv_at(store: GraphStore, work: str, t: date) -> TemporalVersion:
    """The unique temporal version of ``work`` whose interval contains ``t``.

    Outside the work's lifetime it raises NotYetEnacted (with no
    ``first_start`` for a work with no version) or RepealedAt.
    """
    tv = store.version_at(work, t)
    if tv is not None:
        return tv
    span = store.lifetime(work)
    if span is None:
        raise NotYetEnacted(work, t)
    first, end = span
    if t < first:
        raise NotYetEnacted(work, t, first_start=first)
    raise RepealedAt(work, t, repealed_end=end)


def alive_at(store: GraphStore, urn: str, t: date) -> bool:
    return store.version_at(urn, t) is not None


def resolve_scope(
    store: GraphStore,
    entry: str,
    t: date,
    policy: MembershipPolicy = MembershipPolicy.SNAPSHOT_ANCHORED,
    window: tuple[date, date] | None = None,
) -> frozenset[str]:
    """The urns in the hierarchical scope of a work or theme entry point.

    ``(t1, t2)`` is the window, or ``(t, t)`` without one. The entry's
    subtree is one slice of the store's time index, which holds each
    descendant's lifetime ``[first, end)`` (its chain tiles it; a work with
    no version has none and is never kept); one pass over the slice decides
    every descendant. An open end passes every test against it.
    snapshot_anchored keeps a descendant if ``first <= t1 < end`` (alive at
    the window start); lifetime if ``first <= t2`` and ``t1 < end`` (alive
    at some moment of the window); action_time if the first in-window action
    date ``d >= first``, of any norm, exists and ``d < end``: the window's
    dates are a bisected slice of the dates of the index's action run. A
    theme's scope is its members' union.
    """
    if entry in store.themes:
        from .themes import theme_scope

        return frozenset(theme_scope(store, entry, t, policy, window=window))
    if entry not in store.works:
        raise UnknownEntry(entry)

    index = store.time_index
    lo, hi = index.subtrees[entry]
    subtree = zip(index.works[lo:hi], index.firsts[lo:hi], index.ends[lo:hi])
    t1, t2 = window if window else (t, t)
    if policy is MembershipPolicy.ACTION_TIME:
        _, days = index.run
        first_day, last_day = bisect_left(days, t1), bisect_right(days, t2)
        selected = []
        for urn, first, end in subtree:
            day = bisect_left(days, first, first_day, last_day)
            if day < last_day and (end is None or days[day] < end):
                selected.append(urn)
        return frozenset(selected)
    if policy is MembershipPolicy.SNAPSHOT_ANCHORED:
        t2 = t1
    return frozenset(urn for urn, first, end in subtree
                     if first <= t2 and (end is None or t1 < end))


class SnapshotFragment(Record):
    """One text-bearing component of a reconstructed snapshot."""

    __slots__ = ("work", "ctv", "clv", "text")

    def __init__(self, work: str, ctv: str, clv: str, text: str) -> None:
        # One per fragment a point-in-time query emits: each slot's setter, called directly.
        set_work, set_ctv, set_clv, set_text = _FRAGMENT
        set_work(self, work)
        set_ctv(self, ctv)
        set_clv(self, clv)
        set_text(self, text)


_FRAGMENT = SnapshotFragment._slot_setters


def snapshot_fragments(
    store: GraphStore,
    work: str,
    t: date,
    language: str | None = None,
    language_fallback: bool = True,
) -> list[SnapshotFragment]:
    """Reconstruct the text of ``work`` as it stood on ``t``, with citations.

    Depth-first expansion of the aggregation closure (the aggregation
    index of the work's norm, read once per call), emitting each
    text-bearing component's wording in ordinal order. Falls back to the
    norm's primary language unless disabled; without fallback, a version
    that has wording, but none in the requested language, raises
    MissingLanguage.
    """
    out: list[SnapshotFragment] = []
    root = ctv_at(store, work, t)
    # validate_graph keeps a component in its parent's norm, so one primary
    # language and one norm's aggregation index serve the whole closure.
    primary = store.primary_language(work)
    children = store.aggregation_of(urn_norm(work)).get
    clvs_by_ctv, clvs, units = store.clvs_by_ctv, store.clvs, store.units
    # Preorder from an explicit stack, each node's children pushed last to first:
    # a recursive closure would refer to itself and leave a cycle per call.
    stack = [root]
    while stack:
        tv = stack.pop()
        languages = clvs_by_ctv.get(tv.id)
        lv_id = (pick_wording(languages, primary, language, language_fallback)
                 if languages else None)
        if lv_id is None and not language_fallback and languages:
            raise MissingLanguage(tv.id, language or primary)
        if lv_id is not None:
            out.append(SnapshotFragment(tv.work, tv.id, lv_id, units[clvs[lv_id].text_unit].text))
        kids = children(tv.id)
        if kids:
            stack += reversed(kids)
    return out


def snapshot_text(
    store: GraphStore,
    work: str,
    t: date,
    language: str | None = None,
    language_fallback: bool = True,
) -> list[tuple[str, str]]:
    """Snapshot reconstruction reduced to (work, text) pairs."""
    return [
        (fragment.work, fragment.text)
        for fragment in snapshot_fragments(store, work, t, language, language_fallback)
    ]
