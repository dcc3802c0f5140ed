"""Deterministic temporal and structural resolution.

Pure read-only functions over an immutable store: pick the evaluation
instant for a temporal scope, select the unique version valid at a date,
resolve hierarchical scope membership under a disclosed policy, and
reconstruct full document text as of any date via the aggregation graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from datetime import date

from .errors import MissingLanguage, NotYetEnacted, RepealedAt, UnknownEntry
from .model import TemporalVersion
from .store import GraphStore


class SnapshotPolicy(str, Enum):
    """How an interval scope collapses to a single evaluation instant."""

    SNAPSHOT_LAST = "snapshot_last"
    SNAPSHOT_FIRST = "snapshot_first"


class MembershipPolicy(str, Enum):
    """How hierarchy membership is fixed for a windowed query."""

    SNAPSHOT_ANCHORED = "snapshot_anchored"
    ACTION_TIME = "action_time"
    LIFETIME = "lifetime"


@dataclass(frozen=True)
class TemporalScope:
    """Instant, interval, or now; ``now`` must be bound to an injected clock."""

    kind: str  # "instant" | "interval" | "now"
    start: date | None = None
    end: date | None = None
    resolution_policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST

    def __post_init__(self) -> None:
        if self.kind == "instant" and self.start is None:
            raise ValueError("instant scope needs a date")
        if self.kind == "interval":
            if self.start is None or self.end is None:
                raise ValueError("interval scope needs both dates")
            if self.start > self.end:
                raise ValueError(f"interval start {self.start} after end {self.end}")

    @classmethod
    def instant(cls, t: date, policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST) -> "TemporalScope":
        return cls(kind="instant", start=t, resolution_policy=policy)

    @classmethod
    def interval(cls, t1: date, t2: date,
                 policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST) -> "TemporalScope":
        return cls(kind="interval", start=t1, end=t2, resolution_policy=policy)

    @classmethod
    def now(cls, policy: SnapshotPolicy = SnapshotPolicy.SNAPSHOT_LAST) -> "TemporalScope":
        return cls(kind="now", resolution_policy=policy)


def resolve_instant(scope: TemporalScope, clock: date | None = None) -> date:
    """Collapse a temporal scope to one date; ``now`` reads the injected clock."""
    if scope.kind == "instant":
        return scope.start
    if scope.kind == "now":
        if clock is None:
            raise ValueError("a 'now' scope needs the injected clock")
        return clock
    if scope.resolution_policy is SnapshotPolicy.SNAPSHOT_FIRST:
        return scope.start
    return scope.end


def ctv_at(store: GraphStore, work: str, t: date) -> TemporalVersion:
    """The unique temporal version of ``work`` whose interval contains ``t``."""
    tv = store.version_at(work, t)
    if tv is not None:
        return tv
    chain = store.versions_of(work)
    if not chain:
        raise NotYetEnacted(work, t)
    first = chain[0]
    if t < first.validity.valid_start:
        raise NotYetEnacted(work, t, first_start=first.validity.valid_start)
    last = chain[-1]
    raise RepealedAt(work, t, repealed_end=last.validity.valid_end)


def alive_at(store: GraphStore, urn: str, t: date) -> bool:
    return store.version_at(urn, t) is not None


def _existed_during(store: GraphStore, urn: str, t1: date, t2: date) -> bool:
    for cid in store.versions.get(urn, ()):
        validity = store.ctvs[cid].validity
        if validity.valid_start <= t2 and (validity.valid_end is None or validity.valid_end > t1):
            return True
    return False


def resolve_scope(
    store: GraphStore,
    entry: str,
    t: date,
    policy: MembershipPolicy = MembershipPolicy.SNAPSHOT_ANCHORED,
    window: tuple[date, date] | None = None,
) -> frozenset[str]:
    """The urns in the hierarchical scope of a work or theme entry point.

    snapshot_anchored keeps descendants alive at the window start (or at
    ``t``); action_time admits works alive at any in-window action's
    effective date; lifetime admits every work that existed at any moment
    of the window.
    """
    if entry in store.themes:
        from .themes import theme_scope

        return frozenset(theme_scope(store, entry, t, policy, window=window))
    if entry not in store.works:
        raise UnknownEntry(entry)

    anchor = window[0] if window else t
    candidates = store.descendants(entry)
    if policy is MembershipPolicy.SNAPSHOT_ANCHORED:
        selected = {urn for urn in candidates if alive_at(store, urn, anchor)}
    elif policy is MembershipPolicy.LIFETIME:
        t1, t2 = window if window else (t, t)
        selected = {urn for urn in candidates if _existed_during(store, urn, t1, t2)}
    else:  # ACTION_TIME
        t1, t2 = window if window else (t, t)
        action_dates = sorted({
            action.effective_date
            for action in store.actions.values()
            if t1 <= action.effective_date <= t2
        })
        selected = {
            urn for urn in candidates
            if any(alive_at(store, urn, d) for d in action_dates)
        }
    return frozenset(selected)


@dataclass(frozen=True)
class SnapshotFragment:
    """One text-bearing component of a reconstructed snapshot."""

    work: str
    ctv: str
    clv: str
    text: str


def snapshot_fragments(
    store: GraphStore,
    work: str,
    t: date,
    language: str | None = None,
    language_fallback: bool = True,
) -> list[SnapshotFragment]:
    """Reconstruct the text of ``work`` as it stood on ``t``, with citations.

    Depth-first expansion of the aggregation closure, emitting each
    text-bearing component's wording in ordinal order. Falls back to the
    norm's primary language unless disabled; without fallback, a version
    that has wording, but none in the requested language, raises
    MissingLanguage.
    """
    out: list[SnapshotFragment] = []

    def emit(tv: TemporalVersion) -> None:
        lv_id = store.clv_for(tv.id, tv.work, language, language_fallback)
        if lv_id is None and not language_fallback and tv.id in store.clvs_by_ctv:
            raise MissingLanguage(tv.id, language or store.primary_language(work))
        if lv_id is not None:
            unit = store.units[store.clvs[lv_id].text_unit]
            out.append(SnapshotFragment(tv.work, tv.id, lv_id, unit.text))
        for child_cid in tv.aggregates:
            emit(store.ctvs[child_cid])

    emit(ctv_at(store, work, t))
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
