"""Unified, policy-disclosing query pipeline.

Queries arrive as structured records (the CLI maps its flags onto them),
get canonicalized against the alias table and the injected clock, and are
dispatched to a pattern runner. Every answer carries the policies it was
resolved under and a machine-readable annex with the pattern's step list,
citations, actions, and provenance chains; identical (store, query,
clock) inputs produce byte-identical answers.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from datetime import date
from enum import Enum

from .errors import (
    AmbiguousAlias,
    EmptyScope,
    MalformedQuery,
    TermNotFound,
    UnknownAlias,
    UnplannableQuery,
)
from .model import ActionNode, Aspect, Record, parse_iso_date, replace
from .retrieval import (
    RetrievalMode,
    RetrievalRequest,
    locate_spans,
    scoped_search,
)
from .store import GraphStore, pick_wording
from .temporal import (
    MembershipPolicy,
    SnapshotPolicy,
    TemporalScope,
    alive_at,
    resolve_instant,
    resolve_scope,
    snapshot_fragments,
)

ANNEX_FORMAT_VERSION = 2


def encode_json(value) -> str:
    """Annex and error-record JSON: sorted keys, no whitespace, non-ASCII kept, final newline."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


class QueryPattern(str, Enum):
    POINT_IN_TIME = "point_in_time"
    IMPACT_ANALYSIS = "impact_analysis"
    PROVENANCE = "provenance"
    RETRIEVE = "retrieve"


class Strategy(str, Enum):
    """Where a query's reading starts: its entry's scope, or the whole corpus."""

    STRUCTURE_FIRST = "structure_first"
    SPAN_FIRST = "span_first"


# Step names shared by the annex across all patterns.
STEP_CANONICALIZE = "canonicalize"
STEP_SCOPE = "scope"
STEP_STRATEGY = "strategy"
STEP_CTV_SELECT = "ctv_select"
STEP_RETRIEVE = "retrieve"
STEP_CAUSAL_AGGREGATION = "causal_aggregation"
STEP_CHAIN_ASSEMBLY = "chain_assembly"
STEP_GENERATE = "generate"

_PATTERN_STEPS = {
    QueryPattern.POINT_IN_TIME: (
        STEP_CANONICALIZE, STEP_SCOPE, STEP_STRATEGY,
        STEP_CTV_SELECT, STEP_RETRIEVE, STEP_GENERATE,
    ),
    QueryPattern.IMPACT_ANALYSIS: (
        STEP_CANONICALIZE, STEP_SCOPE, STEP_STRATEGY,
        STEP_CAUSAL_AGGREGATION, STEP_RETRIEVE, STEP_GENERATE,
    ),
    QueryPattern.PROVENANCE: (
        STEP_CANONICALIZE, STEP_SCOPE, STEP_STRATEGY, STEP_RETRIEVE,
        STEP_CAUSAL_AGGREGATION, STEP_CHAIN_ASSEMBLY, STEP_GENERATE,
    ),
    QueryPattern.RETRIEVE: (
        STEP_CANONICALIZE, STEP_SCOPE, STEP_STRATEGY,
        STEP_CTV_SELECT, STEP_RETRIEVE, STEP_GENERATE,
    ),
}


class StructuredQuery(Record):
    """Canonical query record; the only way into the pipeline."""

    __slots__ = ("pattern", "structural_target", "theme_target", "temporal", "textual_target",
                 "language", "membership", "k", "mode", "aspects", "language_fallback",
                 "include_future_actions")

    def __init__(self, pattern: QueryPattern, structural_target: str | None = None,
                 theme_target: str | None = None, temporal: TemporalScope | None = None,
                 textual_target: str | None = None, language: str | None = None,
                 membership: MembershipPolicy = MembershipPolicy.SNAPSHOT_ANCHORED, k: int = 8,
                 mode: RetrievalMode = RetrievalMode.VECTOR,
                 aspects: frozenset[Aspect] = frozenset({Aspect.CONTENT}),
                 language_fallback: bool = True, include_future_actions: bool = False) -> None:
        self._assign(pattern, structural_target, theme_target, temporal, textual_target, language,
                     membership, k, mode, aspects, language_fallback, include_future_actions)

    @property
    def entry(self) -> str | None:
        """The work or theme the query starts from, if it names one."""
        return self.structural_target or self.theme_target


class Answer(Record):
    """Rendered answer plus the disclosed policies and machine annex."""

    __slots__ = ("pattern", "rendered_text", "citations", "actions", "policies", "annex",
                 "confidence")

    def __init__(self, pattern: QueryPattern, rendered_text: str,
                 citations: tuple[tuple[str, str, str], ...], actions: tuple[str, ...],
                 policies: dict, annex: dict, confidence: float) -> None:
        self._assign(pattern, rendered_text, citations, actions, policies, annex, confidence)

    def annex_json(self) -> str:
        return encode_json(self.annex)


def _camel(value: str) -> str:
    return "".join(part.capitalize() for part in value.split("_"))


def policies_footer(policies: dict) -> str:
    """One-line disclosure appended to every human-readable answer."""
    return (
        f"policy: {_camel(policies['resolution_policy'])} | "
        f"membership: {_camel(policies['membership_policy'])} | "
        f"strategy: {_camel(policies['strategy'])} | "
        f"k: {policies['k']} | "
        f"language: {policies['language'] or 'auto'} | "
        f"fallback: {'on' if policies['language_fallback'] else 'off'}"
    )


# -- canonicalization ----------------------------------------------------------


def query_date(value: str) -> date:
    """A query's date, read strictly; MalformedQuery if it is not YYYY-MM-DD."""
    try:
        return parse_iso_date(value)
    except ValueError as exc:
        raise MalformedQuery(str(exc)) from None


def _choice(kind: type[Enum], value):
    """``kind(value)``, or MalformedQuery naming the values ``kind`` allows."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(member.value for member in kind)
        raise MalformedQuery(f"{value!r} is not one of: {allowed}") from None


# A query value's allowed JSON types, by name; bool is no integer, and no string a boolean.
_TEXT = ("a string or null", frozenset({str, type(None)}))
_FLAG = ("a boolean", frozenset({bool}))
_INTEGER = ("an integer", frozenset({int}))
_LIST = ("a list", frozenset({list}))


def _value(mapping: dict, key: str, kind: tuple[str, frozenset[type]], default=None):
    """``mapping[key]``, or ``default`` if absent; MalformedQuery unless its type is of ``kind``."""
    if key not in mapping:
        return default
    value = mapping[key]
    name, types = kind
    if type(value) not in types:
        raise MalformedQuery(f"{key} must be {name}, not {value!r}")
    return value


def build_query(pattern: QueryPattern, mapping: dict) -> StructuredQuery:
    """Translate a truth-file (or CLI-shaped) query mapping into a record.

    A date that is not YYYY-MM-DD, a ``between`` that is not two dates in
    order, a ``k`` that is not an integer, ``aspects`` that are not a list,
    a target, theme, term, text or language that is neither a string nor
    null, a fallback or future-actions flag that is not a boolean, or an
    aspect, mode, membership or policy value that names no member raises
    MalformedQuery.
    """
    temporal = None
    if "at" in mapping:
        temporal = TemporalScope.instant(query_date(mapping["at"]))
    elif "between" in mapping:
        window = mapping["between"]
        if type(window) is not list or len(window) != 2:
            raise MalformedQuery(f"'between' must be a list of two dates, not {window!r}")
        t1, t2 = map(query_date, window)
        policy = _choice(SnapshotPolicy, mapping.get("policy", "snapshot_last"))
        try:
            temporal = TemporalScope.interval(t1, t2, policy)
        except ValueError as exc:  # a reversed window
            raise MalformedQuery(str(exc)) from None
    aspects = frozenset(_choice(Aspect, a) for a in _value(mapping, "aspects", _LIST, ()))
    term, text = _value(mapping, "term", _TEXT), _value(mapping, "text", _TEXT)
    return StructuredQuery(
        pattern=pattern,
        structural_target=_value(mapping, "target", _TEXT),
        theme_target=_value(mapping, "theme", _TEXT),
        temporal=temporal,
        textual_target=term or text,
        language=_value(mapping, "lang", _TEXT),
        membership=_choice(MembershipPolicy, mapping.get("membership", "snapshot_anchored")),
        k=_value(mapping, "k", _INTEGER, 8),
        mode=_choice(RetrievalMode, mapping.get("mode", "vector")),
        aspects=aspects or frozenset({Aspect.CONTENT}),
        language_fallback=_value(mapping, "language_fallback", _FLAG, True),
        include_future_actions=_value(mapping, "include_future_actions", _FLAG, False),
    )


def resolve_work_reference(store: GraphStore, reference: str) -> str:
    """Map a urn, alias, or fragment to exactly one work urn."""
    if reference in store.works:
        return reference
    for index, key in ((store.alias_index, reference), (store.fragment_index, reference),
                       (store.folded_alias_index, reference.casefold())):
        matches = index.get(key, ())
        if len(matches) == 1:
            return next(iter(matches))
        if matches:
            raise AmbiguousAlias(reference, sorted(matches))
    raise UnknownAlias(reference)


def _resolve_theme_reference(store: GraphStore, reference: str) -> str:
    if reference in store.themes:
        return reference
    matches = [t.id for t in store.themes.values() if t.label == reference]
    if not matches:
        folded = reference.casefold()
        matches = [t.id for t in store.themes.values() if t.label.casefold() == folded]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise AmbiguousAlias(reference, sorted(matches))
    raise UnknownAlias(reference)


def canonicalize(raw: StructuredQuery, store: GraphStore, clock: date) -> StructuredQuery:
    """Resolve aliases, fill the defaults, and bind a query without a temporal scope to the clock.

    A ``k`` below 1 raises MalformedQuery.
    """
    if raw.k < 1:
        raise MalformedQuery(f"k must be at least 1, not {raw.k}")
    if raw.pattern is QueryPattern.PROVENANCE and not raw.textual_target:
        raise UnplannableQuery("provenance queries need a textual target")
    if raw.pattern is QueryPattern.IMPACT_ANALYSIS and not raw.entry:
        raise UnplannableQuery("impact analysis needs a structural or theme target")
    if raw.pattern is QueryPattern.POINT_IN_TIME and not raw.entry:
        raise UnplannableQuery("point-in-time queries need a structural or theme target")
    select_strategy(raw)  # raises UnplannableQuery on a query with no entry and no text

    structural = (
        resolve_work_reference(store, raw.structural_target)
        if raw.structural_target else None
    )
    theme = _resolve_theme_reference(store, raw.theme_target) if raw.theme_target else None

    temporal = raw.temporal or TemporalScope.instant(clock)

    language = raw.language
    if language is None:
        anchor_urn = structural
        if anchor_urn is None and theme is not None and store.themes[theme].members:
            anchor_urn = store.themes[theme].members[0]
        if anchor_urn is not None:
            language = store.primary_language(anchor_urn)

    return replace(
        raw,
        structural_target=structural,
        theme_target=theme,
        temporal=temporal,
        language=language,
    )


def select_strategy(q: StructuredQuery) -> Strategy:
    """Pure strategy rule: an entry means structure first, else a text means span first.

    The runners branch on this rule and the annex discloses it, so the
    disclosed strategy is the executed one.
    """
    if q.entry:
        return Strategy.STRUCTURE_FIRST
    if q.textual_target:
        return Strategy.SPAN_FIRST
    raise UnplannableQuery()


# -- shared answer plumbing ------------------------------------------------------


def _finish(q: StructuredQuery, rendered: str,
            citations: list[tuple[str, str, str]],
            actions: list[dict], chains: list[list[str]],
            confidence: float, *, scoped: bool) -> Answer:
    """Build the answer; the annex lists the scope step only when ``scoped``.

    ``scoped`` is True exactly when the runner called ``resolve_scope``.
    """
    policies = {
        "resolution_policy": q.temporal.resolution_policy.value,
        "membership_policy": q.membership.value,
        "k": q.k,
        "strategy": select_strategy(q).value,
        "language": q.language,
        "language_fallback": q.language_fallback,
    }
    annex = {
        "format_version": ANNEX_FORMAT_VERSION,
        "pattern": q.pattern.value,
        "policies": policies,
        "steps": [step for step in _PATTERN_STEPS[q.pattern] if scoped or step != STEP_SCOPE],
        "citations": [{"work": w, "ctv": tv, "clv": lv} for w, tv, lv in citations],
        "actions": actions,
        "chains": chains,
        "confidence": confidence,
    }
    return Answer(
        pattern=q.pattern,
        rendered_text=rendered,
        citations=tuple(citations),
        actions=tuple(sorted({a["action"] for a in actions})),
        policies=policies,
        annex=annex,
        confidence=confidence,
    )


def _entry_label(store: GraphStore, q: StructuredQuery) -> str:
    if q.structural_target:
        return store.works[q.structural_target].label
    if q.theme_target:
        return store.themes[q.theme_target].label
    return "corpus"


def _snapshot_roots(store: GraphStore, q: StructuredQuery) -> list[str]:
    if q.structural_target:
        return [q.structural_target]
    return sorted(store.themes[q.theme_target].members)


def _scope_works(store: GraphStore, q: StructuredQuery, t: date) -> tuple[frozenset[str], bool]:
    """The works a query reads under its strategy, and whether it resolved a scope.

    Structure first reads its entry's scope; span first reads every work,
    the store's work set.
    """
    if select_strategy(q) is Strategy.STRUCTURE_FIRST:
        return resolve_scope(store, q.entry, t, q.membership), True
    return store.work_set, False


# -- pattern runners --------------------------------------------------------------


def run_point_in_time(store: GraphStore, q: StructuredQuery) -> Answer:
    """Reconstruct the queried provision exactly as it stood at the instant."""
    t = resolve_instant(q.temporal)
    # A structural entry needs no scope: the snapshot traversal below raises
    # the precise NotYetEnacted/RepealedAt error, carrying the resolved instant.
    scoped = bool(q.theme_target)
    if scoped and not resolve_scope(store, q.theme_target, t, q.membership):
        raise EmptyScope(q.theme_target)

    citations: list[tuple[str, str, str]] = []
    lines = [f"{_entry_label(store, q)} as of {t.isoformat()}:"]
    for root in _snapshot_roots(store, q):
        for fragment in snapshot_fragments(store, root, t, q.language, q.language_fallback):
            label = store.works[fragment.work].label
            lines.append(f"  [{label}] {fragment.text}")
            citations.append((fragment.work, fragment.ctv, fragment.clv))
    return _finish(q, "\n".join(lines), citations, [], [], 1.0, scoped=scoped)


class _IsoDays(dict):
    """Each date's ISO text, formatted on its first lookup, for one impact analysis."""

    def __missing__(self, day: date) -> str:
        text = self[day] = day.isoformat()
        return text


_Impacts = list[tuple[ActionNode, list[str]]]


def _impact_actions(store: GraphStore, q: StructuredQuery, scope: frozenset[str],
                    window: tuple[date, date]) -> _Impacts:
    """Window-filtered actions paired with their in-scope direct targets, by (date, id).

    Two walks of the store's time index find the same actions, and the
    smaller side is walked (after Zobel & Moffat): the window's slice of the
    action run when it holds fewer actions than the scope holds works, and
    otherwise each scoped work's actions in the window.

    Matching is by direct target, not by propagated ancestor versions:
    an action that only touched the scope through upward aggregation did
    not change anything *inside* it.
    """
    _, dates = store.time_index.run
    t1, t2 = window
    lo = bisect_left(dates, t1)
    if bisect_right(dates, t2, lo) - lo < len(scope):
        return _impact_by_run(store, q, scope, window)
    return _impact_by_works(store, q, scope, window)


def _impact_by_run(store: GraphStore, q: StructuredQuery, scope: frozenset[str],
                   window: tuple[date, date]) -> _Impacts:
    """``_impact_actions`` from the window's slice of the action run, in (date, id) order."""
    ids, dates = store.time_index.run
    t1, t2 = window
    lo = bisect_left(dates, t1)
    return _in_scope(store, q, scope, ids[lo:bisect_right(dates, t2, lo)])


def _impact_by_works(store: GraphStore, q: StructuredQuery, scope: frozenset[str],
                     window: tuple[date, date]) -> _Impacts:
    """``_impact_actions`` from each scoped work's date-sorted actions that fall in the window."""
    t1, t2 = window
    by_work = store.time_index.actions
    candidate_ids: set[str] = set()
    for urn in by_work.keys() & scope:
        ids, dates = by_work[urn]
        lo = bisect_left(dates, t1)
        # Most works have no action in the window: one bisect tells.
        if lo < len(dates) and dates[lo] <= t2:
            candidate_ids.update(ids[lo:bisect_right(dates, t2, lo)])
    selected = _in_scope(store, q, scope, candidate_ids)
    # Action ids are unique, so this order is total whatever the set's order.
    selected.sort(key=lambda pair: (pair[0].effective_date, pair[0].id))
    return selected


def _in_scope(store: GraphStore, q: StructuredQuery, scope: frozenset[str],
              action_ids: list[str] | set[str]) -> _Impacts:
    """Each of ``action_ids`` with a direct target in scope, in their order, with those targets."""
    actions, action_time = store.actions, q.membership is MembershipPolicy.ACTION_TIME
    selected: _Impacts = []
    for aid in action_ids:
        action = actions[aid]
        hits = [w for w in action.targets if w in scope]
        if action_time:
            # The scope holds the entry's descendants alive on some in-window
            # action date; keep those alive on this action's.
            hits = [w for w in hits if alive_at(store, w, action.effective_date)]
        if hits:
            selected.append((action, sorted(hits)))
    return selected


def run_impact_analysis(store: GraphStore, q: StructuredQuery) -> Answer:
    """Aggregate the actions that changed anything inside the scope window.

    Each distinct date is formatted once per query.
    """
    if q.temporal is None or q.temporal.kind != "interval":
        raise UnplannableQuery("impact analysis needs a date window (use an interval scope)")
    window = (q.temporal.start, q.temporal.end)
    scope = resolve_scope(store, q.entry, window[0], q.membership, window=window)
    if not scope:
        raise EmptyScope(q.entry)

    matched = _impact_actions(store, q, scope, window)
    days = _IsoDays()
    by_target: dict[str, list[ActionNode]] = {}
    # Built in (date, action, target) order: matched is by (date, action), each targets list sorted.
    action_records: list[dict] = []
    for action, targets in matched:
        day = days[action.effective_date]
        for target in targets:
            by_target.setdefault(target, []).append(action)
            action_records.append({"action": action.id, "target": target, "date": day})
    # Filled in matched's date order, so these are the distinct impact dates, ascending.
    impact_dates = list(days.values())

    label, labels = _entry_label(store, q), store.action_labels
    lines = [f"Impact summary for {label} [{window[0].isoformat()} .. {window[1].isoformat()}]:"]
    groups = sorted(by_target)
    if not groups:
        lines.append("  no changes in this window")
    for gi, target in enumerate(groups):
        group_actions = by_target[target]
        last_group = gi == len(groups) - 1
        branch = "'--" if last_group else "+--"
        noun = "amendment" if len(group_actions) == 1 else "amendments"
        lines.append(f"{branch} {store.works[target].label}: {len(group_actions)} {noun}")
        stem = "    " if last_group else "|   "
        for ai, action in enumerate(group_actions):
            inner = "'--" if ai == len(group_actions) - 1 else "+--"
            effect = action.effect or action.action_type.value
            lines.append(
                f"{stem}{inner} {labels[action.id]} "
                f"(effective {days[action.effective_date]}): {effect}"
            )
    lines.append(
        "Impact dates: " + (", ".join(impact_dates) if impact_dates else "none"))
    return _finish(q, "\n".join(lines), [], action_records, [], 1.0, scoped=True)


def run_provenance(store: GraphStore, q: StructuredQuery) -> Answer:
    """Trace the introduction of a text span back to its causing actions.

    ``span_first`` reads the term's postings and ``structure_first`` walks
    the version chains of the entry's scope. Span location returns
    introductions in (work, chain position) order, each with the language
    version the post-state cites, and each is rendered in one pass from its
    work's chain in the chain index, read at the span's position: its
    pre-state (the chain predecessor and its last valid day),
    the causal event, the post-state and the audit trail. Replay opens each
    version on its producer's effective date, so a version's start day is
    also its cause's day. The chain index holds each version's cause and
    days as ISO text, formatted once per store, and the phrases that depend
    on the term alone are built once per query.
    """
    term = q.textual_target
    language, fallback = q.language, q.language_fallback
    scope, scoped = _scope_works(store, q, resolve_instant(q.temporal))
    # Positional: perfbench's tracer wraps planner.locate_spans and reads args[2].
    introductions = locate_spans(store, term, scope, language, fallback,
                                 by_postings=not scoped)
    if not introductions:
        raise TermNotFound(term, q.entry)

    works, version_chains, labels = store.works, store.chain_index.chains, store.action_labels
    absent = f' (no mention of "{term}")'
    enacted = f'  Effect: Enacted with the term "{term}"'
    inserted = f'  Effect: Inserted the term "{term}"'
    lines = [f'Provenance report: "{term}" in {_entry_label(store, q)}']
    citations: list[tuple[str, str, str]] = []
    action_records: list[dict] = []
    chains: list[list[str]] = []
    numbered = len(introductions) > 1
    for i, (work, post_ctv, position, post_lv) in enumerate(introductions, start=1):
        cids, _, _, wordings, primary, causes, start_days, last_days = version_chains[work]
        cause, causal_day = causes[position], start_days[position]
        causal_label = labels[cause]
        if numbered:
            lines.append(f"--- occurrence {i}: {works[work].label} ---")
        if position == 0:
            lines.append("Pre-state: none (term present since original enactment)")
            effect, trail, chain = enacted, f"[{causal_label}]", [cause]
        else:
            before = position - 1
            pre_ctv, pre = cids[before], causes[before]
            pre_label = labels[pre]
            lines.append(f"Pre-state: valid until {last_days[before]}{absent}\n"
                         f"  Last change by: {pre_label}. Source CTV: {pre_ctv}")
            pre_wording = pick_wording(wordings[before], primary, language, fallback)
            if pre_wording is not None:
                citations.append((work, pre_ctv, pre_wording[0]))
            action_records.append({"action": pre, "target": work, "date": start_days[before]})
            effect, trail = inserted, f"[{pre_label}] -> [{causal_label}]"
            chain = [pre, cause]
        lines.append(f"Causal event: {causal_label} (effective {causal_day})\n"
                     f"{effect}\n"
                     f"Post-state: valid from {causal_day}\n"
                     f"  Source CTV: {post_ctv}\n"
                     "Audit trail:\n"
                     f"  Causal chain: {trail}\n"
                     "  Match confidence: Exact (1.0)")
        citations.append((work, post_ctv, post_lv))
        action_records.append({"action": cause, "target": work, "date": causal_day})
        chains.append(chain)
    return _finish(q, "\n".join(lines), citations, action_records, chains, 1.0, scoped=scoped)


def run_retrieve(store: GraphStore, q: StructuredQuery) -> Answer:
    """Ranked scoped retrieval over the requested aspects."""
    t = resolve_instant(q.temporal)
    scope, scoped = _scope_works(store, q, t)
    request = RetrievalRequest(
        query_text=q.textual_target or "",
        scope=scope,
        t=t,
        aspects=q.aspects,
        language=q.language,
        k=q.k,
        mode=q.mode,
        language_fallback=q.language_fallback,
        include_future_actions=q.include_future_actions,
    )
    hits = scoped_search(store, request)

    lines = [
        f'Top {len(hits)} of k={q.k} for "{q.textual_target or ""}" '
        f"at {t.isoformat()} in {_entry_label(store, q)}:"
    ]
    citations: list[tuple[str, str, str]] = []
    action_records: list[dict] = []
    for i, hit in enumerate(hits, start=1):
        unit = store.units[hit.text_unit]
        snippet = unit.text if len(unit.text) <= 120 else unit.text[:117] + "..."
        lines.append(f"{i}. [{hit.score:.6f}] ({hit.aspect.value}) {hit.text_unit}: {snippet}")
        if hit.aspect is Aspect.CONTENT:
            citations.append(hit.provenance)
        elif hit.aspect is Aspect.ACTION_DESCRIPTION:
            action = store.actions[hit.provenance[2]]
            action_records.append({
                "action": action.id,
                "target": hit.provenance[0],
                "date": action.effective_date.isoformat(),
            })
    confidence = max(0.0, min(1.0, hits[0].score)) if hits else 0.0
    return _finish(q, "\n".join(lines), citations, action_records, [], confidence,
                   scoped=scoped)


_RUNNERS = {
    QueryPattern.POINT_IN_TIME: run_point_in_time,
    QueryPattern.IMPACT_ANALYSIS: run_impact_analysis,
    QueryPattern.PROVENANCE: run_provenance,
    QueryPattern.RETRIEVE: run_retrieve,
}


def run(store: GraphStore, q: StructuredQuery, clock: date) -> Answer:
    """Canonicalize (a query with no temporal scope reads the clock), then run its pattern."""
    canonical = canonicalize(q, store, clock)
    return _RUNNERS[canonical.pattern](store, canonical)
