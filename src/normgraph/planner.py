"""Unified, policy-disclosing query pipeline.

Queries arrive as structured records (the CLI maps its flags onto them),
get canonicalized against the alias table and the injected clock, and are
dispatched to a pattern runner. Every answer carries the policies it was
resolved under and a machine-readable annex with the executed step list,
citations, actions, and provenance chains; identical (store, query,
clock) inputs produce byte-identical answers.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum

from .errors import (
    AmbiguousAlias,
    EmptyScope,
    TermNotFound,
    UnknownAlias,
    UnplannableQuery,
)
from .model import ActionNode, Aspect
from .retrieval import (
    RetrievalMode,
    RetrievalRequest,
    locate_spans,
    scoped_search,
)
from .store import GraphStore
from .temporal import (
    MembershipPolicy,
    SnapshotPolicy,
    TemporalScope,
    alive_at,
    resolve_instant,
    resolve_scope,
    snapshot_fragments,
)

ANNEX_FORMAT_VERSION = 1


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


@dataclass(frozen=True)
class StructuredQuery:
    """Canonical query record; the only way into the pipeline."""

    pattern: QueryPattern
    structural_target: str | None = None
    theme_target: str | None = None
    temporal: TemporalScope | None = None
    textual_target: str | None = None
    language: str | None = None
    membership: MembershipPolicy = MembershipPolicy.SNAPSHOT_ANCHORED
    k: int = 8
    mode: RetrievalMode = RetrievalMode.VECTOR
    aspects: frozenset[Aspect] = frozenset({Aspect.CONTENT})
    language_fallback: bool = True
    include_future_actions: bool = False

    @property
    def entry(self) -> str | None:
        """The work or theme the query starts from, if it names one."""
        return self.structural_target or self.theme_target


@dataclass(frozen=True)
class Answer:
    """Rendered answer plus the disclosed policies and machine annex."""

    pattern: QueryPattern
    rendered_text: str
    citations: tuple[tuple[str, str, str], ...]
    actions: tuple[str, ...]
    policies: dict
    annex: dict
    confidence: float

    def annex_json(self) -> str:
        return json.dumps(self.annex, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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


def resolve_work_reference(store: GraphStore, reference: str) -> str:
    """Map a urn, alias, or fragment to exactly one work urn."""
    if reference in store.works:
        return reference
    exact = store.alias_index.get(reference, set())
    if len(exact) == 1:
        return next(iter(exact))
    if len(exact) > 1:
        raise AmbiguousAlias(reference, sorted(exact))
    fragments = store.fragment_index.get(reference, set())
    if len(fragments) == 1:
        return next(iter(fragments))
    if len(fragments) > 1:
        raise AmbiguousAlias(reference, sorted(fragments))
    folded = reference.casefold()
    candidates = {
        urn
        for alias, urns in store.alias_index.items()
        if alias.casefold() == folded
        for urn in urns
    }
    if len(candidates) == 1:
        return next(iter(candidates))
    if len(candidates) > 1:
        raise AmbiguousAlias(reference, sorted(candidates))
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
    """Resolve aliases, bind `now` to the clock, and fill the defaults."""
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

    temporal = raw.temporal or TemporalScope.now()
    if temporal.kind == "now":
        temporal = TemporalScope.instant(clock, temporal.resolution_policy)

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
        k=raw.k if raw.k >= 1 else 8,
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
            confidence: float) -> Answer:
    policies = {
        "resolution_policy": (q.temporal.resolution_policy if q.temporal
                              else SnapshotPolicy.SNAPSHOT_LAST).value,
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
        "steps": list(_PATTERN_STEPS[q.pattern]),
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


def _scope_works(store: GraphStore, q: StructuredQuery, t: date) -> frozenset[str]:
    """The works a query reads under its strategy: its entry's scope, or all of them."""
    if select_strategy(q) is Strategy.STRUCTURE_FIRST:
        return resolve_scope(store, q.entry, t, q.membership)
    return frozenset(store.works)


# -- pattern runners --------------------------------------------------------------


def run_point_in_time(store: GraphStore, q: StructuredQuery) -> Answer:
    """Reconstruct the queried provision exactly as it stood at the instant."""
    t = resolve_instant(q.temporal)
    # A structural entry needs no scope: the snapshot traversal below raises
    # the precise NotYetEnacted/RepealedAt error, carrying the resolved instant.
    if q.theme_target and not resolve_scope(store, q.theme_target, t, q.membership):
        raise EmptyScope(q.theme_target)

    citations: list[tuple[str, str, str]] = []
    lines = [f"{_entry_label(store, q)} as of {t.isoformat()}:"]
    for root in _snapshot_roots(store, q):
        for fragment in snapshot_fragments(store, root, t, q.language, q.language_fallback):
            label = store.works[fragment.work].label
            lines.append(f"  [{label}] {fragment.text}")
            citations.append((fragment.work, fragment.ctv, fragment.clv))
    return _finish(q, "\n".join(lines), citations, [], [], 1.0)


def _impact_actions(
    store: GraphStore, q: StructuredQuery, scope: frozenset[str],
    window: tuple[date, date],
) -> list[tuple[ActionNode, list[str]]]:
    """Window-filtered actions paired with their in-scope direct targets.

    Matching is by direct target, not by propagated ancestor versions:
    an action that only touched the scope through upward aggregation did
    not change anything *inside* it.
    """
    t1, t2 = window
    candidate_ids: set[str] = set()
    for urn in scope:
        candidate_ids.update(store.work_actions.get(urn, ()))
    entry_subtree = set(store.descendants(q.entry)) if q.entry in store.works else scope
    selected: list[tuple[ActionNode, list[str]]] = []
    for aid in sorted(candidate_ids):
        action = store.actions[aid]
        if not (t1 <= action.effective_date <= t2):
            continue
        if q.membership is MembershipPolicy.ACTION_TIME:
            hits = [
                w for w in action.targets
                if w in entry_subtree and alive_at(store, w, action.effective_date)
            ]
        else:
            hits = [w for w in action.targets if w in scope]
        if hits:
            selected.append((action, sorted(hits)))
    selected.sort(key=lambda pair: (pair[0].effective_date, pair[0].id))
    return selected


def run_impact_analysis(store: GraphStore, q: StructuredQuery) -> Answer:
    """Aggregate the actions that changed anything inside the scope window."""
    if q.temporal is None or q.temporal.kind != "interval":
        raise UnplannableQuery("impact analysis needs a date window (use an interval scope)")
    window = (q.temporal.start, q.temporal.end)
    scope = resolve_scope(store, q.entry, window[0], q.membership, window=window)
    if not scope:
        raise EmptyScope(q.entry)

    matched = _impact_actions(store, q, scope, window)
    by_target: dict[str, list[ActionNode]] = {}
    action_records: list[dict] = []
    for action, targets in matched:
        for target in targets:
            by_target.setdefault(target, []).append(action)
            action_records.append({
                "action": action.id,
                "target": target,
                "date": action.effective_date.isoformat(),
            })
    action_records.sort(key=lambda r: (r["date"], r["action"], r["target"]))
    impact_dates = sorted({action.effective_date.isoformat() for action, _ in matched})

    label = _entry_label(store, q)
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
                f"{stem}{inner} {action.short_label} "
                f"(effective {action.effective_date.isoformat()}): {effect}"
            )
    lines.append(
        "Impact dates: " + (", ".join(impact_dates) if impact_dates else "none"))
    return _finish(q, "\n".join(lines), [], action_records, [], 1.0)


@dataclass(frozen=True)
class ProvenanceChain:
    """Causal transition from the last pre-state into the introducing action."""

    work: str
    pre_ctv: str | None
    post_ctv: str
    actions: tuple[str, ...]


def _assemble_chain(store: GraphStore, work: str, post_ctv: str) -> ProvenanceChain:
    chain = store.versions.get(work, [])
    index = bisect_left(store.version_starts.get(work, []),
                        store.ctvs[post_ctv].validity.valid_start)
    pre_ctv = chain[index - 1] if index > 0 else None
    actions: list[str] = []
    if pre_ctv is not None:
        actions.append(store.ctvs[pre_ctv].produced_by)
    actions.append(store.ctvs[post_ctv].produced_by)
    return ProvenanceChain(work, pre_ctv, post_ctv, tuple(actions))


def _chain_report(store: GraphStore, chain: ProvenanceChain, term: str,
                  language: str | None,
                  fallback: bool) -> tuple[list[str], list[tuple[str, str, str]]]:
    lines: list[str] = []
    citations: list[tuple[str, str, str]] = []
    post_tv = store.ctvs[chain.post_ctv]
    causal = store.actions[post_tv.produced_by]

    def cite(cid: str) -> None:
        lv_id = store.clv_for(cid, chain.work, language, fallback)
        if lv_id:
            citations.append((chain.work, cid, lv_id))

    if chain.pre_ctv is not None:
        pre_tv = store.ctvs[chain.pre_ctv]
        last_day = pre_tv.validity.last_valid_day
        pre_producer = store.actions[pre_tv.produced_by]
        lines.append(
            f'Pre-state: valid until {last_day.isoformat()} (no mention of "{term}")')
        lines.append(
            f"  Last change by: {pre_producer.short_label}. Source CTV: {pre_tv.id}")
        cite(chain.pre_ctv)
    else:
        lines.append("Pre-state: none (term present since original enactment)")
    lines.append(
        f"Causal event: {causal.short_label} "
        f"(effective {causal.effective_date.isoformat()})")
    lines.append(f'  Effect: Inserted the term "{term}"'
                 if chain.pre_ctv is not None
                 else f'  Effect: Enacted with the term "{term}"')
    lines.append(f"Post-state: valid from {post_tv.validity.valid_start.isoformat()}")
    lines.append(f"  Source CTV: {post_tv.id}")
    cite(chain.post_ctv)
    chain_render = " -> ".join(f"[{store.actions[aid].short_label}]" for aid in chain.actions)
    lines.append("Audit trail:")
    lines.append(f"  Causal chain: {chain_render}")
    lines.append("  Match confidence: Exact (1.0)")
    return lines, citations


def run_provenance(store: GraphStore, q: StructuredQuery) -> Answer:
    """Trace the introduction of a text span back to its causing actions."""
    term = q.textual_target
    t = resolve_instant(q.temporal)
    scope = _scope_works(store, q, t)
    spans = locate_spans(store, term, scope, q.language, q.language_fallback)
    introductions = [s for s in spans if s.first_containing]
    if not introductions:
        raise TermNotFound(term, q.entry)
    introductions.sort(key=lambda s: (s.work, store.ctvs[s.ctv].validity.valid_start))

    chains = [_assemble_chain(store, span.work, span.ctv) for span in introductions]
    lines = [f'Provenance report: "{term}" in {_entry_label(store, q)}']
    citations: list[tuple[str, str, str]] = []
    action_records: list[dict] = []
    for i, chain in enumerate(chains):
        if len(chains) > 1:
            lines.append(f"--- occurrence {i + 1}: {store.works[chain.work].label} ---")
        chain_lines, chain_citations = _chain_report(store, chain, term, q.language,
                                                     q.language_fallback)
        lines.extend(chain_lines)
        citations.extend(chain_citations)
        for aid in chain.actions:
            action = store.actions[aid]
            action_records.append({
                "action": aid,
                "target": chain.work,
                "date": action.effective_date.isoformat(),
            })
    chains_annex = [list(chain.actions) for chain in chains]
    return _finish(q, "\n".join(lines), citations, action_records, chains_annex, 1.0)


def run_retrieve(store: GraphStore, q: StructuredQuery) -> Answer:
    """Ranked scoped retrieval over the requested aspects."""
    t = resolve_instant(q.temporal)
    request = RetrievalRequest(
        query_text=q.textual_target or "",
        scope=_scope_works(store, q, t),
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
    return _finish(q, "\n".join(lines), citations, action_records, [], confidence)


_RUNNERS = {
    QueryPattern.POINT_IN_TIME: run_point_in_time,
    QueryPattern.IMPACT_ANALYSIS: run_impact_analysis,
    QueryPattern.PROVENANCE: run_provenance,
    QueryPattern.RETRIEVE: run_retrieve,
}


def run(store: GraphStore, q: StructuredQuery, clock: date) -> Answer:
    """Canonicalize (binding ``now`` to the clock), then dispatch to the pattern runner."""
    canonical = canonicalize(q, store, clock)
    return _RUNNERS[canonical.pattern](store, canonical)
