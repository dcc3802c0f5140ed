"""Graph node types, identifiers, and validity-interval semantics.

Every node is a plain value object: construction fixes its identity and
the store treats instances as immutable (updates go through
``dataclasses.replace`` on the store side). Validity intervals are
half-open: ``valid_start`` inclusive, ``valid_end`` exclusive, so a
version "valid until 2010-02-03" is stored with ``valid_end``
2010-02-04.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import GraphStore

EMBEDDING_DIMENSION = 256

# Fragment separator between a norm urn and a component path.
FRAGMENT_SEP = "!"
# Separator between a work urn and a version date in derived CTV ids.
VERSION_SEP = "@"

_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII).fullmatch


class WorkKind(str, Enum):
    NORM = "norm"
    COMPONENT = "component"


class ComponentType(str, Enum):
    TITLE = "title"
    CHAPTER = "chapter"
    SECTION = "section"
    ARTICLE = "article"
    CAPUT = "caput"
    PARAGRAPH = "paragraph"
    ITEM = "item"
    OTHER = "other"


class ActionType(str, Enum):
    ENACTMENT = "enactment"
    AMENDMENT = "amendment"
    REPEAL = "repeal"


class Aspect(str, Enum):
    CONTENT = "content"
    ACTION_DESCRIPTION = "action_description"
    METADATA = "metadata"
    THEME_DESCRIPTION = "theme_description"


# Component types that carry their own text. An article carries text only
# when it has no subdivisions; that case is resolved at parse time.
TEXT_BEARING_TYPES = frozenset({ComponentType.CAPUT, ComponentType.PARAGRAPH, ComponentType.ITEM})

# Allowed child component types per parent type; None keys the norm root.
STRUCTURE_RULES: dict[ComponentType | None, frozenset[ComponentType]] = {
    None: frozenset({ComponentType.TITLE, ComponentType.CHAPTER, ComponentType.SECTION,
                     ComponentType.ARTICLE, ComponentType.OTHER}),
    ComponentType.TITLE: frozenset({ComponentType.CHAPTER, ComponentType.SECTION,
                                    ComponentType.ARTICLE, ComponentType.OTHER}),
    ComponentType.CHAPTER: frozenset({ComponentType.SECTION, ComponentType.ARTICLE,
                                      ComponentType.OTHER}),
    ComponentType.SECTION: frozenset({ComponentType.ARTICLE, ComponentType.OTHER}),
    ComponentType.ARTICLE: frozenset({ComponentType.CAPUT, ComponentType.PARAGRAPH}),
    ComponentType.CAPUT: frozenset({ComponentType.ITEM}),
    ComponentType.PARAGRAPH: frozenset({ComponentType.ITEM}),
    ComponentType.ITEM: frozenset(),
    ComponentType.OTHER: frozenset(set(ComponentType)),
}


@dataclass(frozen=True)
class WorkId:
    """Canonical identifier of a norm or component work.

    Equality and hashing use the urn alone; aliases are lookup helpers.
    """

    urn: str
    aliases: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.urn:
            raise ValueError("work urn must be non-empty")

    @property
    def fragment(self) -> str | None:
        """Component fragment path, or None for a norm-level urn."""
        if FRAGMENT_SEP in self.urn:
            return self.urn.rsplit(FRAGMENT_SEP, 1)[1]
        return None

    @property
    def norm_urn(self) -> str:
        """Urn of the owning norm (itself, for a norm-level urn)."""
        return self.urn.split(FRAGMENT_SEP, 1)[0]

    def __str__(self) -> str:
        return self.urn


@dataclass(frozen=True)
class WorkNode:
    """Abstract identity of a norm or one of its hierarchical components."""

    id: WorkId
    kind: WorkKind
    component_type: ComponentType = ComponentType.OTHER
    parent: str | None = None
    ordinal: int = 0
    metadata: tuple[tuple[str, str], ...] = ()

    @property
    def urn(self) -> str:
        return self.id.urn

    def meta(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.metadata:
            if k == key:
                return v
        return default

    @property
    def label(self) -> str:
        """Human-facing label; falls back to fragment or urn."""
        return self.meta("label") or self.id.fragment or self.urn


@dataclass(frozen=True)
class ValidityInterval:
    """Half-open validity window: start inclusive, end exclusive."""

    valid_start: date
    valid_end: date | None = None

    def __post_init__(self) -> None:
        if self.valid_end is not None and not self.valid_start < self.valid_end:
            raise ValueError(
                f"valid_start {self.valid_start} must precede valid_end {self.valid_end}"
            )

    @property
    def is_open(self) -> bool:
        return self.valid_end is None

    @property
    def last_valid_day(self) -> date | None:
        """Final calendar day on which the interval holds (None while open)."""
        if self.valid_end is None:
            return None
        return date.fromordinal(self.valid_end.toordinal() - 1)


def parse_iso_date(value: str) -> date:
    """Read exactly ``YYYY-MM-DD``; raise ValueError on anything else.

    ``date.fromisoformat`` alone also reads ``20000214`` and week dates
    from Python 3.11 on, so what it accepts depends on the version.
    """
    if type(value) is str and _ISO_DATE(value):
        try:
            return date.fromisoformat(value)
        except ValueError:  # a month or day out of range
            pass
    raise ValueError(f"not a YYYY-MM-DD date: {value!r}")


def interval_contains(iv: ValidityInterval, t: date) -> bool:
    """True iff ``valid_start <= t`` and t precedes the (possibly open) end."""
    if t < iv.valid_start:
        return False
    return iv.valid_end is None or t < iv.valid_end


def ctv_id(work_urn: str, valid_start: date) -> str:
    return f"{work_urn}{VERSION_SEP}{valid_start.isoformat()}"


def clv_id(temporal_version: str, language: str) -> str:
    return f"{temporal_version}#{language}"


@dataclass(frozen=True)
class TemporalVersion:
    """Date-stamped, language-agnostic snapshot of one work (a CTV).

    ``aggregates`` references one child CTV per child component alive at
    ``validity.valid_start``, ordered by child ordinal; unchanged children
    keep their existing CTV ids across parent versions.
    """

    id: str
    work: str
    validity: ValidityInterval
    aggregates: tuple[str, ...] = ()
    produced_by: str = ""
    terminated_by: str | None = None


@dataclass(frozen=True)
class LanguageVersion:
    """Language-specific realization of a CTV; owns one content text unit."""

    id: str
    temporal_version: str
    language: str
    text_unit: str


@dataclass(frozen=True)
class ActionNode:
    """Reified legislative event that terminates and/or produces CTVs.

    ``terminates``/``produces`` are complete: they include the versions
    created for ancestors by upward aggregation propagation. ``targets``
    names the directly amended/repealed/enacted works, which is what
    impact grouping and attribution metrics key on.
    """

    id: str
    action_type: ActionType
    enactment_date: date
    effective_date: date
    source_provision: str | None = None
    terminates: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()
    description_unit: str = ""
    targets: tuple[str, ...] = ()
    effect: str | None = None
    instrument: str | None = None
    instrument_title: str | None = None
    instrument_short: str | None = None

    @property
    def short_label(self) -> str:
        return self.instrument_short or self.instrument_title or self.id


@dataclass(frozen=True)
class TextUnit:
    """Atomic retrievable text span.

    Its embedding lives in the committed store's matrix
    (``GraphStore.embedding(id)``): the configured dimension and unit L2
    norm, except for empty text, which keeps a zero vector and is skipped
    by vector retrieval.
    """

    id: str
    aspect: Aspect
    owner: str
    language: str
    text: str
    synthetic: bool = False

    @property
    def retrievable(self) -> bool:
        return bool(self.text.strip())


@dataclass(frozen=True)
class ThemeNode:
    """Curated cross-document community of works."""

    id: str
    label: str
    description_unit: str
    members: tuple[str, ...] = ()


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate_graph`."""

    code: str
    message: str
    nodes: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.code}: {self.message} [{', '.join(self.nodes)}]"


def _check_work_tree(graph: "GraphStore", out: list[Violation]) -> None:
    roots_by_norm: dict[str, list[str]] = {}
    for urn, work in graph.works.items():
        if work.kind is WorkKind.NORM:
            if work.parent is not None:
                out.append(Violation("UrnFormat", "norm work has a parent", (urn,)))
            roots_by_norm.setdefault(urn, []).append(urn)
            continue
        if work.parent is None:
            out.append(Violation("UrnFormat", "component work has no parent", (urn,)))
            continue
        if work.parent not in graph.works:
            out.append(Violation("DanglingReference", "parent work missing", (urn, work.parent)))
            continue
        norm_urn = work.id.norm_urn
        if norm_urn not in graph.works:
            out.append(Violation("UrnFormat", "component urn does not extend a known norm urn", (urn,)))
        expected_prefix = norm_urn + FRAGMENT_SEP
        if not urn.startswith(expected_prefix) or not work.id.fragment:
            out.append(Violation("UrnFormat", "component urn lacks a !fragment suffix", (urn,)))
    for urn, work in graph.works.items():
        if work.kind is WorkKind.COMPONENT and work.parent in graph.works:
            parent = graph.works[work.parent]
            if parent.id.norm_urn != work.id.norm_urn:
                out.append(Violation("UrnFormat", "parent belongs to a different norm", (urn, parent.urn)))
    for parent_urn, children in graph.children.items():
        ordinals = sorted(graph.works[c].ordinal for c in children)
        if ordinals != list(range(len(children))):
            out.append(Violation(
                "OrdinalGap",
                f"sibling ordinals {ordinals} are not contiguous from 0",
                (parent_urn,),
            ))


def _check_version_tiling(graph: "GraphStore", out: list[Violation]) -> None:
    for urn in graph.works:
        versions = [graph.ctvs[cid] for cid in graph.versions.get(urn, ())]
        for tv in versions:
            if tv.id != ctv_id(tv.work, tv.validity.valid_start):
                out.append(Violation("IdMismatch", "ctv id does not match work urn + valid_start", (tv.id,)))
        ordered = sorted(versions, key=lambda tv: tv.validity.valid_start)
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.validity.valid_end is None or prev.validity.valid_end > cur.validity.valid_start:
                out.append(Violation(
                    "OverlappingValidity",
                    "validity intervals of consecutive versions overlap",
                    (prev.id, cur.id),
                ))
            elif prev.validity.valid_end < cur.validity.valid_start:
                out.append(Violation(
                    "ValidityGap",
                    f"validity gap between {prev.validity.valid_end} and {cur.validity.valid_start}",
                    (prev.id, cur.id),
                ))


def _check_aggregation(graph: "GraphStore", out: list[Violation]) -> None:
    for tv in graph.ctvs.values():
        start = tv.validity.valid_start
        seen_children: set[str] = set()
        for child_ctv_id in tv.aggregates:
            child = graph.ctvs.get(child_ctv_id)
            if child is None:
                out.append(Violation("DanglingReference", "aggregated ctv missing", (tv.id, child_ctv_id)))
                continue
            child_work = graph.works.get(child.work)
            if child_work is None or child_work.parent != tv.work:
                out.append(Violation(
                    "AggregationStale",
                    "aggregated ctv does not belong to a child component",
                    (tv.id, child_ctv_id),
                ))
                continue
            if child.work in seen_children:
                out.append(Violation("AggregationStale", "child component aggregated twice", (tv.id, child.work)))
            seen_children.add(child.work)
            if not interval_contains(child.validity, start):
                out.append(Violation(
                    "AggregationStale",
                    f"aggregated ctv is not valid on {start}",
                    (tv.id, child_ctv_id),
                ))
        for child_urn in graph.children.get(tv.work, ()):
            if child_urn in seen_children:
                continue
            alive = any(
                interval_contains(graph.ctvs[cid].validity, start)
                for cid in graph.versions.get(child_urn, ())
            )
            if alive:
                out.append(Violation(
                    "AggregationGap",
                    f"child {child_urn} is alive on {start} but not aggregated",
                    (tv.id, child_urn),
                ))


def _check_actions(graph: "GraphStore", out: list[Violation]) -> None:
    produced_by_action: dict[str, str] = {}
    terminated_by_action: dict[str, str] = {}
    for act in graph.actions.values():
        for cid in act.produces:
            produced_by_action[cid] = act.id
            tv = graph.ctvs.get(cid)
            if tv is None:
                out.append(Violation("DanglingReference", "produced ctv missing", (act.id, cid)))
            elif tv.validity.valid_start != act.effective_date:
                out.append(Violation(
                    "ActionDateMismatch",
                    f"produced ctv starts {tv.validity.valid_start}, action effective {act.effective_date}",
                    (act.id, cid),
                ))
        for cid in act.terminates:
            terminated_by_action[cid] = act.id
            tv = graph.ctvs.get(cid)
            if tv is None:
                out.append(Violation("DanglingReference", "terminated ctv missing", (act.id, cid)))
            elif tv.validity.valid_end != act.effective_date:
                out.append(Violation(
                    "ActionDateMismatch",
                    f"terminated ctv ends {tv.validity.valid_end}, action effective {act.effective_date}",
                    (act.id, cid),
                ))
        if act.enactment_date > act.effective_date:
            out.append(Violation("ActionShape", "enactment_date after effective_date", (act.id,)))
        produced_works = {graph.ctvs[c].work for c in act.produces if c in graph.ctvs}
        terminated_works = {graph.ctvs[c].work for c in act.terminates if c in graph.ctvs}
        if act.action_type is ActionType.ENACTMENT:
            if act.terminates or act.source_provision is not None:
                out.append(Violation("ActionShape", "enactment must not terminate or cite a source provision", (act.id,)))
            if not act.produces:
                out.append(Violation("ActionShape", "enactment produces nothing", (act.id,)))
        elif act.action_type is ActionType.AMENDMENT:
            if not act.produces:
                out.append(Violation("ActionShape", "amendment produces nothing", (act.id,)))
            if not act.terminates:
                # Only pure insertions merged into a same-day parent version
                # legitimately terminate nothing: every produced version must
                # then open its work's chain.
                opens_only = all(
                    graph.versions.get(graph.ctvs[c].work, [None])[0] == c
                    for c in act.produces if c in graph.ctvs
                )
                if not opens_only:
                    out.append(Violation(
                        "ActionShape",
                        "amendment rewrites existing works without terminating them",
                        (act.id,),
                    ))
            for w in terminated_works - produced_works:
                out.append(Violation("ActionShape", f"amendment terminates {w} without a successor", (act.id,)))
        elif act.action_type is ActionType.REPEAL:
            if not act.terminates:
                out.append(Violation("ActionShape", "repeal terminates nothing", (act.id,)))
            if not terminated_works - produced_works:
                out.append(Violation("ActionShape", "repeal leaves no work without a successor", (act.id,)))
    for tv in graph.ctvs.values():
        producer = graph.actions.get(tv.produced_by)
        if producer is None or produced_by_action.get(tv.id) != tv.produced_by:
            out.append(Violation("MissingProducer", "ctv has no producing action listing it", (tv.id,)))
        if tv.validity.valid_end is not None:
            terminator = graph.actions.get(tv.terminated_by or "")
            if terminator is None or terminated_by_action.get(tv.id) != tv.terminated_by:
                out.append(Violation("MissingTerminator", "closed ctv has no terminating action listing it", (tv.id,)))
        elif tv.terminated_by is not None:
            out.append(Violation("MissingTerminator", "open ctv carries a terminating action", (tv.id,)))


def _check_language_versions(graph: "GraphStore", out: list[Violation]) -> None:
    seen: set[tuple[str, str]] = set()
    for lv in graph.clvs.values():
        key = (lv.temporal_version, lv.language)
        if key in seen:
            out.append(Violation("DuplicateLanguageVersion", f"second {lv.language} version for ctv", (lv.id,)))
        seen.add(key)
        if lv.temporal_version not in graph.ctvs:
            out.append(Violation("DanglingReference", "clv cites missing ctv", (lv.id, lv.temporal_version)))
        unit = graph.units.get(lv.text_unit)
        if unit is None:
            out.append(Violation("DanglingReference", "clv cites missing text unit", (lv.id, lv.text_unit)))
        elif unit.aspect is not Aspect.CONTENT or unit.owner != lv.id:
            out.append(Violation("AspectOwnerMismatch", "clv text unit is not content owned by it", (lv.id, unit.id)))


_ASPECT_OWNERS = {
    Aspect.CONTENT: "clvs",
    Aspect.ACTION_DESCRIPTION: "actions",
    Aspect.THEME_DESCRIPTION: "themes",
}


def _check_text_units(graph: "GraphStore", out: list[Violation]) -> None:
    # Widths are enforced where rows are written (commit, load); only the
    # norms are left to check, taken over the whole matrix at once (vecdot
    # needs no matrix-sized temporary). A row that overflows gets an inf or
    # NaN norm, which the checks below report.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(graph.embeddings, graph.embeddings)).tolist()
    rows = graph.unit_rows
    for unit in graph.units.values():
        if unit.aspect is Aspect.METADATA:
            ok = unit.owner in graph.works or unit.owner in graph.ctvs
        else:
            ok = unit.owner in getattr(graph, _ASPECT_OWNERS[unit.aspect])
        if not ok:
            out.append(Violation("AspectOwnerMismatch", f"{unit.aspect.value} unit has wrong owner kind", (unit.id,)))
        row = rows.get(unit.id)
        if row is None:
            continue
        norm = norms[row]
        # Negated, so that a NaN norm fails the check.
        if unit.retrievable and not abs(norm - 1.0) <= 1e-6:
            out.append(Violation("EmbeddingShape", f"embedding norm {norm:.8f} is not unit", (unit.id,)))
        if not unit.retrievable and not norm <= 1e-9:
            out.append(Violation("EmbeddingShape", "empty text unit has a nonzero embedding", (unit.id,)))


def _check_themes(graph: "GraphStore", out: list[Violation]) -> None:
    for theme in graph.themes.values():
        for member in theme.members:
            if member not in graph.works:
                out.append(Violation("DanglingReference", "theme member missing", (theme.id, member)))
        unit = graph.units.get(theme.description_unit)
        if unit is None or unit.aspect is not Aspect.THEME_DESCRIPTION:
            out.append(Violation("AspectOwnerMismatch", "theme description unit missing or wrong aspect", (theme.id,)))


def validate_graph(graph: "GraphStore") -> list[Violation]:
    """Check every model invariant; an empty result means a consistent graph.

    Violations are data, not exceptions: callers decide whether to abort.
    """
    out: list[Violation] = []
    _check_work_tree(graph, out)
    _check_version_tiling(graph, out)
    _check_aggregation(graph, out)
    _check_actions(graph, out)
    _check_language_versions(graph, out)
    _check_text_units(graph, out)
    _check_themes(graph, out)
    return out


def metadata_tuple(mapping: Iterable[tuple[str, str]] | dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Normalize a metadata mapping into the sorted tuple form nodes store."""
    items = mapping.items() if isinstance(mapping, dict) else mapping
    return tuple(sorted((str(k), str(v)) for k, v in items))
