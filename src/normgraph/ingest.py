"""Corpus ingestion: document parsing, enactment, and event application.

Input files are explicit structured JSON (``*.satdoc.json`` documents,
``*.satev.json`` event files, ``*.satlang.json`` translation files); the
schemas mirror what an upstream segmenter would emit, so one can be
slotted in front without touching this module.

Event application is strictly sequential. Each amendment or repeal closes
the target's open version and propagates upward: every ancestor receives
a new version whose aggregation list swaps in the changed child and keeps
the unchanged children's existing version ids.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import date
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .errors import (
    DuplicateFragment,
    DuplicateNorm,
    MalformedInput,
    NoOpenVersion,
    OutOfOrderEvent,
    StructureError,
    TranslationConflict,
    UnknownTarget,
    UnknownWork,
)
from .model import (
    ActionNode,
    ActionType,
    Aspect,
    ComponentType,
    FRAGMENT_SEP,
    LanguageVersion,
    STRUCTURE_RULES,
    TEXT_BEARING_TYPES,
    TemporalVersion,
    TextUnit,
    ValidityInterval,
    WorkId,
    WorkKind,
    WorkNode,
    clv_id,
    ctv_id,
    metadata_tuple,
    parse_iso_date,
)
from .store import GraphStore
from .themes import define_theme

DOC_SUFFIX = ".satdoc.json"
EVENT_SUFFIX = ".satev.json"
LANG_SUFFIX = ".satlang.json"

FORMAT_VERSION = 1

# Work metadata keys that describe presentation, not facts worth textualizing.
_PRESENTATION_KEYS = frozenset({"label", "title", "short_title", "language", "heading"})


@cache
def _load_locale(language: str) -> dict:
    """The locale's templates, read once per language; callers must not mutate them."""
    # Only English templates ship; every language falls back to them.
    base = resources.files("normgraph").joinpath("locales")
    candidate = base.joinpath(f"{language}.json")
    if not candidate.is_file():
        candidate = base.joinpath("en.json")
    return json.loads(candidate.read_text(encoding="utf-8"))


def _spell_date(d: date, locale: dict) -> str:
    return f"{locale['months'][d.month - 1]} {d.day}, {d.year}"


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.casefold()).strip("-") or "x"


# -- parsed input types -------------------------------------------------------


@dataclass(frozen=True)
class ComponentRecord:
    """One node of a parsed document body."""

    fragment: str
    component_type: ComponentType
    ordinal: int
    heading: str | None = None
    label: str | None = None
    text: str | None = None
    synthetic: bool = False
    aliases: tuple[str, ...] = ()
    children: tuple["ComponentRecord", ...] = ()


@dataclass(frozen=True)
class NormMeta:
    urn: str
    title: str
    publication_date: date
    language: str
    short_title: str | None = None
    aliases: tuple[str, ...] = ()
    metadata: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ThemeSpec:
    label: str
    description: str
    members: tuple[str, ...] = ()


@dataclass(frozen=True)
class SourceDocument:
    norm: NormMeta
    body: tuple[ComponentRecord, ...] = ()
    themes: tuple[ThemeSpec, ...] = ()


@dataclass(frozen=True)
class EventRecord:
    """One amendment/insertion/repeal command from an event file.

    ``new_components`` holds the raw subtree records; they are validated
    against the target's component type when the event is applied.
    """

    action_type: ActionType
    target: str
    enactment_date: date
    effective_date: date
    source_provision: str | None = None
    source_label: str | None = None
    effect: str | None = None
    new_text: tuple[tuple[str, str], ...] = ()
    synthetic: tuple[tuple[str, bool], ...] = ()
    new_components: tuple[dict, ...] = ()


@dataclass(frozen=True)
class EventFile:
    instrument: NormMeta | None
    events: tuple[EventRecord, ...] = ()
    themes: tuple[ThemeSpec, ...] = ()


@dataclass(frozen=True)
class TranslationFile:
    norm: str
    language: str
    at: date | None
    units: tuple[tuple[str, str], ...]
    synthetic: bool = True


# -- parsing ------------------------------------------------------------------


def _req(data: dict, key: str, path: str | None):
    if key not in data:
        raise MalformedInput(f"missing required field {key!r}", path)
    return data[key]


def _parse_date_field(value, key: str, path: str | None) -> date:
    try:
        return parse_iso_date(value)
    except ValueError:
        raise MalformedInput(f"field {key!r} is not an ISO date: {value!r}", path) from None


def _parse_component(
    data: dict,
    position: int,
    parent_type: ComponentType | None,
    seen_fragments: set[str],
    path: str | None,
) -> ComponentRecord:
    fragment = _req(data, "fragment", path)
    if fragment in seen_fragments:
        raise DuplicateFragment(fragment)
    seen_fragments.add(fragment)
    try:
        ctype = ComponentType(_req(data, "type", path))
    except ValueError:
        raise MalformedInput(f"unknown component type {data.get('type')!r}", path) from None
    allowed = STRUCTURE_RULES[parent_type]
    if ctype not in allowed:
        parent_name = parent_type.value if parent_type else "norm"
        raise StructureError(f"{ctype.value} may not nest under {parent_name} ({fragment})")
    ordinal = data.get("ordinal", position)
    if ordinal != position:
        raise StructureError(f"ordinal {ordinal} of {fragment!r} does not match position {position}")
    children = tuple(
        _parse_component(child, i, ctype, seen_fragments, path)
        for i, child in enumerate(data.get("children", ()))
    )
    text = data.get("text")
    bears_text = ctype in TEXT_BEARING_TYPES or (ctype is ComponentType.ARTICLE and not children)
    if bears_text and text is None:
        raise StructureError(f"{ctype.value} {fragment!r} must carry text")
    if not bears_text and text is not None:
        raise StructureError(f"{ctype.value} {fragment!r} must not carry text")
    return ComponentRecord(
        fragment=fragment,
        component_type=ctype,
        ordinal=position,
        heading=data.get("heading"),
        label=data.get("label"),
        text=text,
        synthetic=bool(data.get("synthetic", False)),
        aliases=tuple(data.get("aliases", ())),
        children=children,
    )


def _parse_norm_meta(data: dict, path: str | None) -> NormMeta:
    return NormMeta(
        urn=_req(data, "urn", path),
        title=_req(data, "title", path),
        publication_date=_parse_date_field(
            _req(data, "publication_date", path), "publication_date", path),
        language=data.get("language", "en"),
        short_title=data.get("short_title"),
        aliases=tuple(data.get("aliases", ())),
        metadata=metadata_tuple(data.get("metadata", {})),
    )


def _parse_themes(data: dict, path: str | None) -> tuple[ThemeSpec, ...]:
    specs = []
    for item in data.get("themes", ()):
        specs.append(ThemeSpec(
            label=_req(item, "label", path),
            description=_req(item, "description", path),
            members=tuple(item.get("members", ())),
        ))
    return tuple(specs)


def _check_format_version(data: dict, path: str | None) -> None:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise MalformedInput(f"unsupported format_version {version!r}", path)


def parse_document(source: str | dict, path: str | None = None) -> SourceDocument:
    """Parse an articulated-document file into a component tree.

    The tree mirrors the input nesting exactly and leaf text is preserved
    byte-for-byte.
    """
    data = json.loads(source) if isinstance(source, str) else source
    _check_format_version(data, path)
    norm = _parse_norm_meta(_req(data, "norm", path), path)
    seen: set[str] = set()
    body = tuple(
        _parse_component(child, i, None, seen, path)
        for i, child in enumerate(data.get("body", ())))
    return SourceDocument(norm=norm, body=body, themes=_parse_themes(data, path))


def parse_event_file(source: str | dict, path: str | None = None) -> EventFile:
    """Parse an amendment-event file; effective dates must be non-decreasing."""
    data = json.loads(source) if isinstance(source, str) else source
    _check_format_version(data, path)
    instrument = None
    if "instrument" in data:
        instrument = _parse_norm_meta(data["instrument"], path)
    elif data.get("events"):
        raise MalformedInput("event files with events need an instrument block", path)
    events: list[EventRecord] = []
    previous: date | None = None
    for i, item in enumerate(data.get("events", ())):
        try:
            action_type = ActionType(_req(item, "action_type", path))
        except ValueError:
            raise MalformedInput(f"unknown action_type {item.get('action_type')!r}", path) from None
        if action_type is ActionType.ENACTMENT:
            raise MalformedInput("enactment events belong in document files", path)
        effective = _parse_date_field(_req(item, "effective_date", path), "effective_date", path)
        enacted = _parse_date_field(
            item.get("enactment_date", effective.isoformat()), "enactment_date", path)
        if enacted > effective:
            raise MalformedInput(f"event {i}: enactment_date after effective_date", path)
        if previous is not None and effective < previous:
            raise MalformedInput(f"event {i}: effective dates decrease within the file", path)
        previous = effective
        new_text = tuple(sorted((item.get("new_text") or {}).items()))
        synthetic_raw = item.get("synthetic", {})
        if isinstance(synthetic_raw, bool):
            synthetic = tuple((lang, synthetic_raw) for lang, _ in new_text)
        else:
            synthetic = tuple(sorted((k, bool(v)) for k, v in synthetic_raw.items()))
        raw_components = tuple(item.get("new_components") or ())
        if raw_components and new_text:
            raise MalformedInput(f"event {i}: new_text and new_components are exclusive", path)
        if action_type is ActionType.AMENDMENT and not raw_components and not new_text:
            raise MalformedInput(f"event {i}: amendment needs new_text or new_components", path)
        if action_type is ActionType.REPEAL and (raw_components or new_text):
            raise MalformedInput(f"event {i}: repeal carries no replacement content", path)
        events.append(EventRecord(
            action_type=action_type,
            target=_req(item, "target", path),
            enactment_date=enacted,
            effective_date=effective,
            source_provision=item.get("source_provision"),
            source_label=item.get("source_label"),
            effect=item.get("effect"),
            new_text=new_text,
            synthetic=synthetic,
            new_components=raw_components,
        ))
    return EventFile(instrument=instrument, events=tuple(events), themes=_parse_themes(data, path))


def parse_translation_file(source: str | dict, path: str | None = None) -> TranslationFile:
    data = json.loads(source) if isinstance(source, str) else source
    _check_format_version(data, path)
    at = data.get("at")
    return TranslationFile(
        norm=_req(data, "norm", path),
        language=_req(data, "language", path),
        at=_parse_date_field(at, "at", path) if at else None,
        units=tuple(sorted((_req(u, "fragment", path), _req(u, "text", path))
                           for u in data.get("units", ()))),
        synthetic=bool(data.get("synthetic", True)),
    )


# -- metadata and action textualization ---------------------------------------


def textualize_metadata(node: WorkNode | TemporalVersion, store: GraphStore,
                        language: str = "en") -> list[TextUnit]:
    """One declarative metadata sentence per informative property of a node.

    Presentation-only keys (label, title, ...) are skipped; temporal
    versions carry no free metadata, so they yield nothing.
    """
    if not isinstance(node, WorkNode):
        return []
    locale = _load_locale(language)
    title = node.meta("title") or node.label
    units: list[TextUnit] = []
    for key, value in node.metadata:
        if key in _PRESENTATION_KEYS:
            continue
        if key == "publication_date":
            try:
                spelled = _spell_date(parse_iso_date(value), locale)
            except ValueError:
                spelled = value
            text = locale["meta_publication_date"].format(title=title, date=spelled)
        elif key == "succeeds":
            text = locale["meta_succeeds"].format(title=title, value=value)
        elif key == "alternative_title":
            text = locale["meta_alternative_title"].format(title=title, value=value)
        else:
            text = locale["meta_generic"].format(key=key.replace("_", " "), title=title, value=value)
        units.append(TextUnit(
            id=f"tu:{node.urn}:meta:{key}",
            aspect=Aspect.METADATA,
            owner=node.urn,
            language=language,
            text=text,
        ))
    return units


def _label_of(store: GraphStore, urn: str) -> str:
    work = store.works.get(urn)
    return work.label if work else urn


def render_action_text(action: ActionNode, store: GraphStore, language: str = "en") -> str:
    """Deterministic natural-language summary of a legislative event."""
    locale = _load_locale(language)
    instrument = action.instrument_title or action.instrument or action.id
    target_urn = action.targets[0] if action.targets else ""
    target = _label_of(store, target_urn)
    norm_title = ""
    if target_urn in store.works:
        norm = store.norm_of(target_urn)
        norm_title = norm.meta("title") or norm.label
    source = _source_prose(action, store)
    effective = action.effective_date.isoformat()

    if action.action_type is ActionType.ENACTMENT:
        return locale["action_enactment"].format(
            instrument=instrument, target=norm_title or target, effective=effective)

    terminated_tv = next(
        (store.ctvs[cid] for cid in action.terminates
         if cid in store.ctvs and store.ctvs[cid].work == target_urn),
        None,
    )
    previous_start = terminated_tv.validity.valid_start.isoformat() if terminated_tv else ""
    last_day = terminated_tv.validity.last_valid_day if terminated_tv else None
    terminated = last_day.isoformat() if last_day else ""

    if action.action_type is ActionType.REPEAL:
        return locale["action_repeal"].format(
            instrument=instrument, source=source, target=target, norm=norm_title,
            terminated=terminated, previous_start=previous_start)

    if terminated_tv is None:
        # Insertion: the named targets are new works without predecessors.
        inserted = ", ".join(_label_of(store, w) for w in action.targets) or "new provisions"
        first = store.works.get(target_urn)
        parent_label = _label_of(store, first.parent) if first and first.parent else norm_title
        return locale["action_insertion"].format(
            instrument=instrument, source=source, inserted=inserted,
            target=parent_label, norm=norm_title, effective=effective)

    produced_tv = next(
        (store.ctvs[cid] for cid in action.produces
         if cid in store.ctvs and store.ctvs[cid].work == target_urn),
        None,
    )
    new_text = ""
    if produced_tv is not None:
        lv = store.content_clv(produced_tv.id, language)
        if lv is None:
            candidates = sorted(store.clvs_by_ctv.get(produced_tv.id, {}).items())
            lv = store.clvs[candidates[0][1]] if candidates else None
        if lv is not None:
            new_text = store.units[lv.text_unit].text
    return locale["action_amendment"].format(
        instrument=instrument, source=source, target=target, norm=norm_title,
        terminated=terminated, previous_start=previous_start,
        effective=effective, text=new_text)


def _source_prose(action: ActionNode, store: GraphStore) -> str:
    if action.source_provision is None:
        return "its own terms"
    work = store.works.get(action.source_provision)
    label = work.meta("label") if work else None
    if label:
        return label
    fragment = WorkId(action.source_provision).fragment
    return f"its {fragment}" if fragment else action.source_provision


# -- enactment ----------------------------------------------------------------


def _component_metadata(record: ComponentRecord) -> tuple[tuple[str, str], ...]:
    meta: dict[str, str] = {}
    if record.heading:
        meta["heading"] = record.heading
    if record.label:
        meta["label"] = record.label
    return metadata_tuple(meta)


def _attach_content(store: GraphStore, cid: str, language: str, text: str,
                    synthetic: bool) -> str:
    lv_id = clv_id(cid, language)
    unit_id = f"tu:{lv_id}"
    store.add_clv(LanguageVersion(
        id=lv_id, temporal_version=cid, language=language, text_unit=unit_id))
    store.add_unit(TextUnit(
        id=unit_id, aspect=Aspect.CONTENT, owner=lv_id,
        language=language, text=text, synthetic=synthetic,
    ))
    return lv_id


def enact(store: GraphStore, doc: SourceDocument) -> str:
    """Create the full work tree, initial versions, and the enactment action."""
    norm_urn = doc.norm.urn
    if norm_urn in store.works:
        raise DuplicateNorm(norm_urn)
    start = doc.norm.publication_date
    action_id = f"act:{_slug(doc.norm.short_title or doc.norm.title)}:enactment"

    norm_meta = dict(doc.norm.metadata)
    norm_meta.setdefault("title", doc.norm.title)
    if doc.norm.short_title:
        norm_meta.setdefault("short_title", doc.norm.short_title)
    norm_meta.setdefault("publication_date", start.isoformat())
    norm_meta.setdefault("language", doc.norm.language)
    store.add_work(WorkNode(
        id=WorkId(norm_urn, doc.norm.aliases),
        kind=WorkKind.NORM,
        component_type=ComponentType.OTHER,
        metadata=metadata_tuple(norm_meta),
    ))

    produced: list[str] = []
    component_urns: list[str] = []

    def build(record: ComponentRecord, parent_urn: str) -> str:
        urn = f"{norm_urn}{FRAGMENT_SEP}{record.fragment}"
        store.add_work(WorkNode(
            id=WorkId(urn, record.aliases),
            kind=WorkKind.COMPONENT,
            component_type=record.component_type,
            parent=parent_urn,
            ordinal=record.ordinal,
            metadata=_component_metadata(record),
        ))
        component_urns.append(urn)
        child_ctvs = [build(child, urn) for child in record.children]
        cid = ctv_id(urn, start)
        store.add_ctv(TemporalVersion(
            id=cid, work=urn, validity=ValidityInterval(start),
            aggregates=tuple(child_ctvs), produced_by=action_id,
        ))
        produced.append(cid)
        if record.text is not None:
            _attach_content(store, cid, doc.norm.language, record.text, record.synthetic)
        return cid

    root_ctvs = [build(record, norm_urn) for record in doc.body]
    norm_ctv = ctv_id(norm_urn, start)
    store.add_ctv(TemporalVersion(
        id=norm_ctv, work=norm_urn, validity=ValidityInterval(start),
        aggregates=tuple(root_ctvs), produced_by=action_id,
    ))
    produced.append(norm_ctv)

    action = ActionNode(
        id=action_id,
        action_type=ActionType.ENACTMENT,
        enactment_date=start,
        effective_date=start,
        produces=tuple(produced),
        description_unit=f"tu:{action_id}:desc",
        targets=(norm_urn,),
        instrument=norm_urn,
        instrument_title=doc.norm.title,
        instrument_short=doc.norm.short_title,
    )
    store.add_action(action)
    store.add_unit(TextUnit(
        id=action.description_unit,
        aspect=Aspect.ACTION_DESCRIPTION,
        owner=action_id,
        language="en",
        text=render_action_text(action, store),
    ))
    for urn in [norm_urn] + component_urns:
        for unit in textualize_metadata(store.works[urn], store):
            store.add_unit(unit)
    return action_id


# -- event application ---------------------------------------------------------


def _ensure_instrument_works(
    store: GraphStore,
    instrument: NormMeta,
    source_fragment: str | None,
    source_label: str | None,
) -> str | None:
    """Create reference stubs for the amending norm and its provision."""
    if instrument.urn not in store.works:
        meta = dict(instrument.metadata)
        meta.setdefault("title", instrument.title)
        if instrument.short_title:
            meta.setdefault("short_title", instrument.short_title)
        store.add_work(WorkNode(
            id=WorkId(instrument.urn, instrument.aliases),
            kind=WorkKind.NORM,
            component_type=ComponentType.OTHER,
            metadata=metadata_tuple(meta),
        ))
    if source_fragment is None:
        return None
    source_urn = f"{instrument.urn}{FRAGMENT_SEP}{source_fragment}"
    if source_urn not in store.works:
        meta = {"label": source_label} if source_label else {}
        store.add_work(WorkNode(
            id=WorkId(source_urn),
            kind=WorkKind.COMPONENT,
            component_type=ComponentType.OTHER,
            parent=instrument.urn,
            ordinal=len(store.children.get(instrument.urn, ())),
            metadata=metadata_tuple(meta),
        ))
    return source_urn


def _open_version(store: GraphStore, urn: str, effective: date) -> TemporalVersion:
    chain = store.versions.get(urn, [])
    if not chain:
        raise NoOpenVersion(urn, effective)
    last = store.ctvs[chain[-1]]
    if not last.validity.is_open:
        raise NoOpenVersion(urn, effective)
    return last


def _ancestors(store: GraphStore, urn: str) -> list[str]:
    out = []
    current = store.works[urn].parent
    while current is not None:
        out.append(current)
        current = store.works[current].parent
    return out


def _carry_content(store: GraphStore, old_cid: str, new_cid: str) -> None:
    """Copy content language versions onto a propagated text-bearing version."""
    for _, lv_id in sorted(store.clvs_by_ctv.get(old_cid, {}).items()):
        lv = store.clvs[lv_id]
        unit = store.units[lv.text_unit]
        _attach_content(store, new_cid, lv.language, unit.text, unit.synthetic)


def _roll_version(
    store: GraphStore,
    urn: str,
    effective: date,
    mutate: Callable[[list[str]], list[str]],
    action_id: str,
    terminates: list[str],
    produces: list[str],
) -> tuple[str | None, str]:
    """Close the open version of ``urn`` and open a successor at ``effective``.

    ``mutate`` rewrites the aggregation list. When the open version already
    starts on ``effective`` (an earlier event of the same day created it)
    the aggregates are updated in place and no new version is recorded.
    Returns (closed version id or None if merged, successor version id).
    """
    current = _open_version(store, urn, effective)
    if current.validity.valid_start > effective:
        raise OutOfOrderEvent(urn, effective, current.validity.valid_start)
    if current.validity.valid_start == effective:
        store.ctvs[current.id] = replace(
            current, aggregates=tuple(mutate(list(current.aggregates))))
        return None, current.id
    store.close_ctv(current.id, effective, action_id)
    terminates.append(current.id)
    new_cid = ctv_id(urn, effective)
    store.add_ctv(TemporalVersion(
        id=new_cid, work=urn, validity=ValidityInterval(effective),
        aggregates=tuple(mutate(list(current.aggregates))),
        produced_by=action_id,
    ))
    produces.append(new_cid)
    _carry_content(store, current.id, new_cid)
    return current.id, new_cid


def _propagate_up(
    store: GraphStore,
    child_urn: str,
    old_child_cid: str | None,
    new_child_cid: str | None,
    effective: date,
    action_id: str,
    terminates: list[str],
    produces: list[str],
) -> None:
    """Roll every ancestor, swapping/removing the changed child's version id."""
    previous_old = old_child_cid
    previous_new = new_child_cid
    for ancestor in _ancestors(store, child_urn):
        def mutate(aggs: list[str], *, _old=previous_old, _new=previous_new) -> list[str]:
            if _old is not None and _old in aggs:
                index = aggs.index(_old)
                if _new is None:
                    aggs.pop(index)
                else:
                    aggs[index] = _new
            elif _new is not None and _new not in aggs:
                aggs.append(_new)
                aggs.sort(key=lambda cid: store.works[store.ctvs[cid].work].ordinal)
            return aggs

        closed_cid, successor_cid = _roll_version(
            store, ancestor, effective, mutate, action_id, terminates, produces)
        if closed_cid is None:
            # Merged into an existing same-day version: upper ancestors
            # already reference it, so propagation stops here.
            break
        previous_old, previous_new = closed_cid, successor_cid


def apply_event(store: GraphStore, ev: EventRecord, instrument: NormMeta) -> str:
    """Apply one amendment, insertion, or repeal and return its action id."""
    if ev.target not in store.works:
        raise UnknownTarget(ev.target)
    source_urn = _ensure_instrument_works(
        store, instrument, ev.source_provision, ev.source_label)
    target_work = store.works[ev.target]
    fragment = target_work.id.fragment or "norm"
    action_id = (
        f"act:{_slug(instrument.short_title or instrument.title)}:"
        f"{_slug(fragment)}:{ev.effective_date.isoformat()}"
    )
    if action_id in store.actions:
        raise MalformedInput(
            f"duplicate event: {instrument.short_title or instrument.title} "
            f"already acts on {ev.target!r} effective {ev.effective_date.isoformat()}"
        )
    terminates: list[str] = []
    produces: list[str] = []

    if ev.action_type is ActionType.REPEAL:
        current = _open_version(store, ev.target, ev.effective_date)
        if current.validity.valid_start >= ev.effective_date:
            raise OutOfOrderEvent(ev.target, ev.effective_date, current.validity.valid_start)
        store.close_ctv(current.id, ev.effective_date, action_id)
        terminates.append(current.id)
        _propagate_up(store, ev.target, current.id, None, ev.effective_date,
                      action_id, terminates, produces)
        targets: tuple[str, ...] = (ev.target,)
    elif ev.new_components:
        targets = _apply_insertion(store, ev, action_id, terminates, produces)
    else:
        current = _open_version(store, ev.target, ev.effective_date)
        if current.validity.valid_start >= ev.effective_date:
            raise OutOfOrderEvent(ev.target, ev.effective_date, current.validity.valid_start)
        if not store.clvs_by_ctv.get(current.id):
            raise StructureError(f"{ev.target!r} bears no text; use new_components or repeal")
        store.close_ctv(current.id, ev.effective_date, action_id)
        terminates.append(current.id)
        new_cid = ctv_id(ev.target, ev.effective_date)
        store.add_ctv(TemporalVersion(
            id=new_cid, work=ev.target, validity=ValidityInterval(ev.effective_date),
            aggregates=current.aggregates, produced_by=action_id,
        ))
        produces.append(new_cid)
        synthetic = dict(ev.synthetic)
        for language, text in ev.new_text:
            _attach_content(store, new_cid, language, text, synthetic.get(language, False))
        _propagate_up(store, ev.target, current.id, new_cid, ev.effective_date,
                      action_id, terminates, produces)
        targets = (ev.target,)

    action = ActionNode(
        id=action_id,
        action_type=ev.action_type,
        enactment_date=ev.enactment_date,
        effective_date=ev.effective_date,
        source_provision=source_urn,
        terminates=tuple(terminates),
        produces=tuple(produces),
        description_unit=f"tu:{action_id}:desc",
        targets=targets,
        effect=ev.effect,
        instrument=instrument.urn,
        instrument_title=instrument.title,
        instrument_short=instrument.short_title,
    )
    store.add_action(action)
    store.add_unit(TextUnit(
        id=action.description_unit,
        aspect=Aspect.ACTION_DESCRIPTION,
        owner=action_id,
        language="en",
        text=render_action_text(action, store),
    ))
    return action_id


def _apply_insertion(store: GraphStore, ev: EventRecord, action_id: str,
                     terminates: list[str], produces: list[str]) -> tuple[str, ...]:
    parent_urn = ev.target
    parent = store.works[parent_urn]
    parent_type = None if parent.kind is WorkKind.NORM else parent.component_type
    norm_urn = parent.id.norm_urn
    language = store.primary_language(parent_urn)
    _open_version(store, parent_urn, ev.effective_date)  # parent must be alive

    seen: set[str] = set()
    records = [
        _parse_component(raw, i, parent_type, seen, None)
        for i, raw in enumerate(ev.new_components)
    ]
    base_ordinal = len(store.children.get(parent_urn, ()))
    new_root_cids: list[str] = []
    inserted_roots: list[str] = []

    def build(record: ComponentRecord, parent_of: str, ordinal: int) -> str:
        urn = f"{norm_urn}{FRAGMENT_SEP}{record.fragment}"
        if urn in store.works:
            raise MalformedInput(f"inserted fragment {record.fragment!r} already exists")
        store.add_work(WorkNode(
            id=WorkId(urn, record.aliases),
            kind=WorkKind.COMPONENT,
            component_type=record.component_type,
            parent=parent_of,
            ordinal=ordinal,
            metadata=_component_metadata(record),
        ))
        child_cids = [build(child, urn, child.ordinal) for child in record.children]
        cid = ctv_id(urn, ev.effective_date)
        store.add_ctv(TemporalVersion(
            id=cid, work=urn, validity=ValidityInterval(ev.effective_date),
            aggregates=tuple(child_cids), produced_by=action_id,
        ))
        produces.append(cid)
        if record.text is not None:
            _attach_content(store, cid, language, record.text, record.synthetic)
        return cid

    for offset, record in enumerate(records):
        cid = build(record, parent_urn, base_ordinal + offset)
        new_root_cids.append(cid)
        inserted_roots.append(store.ctvs[cid].work)

    def mutate(aggs: list[str]) -> list[str]:
        aggs.extend(new_root_cids)
        return aggs

    closed_cid, successor_cid = _roll_version(
        store, parent_urn, ev.effective_date, mutate, action_id, terminates, produces)
    _propagate_up(store, parent_urn, closed_cid, successor_cid,
                  ev.effective_date, action_id, terminates, produces)
    return tuple(inserted_roots)


# -- translations --------------------------------------------------------------


def add_language(store: GraphStore, norm: str, translations: dict[str, str] | None,
                 language: str, at: date | None = None, synthetic: bool = True) -> list[str]:
    """Attach a new language's wording to existing temporal versions.

    Creates language versions and content units only; the work tree and
    the version chains are untouched. ``at`` selects which temporal
    version of each fragment receives the wording (default: the norm's
    first enactment date).
    """
    if norm not in store.works:
        raise UnknownWork(norm)
    if not translations:
        return []
    if at is None:
        chain = store.versions.get(norm, [])
        if not chain:
            raise UnknownWork(norm)
        at = store.ctvs[chain[0]].validity.valid_start
    created: list[str] = []
    for fragment, text in sorted(translations.items()):
        urn = f"{norm}{FRAGMENT_SEP}{fragment}" if fragment else norm
        if urn not in store.works:
            raise UnknownWork(urn)
        target = store.version_at(urn, at)
        if target is None:
            raise UnknownWork(f"{urn} has no version valid on {at.isoformat()}")
        if store.content_clv(target.id, language) is not None:
            raise TranslationConflict(target.id, language)
        created.append(_attach_content(store, target.id, language, text, synthetic))
    return created


# -- corpus-level driver ---------------------------------------------------------


@dataclass
class IngestSummary:
    documents: int = 0
    events: int = 0
    themes: int = 0
    translations: int = 0
    counts: dict = field(default_factory=dict)


def ordered_events(
        event_files: Iterable[tuple[str, EventFile]]) -> list[tuple[EventRecord, NormMeta | None]]:
    """Every event of the given ``(file name, parsed event file)`` pairs.

    Each comes with its file's instrument, in (effective_date, file name,
    record index) order.
    """
    pending = [(record.effective_date, name, index, record, event_file.instrument)
               for name, event_file in event_files
               for index, record in enumerate(event_file.events)]
    pending.sort(key=lambda item: item[:3])
    return [(record, instrument) for *_, record, instrument in pending]


def ingest_corpus(corpus_dir: str | Path, embedder=None) -> tuple[GraphStore, IngestSummary]:
    """Enact every document and apply every event file in deterministic order.

    Documents are enacted in file-name order; event records across all
    files are applied by (effective_date, file name, record index);
    themes and translations follow, then the store is committed.
    """
    corpus = Path(corpus_dir)
    doc_paths = sorted(p for p in corpus.iterdir() if p.name.endswith(DOC_SUFFIX))
    event_paths = sorted(p for p in corpus.iterdir() if p.name.endswith(EVENT_SUFFIX))
    lang_paths = sorted(p for p in corpus.iterdir() if p.name.endswith(LANG_SUFFIX))
    if not doc_paths:
        raise MalformedInput("no documents (*.satdoc.json) found", str(corpus))

    store = GraphStore()
    summary = IngestSummary()
    theme_specs: list[ThemeSpec] = []

    for path in doc_paths:
        doc = parse_document(path.read_text(encoding="utf-8"), path=str(path))
        enact(store, doc)
        theme_specs.extend(doc.themes)
        summary.documents += 1

    event_files: list[tuple[str, EventFile]] = []
    for path in event_paths:
        event_file = parse_event_file(path.read_text(encoding="utf-8"), path=str(path))
        theme_specs.extend(event_file.themes)
        event_files.append((path.name, event_file))
    for record, instrument in ordered_events(event_files):
        apply_event(store, record, instrument)
        summary.events += 1

    for spec in theme_specs:
        define_theme(store, spec.label, spec.description, list(spec.members))
        summary.themes += 1

    for path in lang_paths:
        tf = parse_translation_file(path.read_text(encoding="utf-8"), path=str(path))
        created = add_language(store, tf.norm, dict(tf.units), tf.language,
                               at=tf.at, synthetic=tf.synthetic)
        summary.translations += len(created)

    store.commit(embedder)
    summary.counts = store.node_counts()
    return store, summary
