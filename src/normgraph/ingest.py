"""Corpus ingestion: document parsing, enactment, and event application.

Input files are explicit structured JSON (``*.satdoc.json`` documents,
``*.satev.json`` event files, ``*.satlang.json`` translation files); the
schemas mirror what an upstream segmenter would emit, so one can be
slotted in front without touching this module.

Event application is strictly sequential and has one write path: each
enactment and event becomes one action, which holds only the event, and
``GraphStore.replay`` of that action derives the versions it closes and
opens and writes them (see its rule). Each version it opens gets the
event's wording, else its predecessor's. No version stores its children's
versions; the store derives them from the work tree and the chains, so
the unchanged children's existing versions are shared. Every check on an
event runs before its first write, so a rejected event leaves the store
as it was.
"""

from __future__ import annotations

import json
import re
from datetime import date, timedelta
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import (
    DuplicateFragment,
    DuplicateNorm,
    LostPrimaryWording,
    MalformedInput,
    NoOpenVersion,
    OutOfOrderEvent,
    StructureError,
    TranslationConflict,
    UnknownTarget,
    UnknownWork,
    decode_input,
    json_field,
)
from .model import (
    ActionNode,
    ActionType,
    ComponentType,
    FRAGMENT_SEP,
    LanguageVersion,
    Record,
    STRUCTURE_RULES,
    TEXT_BEARING_TYPES,
    TemporalVersion,
    TextUnit,
    WorkNode,
    ctv_id,
    metadata_tuple,
    metadata_unit_id,
    parse_iso_date,
    urn_fragment,
)
from .store import GraphStore, pick_wording
from .themes import define_theme

DOC_SUFFIX = ".satdoc.json"
EVENT_SUFFIX = ".satev.json"
LANG_SUFFIX = ".satlang.json"

FORMAT_VERSION = 1


@cache
def _load_locale() -> dict:
    """The English templates, the one locale that ships, read once; callers must not mutate them."""
    return json.loads(resources.files("normgraph").joinpath("locales", "en.json")
                      .read_text(encoding="utf-8"))


def _spell_date(d: date, locale: dict) -> str:
    return f"{locale['months'][d.month - 1]} {d.day}, {d.year}"


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.casefold()).strip("-") or "x"


# -- parsed input types -------------------------------------------------------


class ComponentRecord(Record):
    """One node of a parsed document body."""

    __slots__ = ("fragment", "component_type", "ordinal", "heading", "label", "text",
                 "synthetic", "aliases", "children")

    def __init__(self, fragment: str, component_type: ComponentType, ordinal: int,
                 heading: str | None = None, label: str | None = None, text: str | None = None,
                 synthetic: bool = False, aliases: tuple[str, ...] = (),
                 children: tuple[ComponentRecord, ...] = ()) -> None:
        self._assign(fragment, component_type, ordinal, heading, label, text, synthetic, aliases,
                     children)


class NormMeta(Record):
    __slots__ = ("urn", "title", "publication_date", "language", "short_title", "aliases",
                 "metadata")

    def __init__(self, urn: str, title: str, publication_date: date, language: str,
                 short_title: str | None = None, aliases: tuple[str, ...] = (),
                 metadata: tuple[tuple[str, str], ...] = ()) -> None:
        self._assign(urn, title, publication_date, language, short_title, aliases, metadata)


class ThemeSpec(Record):
    __slots__ = ("label", "description", "members")

    def __init__(self, label: str, description: str, members: tuple[str, ...] = ()) -> None:
        self._assign(label, description, members)


class SourceDocument(Record):
    __slots__ = ("norm", "body", "themes")

    def __init__(self, norm: NormMeta, body: tuple[ComponentRecord, ...] = (),
                 themes: tuple[ThemeSpec, ...] = ()) -> None:
        self._assign(norm, body, themes)


class EventRecord(Record):
    """One amendment/insertion/repeal command from an event file.

    ``new_components`` holds the raw subtree records; they are validated
    against the target's component type when the event is applied, and
    errors in them name ``path``, the event file.
    """

    __slots__ = ("action_type", "target", "enactment_date", "effective_date", "source_provision",
                 "source_label", "effect", "new_text", "synthetic", "new_components", "path")

    def __init__(self, action_type: ActionType, target: str, enactment_date: date,
                 effective_date: date, source_provision: str | None = None,
                 source_label: str | None = None, effect: str | None = None,
                 new_text: tuple[tuple[str, str], ...] = (),
                 synthetic: tuple[tuple[str, bool], ...] = (),
                 new_components: tuple[dict, ...] = (), path: str | None = None) -> None:
        self._assign(action_type, target, enactment_date, effective_date, source_provision,
                     source_label, effect, new_text, synthetic, new_components, path)


class EventFile(Record):
    __slots__ = ("instrument", "events", "themes")

    def __init__(self, instrument: NormMeta | None, events: tuple[EventRecord, ...] = (),
                 themes: tuple[ThemeSpec, ...] = ()) -> None:
        self._assign(instrument, events, themes)


class TranslationFile(Record):
    __slots__ = ("norm", "language", "at", "units", "synthetic")

    def __init__(self, norm: str, language: str, at: date | None,
                 units: tuple[tuple[str, str], ...], synthetic: bool = True) -> None:
        self._assign(norm, language, at, units, synthetic)


# -- parsing ------------------------------------------------------------------


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
    fragment = json_field(data, "fragment", path)
    if FRAGMENT_SEP in fragment:
        raise MalformedInput(f"fragment {fragment!r} holds '!', which ends a norm urn", path)
    if fragment in seen_fragments:
        raise DuplicateFragment(fragment)
    seen_fragments.add(fragment)
    try:
        ctype = ComponentType(json_field(data, "type", path))
    except ValueError:
        raise MalformedInput(f"unknown component type {data['type']!r}", path) from None
    allowed = STRUCTURE_RULES[parent_type]
    if ctype not in allowed:
        parent_name = parent_type.value if parent_type else "norm"
        raise StructureError(f"{ctype.value} may not nest under {parent_name} ({fragment})")
    ordinal = json_field(data, "ordinal", path, int, position)
    if ordinal != position:
        raise StructureError(f"ordinal {ordinal} of {fragment!r} does not match position {position}")
    children = tuple(
        _parse_component(child, i, ctype, seen_fragments, path)
        for i, child in enumerate(json_field(data, "children", path, list, ()))
    )
    text = json_field(data, "text", path, str, None)
    bears_text = ctype in TEXT_BEARING_TYPES or (ctype is ComponentType.ARTICLE and not children)
    if bears_text and text is None:
        raise StructureError(f"{ctype.value} {fragment!r} must carry text")
    if not bears_text and text is not None:
        raise StructureError(f"{ctype.value} {fragment!r} must not carry text")
    return ComponentRecord(
        fragment=fragment,
        component_type=ctype,
        ordinal=position,
        heading=json_field(data, "heading", path, str, None),
        label=json_field(data, "label", path, str, None),
        text=text,
        synthetic=json_field(data, "synthetic", path, bool, False),
        aliases=tuple(json_field(data, "aliases", path, list, (), str)),
        children=children,
    )


def _parse_norm_meta(data: dict, path: str | None) -> NormMeta:
    """A norm or instrument block; its urn names no component, and its metadata keeps its titles."""
    norm = NormMeta(
        urn=json_field(data, "urn", path),
        title=json_field(data, "title", path),
        publication_date=_parse_date_field(
            json_field(data, "publication_date", path), "publication_date", path),
        language=json_field(data, "language", path, str, "en"),
        short_title=json_field(data, "short_title", path, str, None),
        aliases=tuple(json_field(data, "aliases", path, list, (), str)),
        metadata=metadata_tuple(json_field(data, "metadata", path, dict, {}, str)),
    )
    if FRAGMENT_SEP in norm.urn:
        raise MalformedInput(f"norm urn {norm.urn!r} holds '!', which starts a component fragment",
                             path)
    for key, own in (("title", norm.title), ("short_title", norm.short_title)):
        if dict(norm.metadata).get(key, own) != own:
            raise MalformedInput(f"metadata {key!r} of {norm.urn!r} overrides its own {key}", path)
    return norm


def _parse_themes(data: dict, path: str | None) -> tuple[ThemeSpec, ...]:
    specs = []
    for item in json_field(data, "themes", path, list, ()):
        specs.append(ThemeSpec(
            label=json_field(item, "label", path),
            description=json_field(item, "description", path),
            members=tuple(json_field(item, "members", path, list, (), str)),
        ))
    return tuple(specs)


def parse_document(source: str | bytes | dict, path: str | None = None) -> SourceDocument:
    """Parse an articulated-document file into a component tree.

    The tree mirrors the input nesting exactly and leaf text is preserved
    byte-for-byte.
    """
    data = decode_input(source, path, FORMAT_VERSION)
    norm = _parse_norm_meta(json_field(data, "norm", path, dict), path)
    seen: set[str] = set()
    body = tuple(
        _parse_component(child, i, None, seen, path)
        for i, child in enumerate(json_field(data, "body", path, list, ())))
    return SourceDocument(norm=norm, body=body, themes=_parse_themes(data, path))


def parse_event_file(source: str | bytes | dict, path: str | None = None) -> EventFile:
    """Parse an amendment-event file; effective dates must be non-decreasing."""
    data = decode_input(source, path, FORMAT_VERSION)
    instrument = json_field(data, "instrument", path, dict, None)
    raw_events = json_field(data, "events", path, list, ())
    if instrument is not None:
        instrument = _parse_norm_meta(instrument, path)
    elif raw_events:
        raise MalformedInput("event files with events need an instrument block", path)
    events: list[EventRecord] = []
    previous: date | None = None
    for i, item in enumerate(raw_events):
        try:
            action_type = ActionType(json_field(item, "action_type", path))
        except ValueError:
            raise MalformedInput(f"unknown action_type {item['action_type']!r}", path) from None
        if action_type is ActionType.ENACTMENT:
            raise MalformedInput("enactment events belong in document files", path)
        effective = _parse_date_field(
            json_field(item, "effective_date", path), "effective_date", path)
        enacted = _parse_date_field(
            json_field(item, "enactment_date", path, str, effective.isoformat()),
            "enactment_date", path)
        if enacted > effective:
            raise MalformedInput(f"event {i}: enactment_date after effective_date", path)
        if previous is not None and effective < previous:
            raise MalformedInput(f"event {i}: effective dates decrease within the file", path)
        previous = effective
        new_text = tuple(sorted(json_field(item, "new_text", path, dict, {}, str).items()))
        if isinstance(item.get("synthetic"), bool):
            synthetic = tuple((lang, item["synthetic"]) for lang, _ in new_text)
        else:
            synthetic = tuple(sorted(json_field(item, "synthetic", path, dict, {}, bool).items()))
        raw_components = tuple(json_field(item, "new_components", path, list, ()))
        if raw_components and new_text:
            raise MalformedInput(f"event {i}: new_text and new_components are exclusive", path)
        if action_type is ActionType.AMENDMENT and not raw_components and not new_text:
            raise MalformedInput(f"event {i}: amendment needs new_text or new_components", path)
        if action_type is ActionType.REPEAL and (raw_components or new_text):
            raise MalformedInput(f"event {i}: repeal carries no replacement content", path)
        source_provision = json_field(item, "source_provision", path, str, None)
        if source_provision is not None and FRAGMENT_SEP in source_provision:
            raise MalformedInput(f"event {i}: source_provision {source_provision!r} holds '!', "
                                 "which ends a norm urn", path)
        events.append(EventRecord(
            action_type=action_type,
            target=json_field(item, "target", path),
            enactment_date=enacted,
            effective_date=effective,
            source_provision=source_provision,
            source_label=json_field(item, "source_label", path, str, None),
            effect=json_field(item, "effect", path, str, None),
            new_text=new_text,
            synthetic=synthetic,
            new_components=raw_components,
            path=path,
        ))
    return EventFile(instrument=instrument, events=tuple(events), themes=_parse_themes(data, path))


def parse_translation_file(source: str | bytes | dict, path: str | None = None) -> TranslationFile:
    data = decode_input(source, path, FORMAT_VERSION)
    at = json_field(data, "at", path, str, None)
    units = sorted((json_field(u, "fragment", path), json_field(u, "text", path))
                   for u in json_field(data, "units", path, list, ()))
    for (fragment, _), (following, _) in zip(units, units[1:]):
        if fragment == following:
            raise MalformedInput(f"fragment {fragment!r} is listed twice", path)
    return TranslationFile(
        norm=json_field(data, "norm", path),
        language=json_field(data, "language", path),
        at=_parse_date_field(at, "at", path) if at else None,
        units=tuple(units),
        synthetic=json_field(data, "synthetic", path, bool, True),
    )


# -- metadata and action textualization ---------------------------------------


def textualize_metadata(node: WorkNode) -> list[TextUnit]:
    """One declarative metadata sentence per informative property of a work.

    Presentation-only keys (label, title, ...) are skipped. Each unit is the
    one the work names for its key (``metadata_unit_id``).
    """
    locale = _load_locale()
    title = node.meta("title") or node.label
    units: list[TextUnit] = []
    for key, value in node.facts:
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
        units.append(TextUnit(id=metadata_unit_id(node.urn, key), text=text))
    return units


def render_action_text(action: ActionNode, store: GraphStore) -> str:
    """Deterministic natural-language summary of a legislative event.

    The instrument is named by its work's title. An amendment quotes the
    produced version's primary-language wording, whichever translations
    the version has, so re-rendering a stored action gives the description
    ingest stored.
    """
    locale = _load_locale()
    work = store.works.get(action.instrument)
    instrument = (work.meta("title") if work else None) or action.instrument or action.id
    target_urn = action.targets[0]
    target = store.works[target_urn].label
    norm = store.norm_of(target_urn)
    norm_title = norm.meta("title") or norm.label
    source = _source_prose(action, store)
    effective = action.effective_date.isoformat()

    if action.action_type is ActionType.ENACTMENT:
        return locale["action_enactment"].format(
            instrument=instrument, target=norm_title or target, effective=effective)

    terminated_tv = store.closed_by(action, target_urn)
    previous_start = terminated_tv.valid_start.isoformat() if terminated_tv else ""
    # Its last valid day, the day before the action's.
    terminated = (action.effective_date - timedelta(days=1)).isoformat() if terminated_tv else ""

    if action.action_type is ActionType.REPEAL:
        return locale["action_repeal"].format(
            instrument=instrument, source=source, target=target, norm=norm_title,
            terminated=terminated, previous_start=previous_start)

    if action.inserts:
        # The named targets are new works without predecessors.
        inserted = ", ".join(store.works[w].label for w in action.targets)
        return locale["action_insertion"].format(
            instrument=instrument, source=source, inserted=inserted,
            target=store.works[store.works[target_urn].parent].label, norm=norm_title,
            effective=effective)

    new_text = ""
    lv_id = pick_wording(store.clvs_by_ctv.get(ctv_id(target_urn, action.effective_date), {}),
                         store.primary_language(target_urn), None, True)
    if lv_id is not None:
        new_text = store.units[store.clvs[lv_id].text_unit].text
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
    fragment = urn_fragment(action.source_provision)
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
    lv = LanguageVersion(temporal_version=cid, language=language)
    store.add_clv(lv)
    store.add_unit(TextUnit(id=lv.text_unit, text=text, synthetic=synthetic))
    return lv.id


def _norm_work(norm: NormMeta, **facts: str) -> WorkNode:
    """The work of a norm: its titles, and ``facts`` overridden by its own metadata."""
    meta = {**facts, "title": norm.title}
    if norm.short_title:
        meta["short_title"] = norm.short_title
    meta.update(norm.metadata)
    return WorkNode(norm.urn, norm.aliases, metadata=metadata_tuple(meta))


# What the event gives a work's version: (language, text, synthetic) of each wording.
_Wordings = dict[str, list[tuple[str, str, bool]]]


def _build_subtree(store: GraphStore, record: ComponentRecord, parent_urn: str, ordinal: int,
                   language: str, wordings: _Wordings) -> str:
    """Add the works of ``record``'s subtree, each text in ``language`` to ``wordings``.

    Returns the urn of ``record``'s work.
    """
    urn = f"{store.works[parent_urn].norm_urn}{FRAGMENT_SEP}{record.fragment}"
    store.add_work(WorkNode(
        urn=urn,
        aliases=record.aliases,
        component_type=record.component_type,
        parent=parent_urn,
        ordinal=ordinal,
        metadata=_component_metadata(record),
    ))
    for child in record.children:
        _build_subtree(store, child, urn, child.ordinal, language, wordings)
    if record.text is not None:
        wordings[urn] = [(language, record.text, record.synthetic)]
    return urn


def _record_action(store: GraphStore, action: ActionNode, wordings: _Wordings) -> str:
    """Replay ``action``, word each version it opened, describe it; return its id.

    A version gets the wordings the event gives its work, else a copy of
    its predecessor's (a rolled ancestor's). Its id is the one its node
    holds, so no CLV keeps a copy.
    """
    for cid in store.replay((action,)):
        work = store.ctvs[cid].work
        chain = store.versions[work]
        if work not in wordings and len(chain) > 1:
            for _, lv_id in sorted(store.clvs_by_ctv.get(chain[-2], {}).items()):
                lv = store.clvs[lv_id]
                unit = store.units[lv.text_unit]
                _attach_content(store, cid, lv.language, unit.text, unit.synthetic)
        for language, text, synthetic in wordings.get(work, ()):
            _attach_content(store, cid, language, text, synthetic)
    store.add_unit(TextUnit(id=action.description_unit, text=render_action_text(action, store)))
    return action.id


def enact(store: GraphStore, doc: SourceDocument) -> str:
    """Create the full work tree, initial versions, and the enactment action.

    Only the norm's metadata is textualized: a component's is its heading
    and label, which are presentation keys. The enactment action's id is
    built from the short title (else the title), so a second norm with the
    same one is rejected before anything is written.
    """
    norm = doc.norm
    if norm.urn in store.works:
        raise DuplicateNorm(norm.urn)
    action_id = f"act:{_slug(norm.short_title or norm.title)}:enactment"
    if action_id in store.actions:
        raise MalformedInput(f"duplicate enactment: {action_id!r} already exists; "
                             f"{norm.urn!r} shares its short title with an enacted norm")
    start = norm.publication_date
    store.add_work(_norm_work(norm, publication_date=start.isoformat(), language=norm.language))
    wordings: _Wordings = {}
    for record in doc.body:
        _build_subtree(store, record, norm.urn, record.ordinal, norm.language, wordings)
    _record_action(store, ActionNode(
        id=action_id,
        action_type=ActionType.ENACTMENT,
        enactment_date=start,
        effective_date=start,
        targets=(norm.urn,),
        instrument=norm.urn,
    ), wordings)
    for unit in textualize_metadata(store.works[norm.urn]):
        store.add_unit(unit)
    return action_id


# -- event application ---------------------------------------------------------


def _ensure_instrument_works(
    store: GraphStore,
    instrument: NormMeta,
    source_fragment: str | None,
    source_label: str | None,
) -> str | None:
    """Create reference stubs for the amending norm and its provision.

    A stub norm keeps the instrument's metadata, so its facts are textualized
    as an enacted norm's are.
    """
    if instrument.urn not in store.works:
        store.add_work(_norm_work(instrument))
        if instrument.metadata:
            for unit in textualize_metadata(store.works[instrument.urn]):
                store.add_unit(unit)
    if source_fragment is None:
        return None
    source_urn = f"{instrument.urn}{FRAGMENT_SEP}{source_fragment}"
    if source_urn not in store.works:
        meta = {"label": source_label} if source_label else {}
        store.add_work(WorkNode(source_urn, (), parent=instrument.urn,
                                ordinal=len(store.children.get(instrument.urn, ())),
                                metadata=metadata_tuple(meta)))
    return source_urn


def _open_version(store: GraphStore, urn: str, effective: date) -> TemporalVersion:
    """The open version of ``urn``, which must start on or before ``effective``."""
    chain = store.versions.get(urn)
    last = store.ctvs[chain[-1]] if chain else None
    if last is None or last.valid_end is not None:
        raise NoOpenVersion(urn, effective)
    if last.valid_start > effective:
        raise OutOfOrderEvent(urn, effective, last.valid_start)
    return last


def apply_event(store: GraphStore, ev: EventRecord, instrument: NormMeta) -> str:
    """Apply one amendment, insertion, or repeal and return its action id.

    Every check runs before the first write, so a rejected event leaves the
    store as it was.
    """
    if ev.target not in store.works:
        raise UnknownTarget(ev.target)
    effective = ev.effective_date
    target = store.works[ev.target]
    action_id = (
        f"act:{_slug(instrument.short_title or instrument.title)}:"
        f"{_slug(target.fragment or 'norm')}:{effective.isoformat()}"
    )
    if action_id in store.actions:
        raise MalformedInput(
            f"duplicate event: {instrument.short_title or instrument.title} "
            f"already acts on {ev.target!r} effective {effective.isoformat()}"
        )
    # The titles its work holds label the instrument's actions.
    work = store.works.get(instrument.urn)
    held = work and (work.meta("title"), work.meta("short_title"))
    if held and held != (instrument.title, instrument.short_title or None):
        raise MalformedInput(f"instrument {instrument.urn!r} is titled otherwise than its work "
                             f"({held[0]!r}, short title {held[1]!r})", ev.path)
    current = _open_version(store, ev.target, effective)
    records: list[ComponentRecord] = []
    if ev.new_components:
        # An insertion may join a target version opened earlier that day.
        parent_type = None if target.parent is None else target.component_type
        seen: set[str] = set()
        records = [_parse_component(raw, i, parent_type, seen, ev.path)
                   for i, raw in enumerate(ev.new_components)]
        taken = sorted(f for f in seen if f"{target.norm_urn}{FRAGMENT_SEP}{f}" in store.works)
        if taken:
            raise MalformedInput(f"inserted fragment {taken[0]!r} already exists", ev.path)
    elif current.valid_start == effective:
        raise OutOfOrderEvent(ev.target, effective, current.valid_start)
    elif ev.action_type is ActionType.AMENDMENT and not store.clvs_by_ctv.get(current.id):
        raise StructureError(f"{ev.target!r} bears no text; use new_components or repeal")
    elif ev.new_text and (language := store.primary_language(ev.target)) not in dict(ev.new_text):
        # Readers fall back to the primary language, so every version has wording in it.
        raise MalformedInput(f"new_text for {ev.target!r} has no wording in its norm's primary "
                             f"language {language!r}", ev.path)
    ancestor = target.parent
    while ancestor is not None:
        _open_version(store, ancestor, effective)
        ancestor = store.works[ancestor].parent
    if (ev.source_provision is not None and instrument.urn in store.versions
            and f"{instrument.urn}{FRAGMENT_SEP}{ev.source_provision}" not in store.works):
        # A stub inside an enacted tree would be opened by its enactment's replay.
        raise MalformedInput(f"source provision {ev.source_provision!r} names no work of "
                             f"{instrument.urn!r}, which the corpus enacts", ev.path)

    source_urn = _ensure_instrument_works(
        store, instrument, ev.source_provision, ev.source_label)
    wordings: _Wordings = {}
    if records:
        language = store.primary_language(ev.target)
        base_ordinal = len(store.children.get(ev.target, ()))
        targets = tuple(_build_subtree(store, record, ev.target, base_ordinal + offset,
                                       language, wordings)
                        for offset, record in enumerate(records))
    else:
        targets = (ev.target,)
        synthetic = dict(ev.synthetic)
        wordings[ev.target] = [(language, text, synthetic.get(language, False))
                               for language, text in ev.new_text]

    return _record_action(store, ActionNode(
        id=action_id,
        action_type=ev.action_type,
        enactment_date=ev.enactment_date,
        effective_date=effective,
        source_provision=source_urn,
        targets=targets,
        effect=ev.effect,
        instrument=instrument.urn,
        inserts=bool(records),
    ), wordings)


# -- translations --------------------------------------------------------------


def add_language(store: GraphStore, norm: str, translations: dict[str, str] | None,
                 language: str, at: date | None = None, synthetic: bool = True) -> list[str]:
    """Attach a new language's wording to existing temporal versions.

    Creates language versions and content units only. ``at`` picks each
    fragment's version (default: the norm's enactment date), which may not get
    a wording in the norm's primary language that its next version lacks. Every
    fragment is checked before any wording is attached: a rejected call adds nothing.
    """
    if norm not in store.works:
        raise UnknownWork(norm)
    if not translations:
        return []
    if at is None:
        span = store.lifetime(norm)
        if span is None:
            raise UnknownWork(norm)
        at = span[0]
    targets: list[tuple[str, str]] = []
    for fragment, text in sorted(translations.items()):
        urn = f"{norm}{FRAGMENT_SEP}{fragment}" if fragment else norm
        if urn not in store.works:
            raise UnknownWork(urn)
        target = store.version_at(urn, at)
        if target is None:
            raise UnknownWork(f"{urn} has no version valid on {at.isoformat()}")
        if language in store.clvs_by_ctv.get(target.id, ()):
            raise TranslationConflict(target.id, language)
        after = target.valid_end and store.version_at(urn, target.valid_end)
        if (after and language == store.primary_language(norm)
                and language not in store.clvs_by_ctv.get(after.id, ())):
            raise LostPrimaryWording(f"{target.id!r} may not be worded in its norm's primary "
                                     f"language {language!r}: the next version {after.id!r} is not")
        targets.append((target.id, text))
    return [_attach_content(store, cid, language, text, synthetic) for cid, text in targets]


# -- corpus-level driver ---------------------------------------------------------


class IngestSummary:
    def __init__(self) -> None:
        self.documents = self.events = self.themes = self.translations = 0
        self.counts: dict = {}


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


def ingest_corpus(corpus_dir: str | Path) -> tuple[GraphStore, IngestSummary]:
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
        doc = parse_document(path.read_bytes(), path=str(path))
        enact(store, doc)
        theme_specs.extend(doc.themes)
        summary.documents += 1

    event_files: list[tuple[str, EventFile]] = []
    for path in event_paths:
        event_file = parse_event_file(path.read_bytes(), path=str(path))
        theme_specs.extend(event_file.themes)
        event_files.append((path.name, event_file))
    for record, instrument in ordered_events(event_files):
        apply_event(store, record, instrument)
        summary.events += 1

    for spec in theme_specs:
        define_theme(store, spec.label, spec.description, list(spec.members))
        summary.themes += 1

    for path in lang_paths:
        tf = parse_translation_file(path.read_bytes(), path=str(path))
        try:
            created = add_language(store, tf.norm, dict(tf.units), tf.language,
                                   at=tf.at, synthetic=tf.synthetic)
        except UnknownWork as exc:  # add_language attaches nothing when it raises
            raise MalformedInput(f"the translation names {exc}", str(path)) from None
        except LostPrimaryWording as exc:
            raise MalformedInput(str(exc), str(path)) from None
        summary.translations += len(created)

    store.commit()
    summary.counts = store.node_counts()
    return store, summary
