"""Corpus ingestion: document parsing, enactment, and event application.

Input files are explicit structured JSON (``*.satdoc.json`` documents,
``*.satev.json`` event files, ``*.satlang.json`` translation files); the
schemas mirror what an upstream segmenter would emit, so one can be
slotted in front without touching this module.

Event application has one order and one write path. Events are applied a
day at a time in (effective date, action id) order, the order in which
``GraphStore.replay`` files actions, so file names play no part. A day's
events are checked against the store as the day found it, every check
before the day's first write, so a rejected day leaves the store as it
was. Each enactment and event becomes one action, which holds only the
event, and one ``replay`` of a day's actions derives the versions they
close and open (see its rule). Each version opened gets its event's
wording, else its predecessor's. No version stores its children's; the
store derives them from the work tree and the chains.
"""

from __future__ import annotations

import json
import os
import re
from datetime import date, timedelta
from functools import cache
from importlib import resources
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

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


def _checked_name(value: str | None, what: str, ends: str, path: str | None) -> str | None:
    """``value``, part of a work's urn, unless it is empty or holds '!', which ``ends``."""
    if value == "":
        raise MalformedInput(f"{what} is empty", path)
    if value is not None and FRAGMENT_SEP in value:
        raise MalformedInput(f"{what} {value!r} holds '!', which {ends}", path)
    return value


def _parse_component(
    data: dict,
    position: int,
    parent_type: ComponentType | None,
    seen_fragments: set[str],
    path: str | None,
) -> ComponentRecord:
    fragment = _checked_name(json_field(data, "fragment", path), "fragment", "ends a norm urn",
                             path)
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
    _checked_name(norm.urn, "norm urn", "starts a component fragment", path)
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
        source_provision = _checked_name(json_field(item, "source_provision", path, str, None),
                                         f"event {i}: source_provision", "ends a norm urn", path)
        target = json_field(item, "target", path)
        if target == "":  # names no work, as an empty source provision does
            raise MalformedInput(f"event {i}: target is empty", path)
        events.append(EventRecord(
            action_type=action_type,
            target=target,
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


def _attach_content(store: GraphStore, cid: str, language: str, text: str,
                    synthetic: bool) -> str:
    lv = LanguageVersion(temporal_version=cid, language=language)
    store.add_clv(lv)
    store.add_unit(TextUnit(id=lv.text_unit, text=text, synthetic=synthetic))
    return lv.id


def _add_norm(store: GraphStore, norm: NormMeta, **facts: str) -> None:
    """Add the work of a norm, an enacted one or an instrument's stub, and its metadata units.

    The work holds the norm's titles, and ``facts`` overridden by its own
    metadata; a unit states each fact.
    """
    meta = {**facts, "title": norm.title}
    if norm.short_title:
        meta["short_title"] = norm.short_title
    meta.update(norm.metadata)
    store.add_work(WorkNode(norm.urn, norm.aliases, metadata=metadata_tuple(meta)))
    for unit in textualize_metadata(store.works[norm.urn]):
        store.add_unit(unit)


# What the event gives a work's version: (language, text, synthetic) of each wording.
_Wordings = dict[str, list[tuple[str, str, bool]]]


def _build_subtree(store: GraphStore, record: ComponentRecord, parent_urn: str, ordinal: int,
                   language: str, wordings: _Wordings) -> None:
    """Add the works of ``record``'s subtree, each text in ``language`` to ``wordings``."""
    urn = f"{store.works[parent_urn].norm_urn}{FRAGMENT_SEP}{record.fragment}"
    store.add_work(WorkNode(
        urn=urn,
        aliases=record.aliases,
        component_type=record.component_type,
        parent=parent_urn,
        ordinal=ordinal,
        metadata=metadata_tuple({key: value for key, value in (
            ("heading", record.heading), ("label", record.label)) if value}),
    ))
    for child in record.children:
        _build_subtree(store, child, urn, child.ordinal, language, wordings)
    if record.text is not None:
        wordings[urn] = [(language, record.text, record.synthetic)]


def _record_actions(store: GraphStore, actions: Sequence[ActionNode], wordings: _Wordings) -> None:
    """Replay ``actions`` as one, word each version they opened, and describe each action.

    A version gets the wordings the events give its work, else a copy of
    its predecessor's (a rolled ancestor's). Its id is the one its node
    holds, so no CLV keeps a copy.
    """
    for cid in store.replay(actions):
        work = store.ctvs[cid].work
        chain = store.versions[work]
        if work not in wordings and len(chain) > 1:
            for _, lv_id in sorted(store.clvs_by_ctv.get(chain[-2], {}).items()):
                lv = store.clvs[lv_id]
                unit = store.units[lv.text_unit]
                _attach_content(store, cid, lv.language, unit.text, unit.synthetic)
        for language, text, synthetic in wordings.get(work, ()):
            _attach_content(store, cid, language, text, synthetic)
    for action in actions:
        store.add_unit(TextUnit(id=action.description_unit,
                                text=render_action_text(action, store)))


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
    _add_norm(store, norm, publication_date=start.isoformat(), language=norm.language)
    wordings: _Wordings = {}
    for record in doc.body:
        _build_subtree(store, record, norm.urn, record.ordinal, norm.language, wordings)
    _record_actions(store, [ActionNode(
        id=action_id,
        action_type=ActionType.ENACTMENT,
        enactment_date=start,
        effective_date=start,
        targets=(norm.urn,),
        instrument=norm.urn,
    )], wordings)
    return action_id


# -- event application ---------------------------------------------------------


def _action_id(instrument: NormMeta, ev: EventRecord) -> str:
    """The id of the action ``ev``, an event of ``instrument``'s, becomes."""
    return (f"act:{_slug(instrument.short_title or instrument.title)}:"
            f"{_slug(urn_fragment(ev.target) or 'norm')}:{ev.effective_date.isoformat()}")


class _Day:
    """What a day's events are checked against: the whole day, and its events checked so far."""

    __slots__ = ("duplicated", "repealed", "events", "changed", "titles")

    def __init__(self, pending: list[tuple[date, str, EventRecord, NormMeta]]) -> None:
        ids = [action_id for _, action_id, _, _ in pending]
        self.duplicated = {a for a, b in zip(ids, ids[1:]) if a == b}  # ids two events share
        self.repealed = {e.target for _, _, e, _ in pending if e.action_type is ActionType.REPEAL}
        self.events: list[tuple] = []  # (action, event, instrument, inserted records), in id order
        self.changed: set[str] = set()  # every work amended, repealed or inserted
        self.titles: dict[str, tuple[str, str | None]] = {}  # instrument urn -> its titles


def _open_version(store: GraphStore, urn: str, effective: date) -> TemporalVersion:
    """The open version of ``urn``, which must start on or before ``effective``."""
    chain = store.versions.get(urn)
    last = store.ctvs[chain[-1]] if chain else None
    if last is None or last.valid_end is not None:
        raise NoOpenVersion(urn, effective)
    if last.valid_start > effective:
        raise OutOfOrderEvent(urn, effective, last.valid_start)
    return last


def apply_event(store: GraphStore, ev: EventRecord, instrument: NormMeta, action_id: str,
                day: _Day) -> None:
    """Check one amendment, insertion, or repeal, and add its action ``action_id`` to ``day``.

    It is checked against the store as the day found it, which holds no work
    the day inserts, and the day's events: no work is amended or repealed
    twice, nor changed beneath a work the day repeals. Nothing is written.
    """
    if ev.target not in store.works:
        raise UnknownTarget(ev.target)
    effective = ev.effective_date
    target = store.works[ev.target]
    if action_id in store.actions or action_id in day.duplicated:
        raise MalformedInput(f"duplicate event: {instrument.short_title or instrument.title} "
                             f"already acts on {ev.target!r} effective {effective.isoformat()}")
    # The titles its work holds, else the day's first block's, label the instrument's actions.
    work = store.works.get(instrument.urn)
    titles = (instrument.title, instrument.short_title or None)
    held = day.titles.setdefault(
        instrument.urn, (work.meta("title"), work.meta("short_title")) if work else titles)
    if held != titles:
        raise MalformedInput(f"instrument {instrument.urn!r} is titled otherwise than its work "
                             f"({held[0]!r}, short title {held[1]!r})", ev.path)
    current = _open_version(store, ev.target, effective)
    records: list[ComponentRecord] = []
    # The works it acts on, and those it amends, repeals or inserts.
    targets = changed = (ev.target,)
    if ev.new_components:
        # An insertion may join a target version another action opens that day.
        parent_type = None if target.parent is None else target.component_type
        seen: set[str] = set()
        records = [_parse_component(raw, i, parent_type, seen, ev.path)
                   for i, raw in enumerate(ev.new_components)]
        targets = tuple(f"{target.norm_urn}{FRAGMENT_SEP}{record.fragment}" for record in records)
        changed = tuple(f"{target.norm_urn}{FRAGMENT_SEP}{f}" for f in sorted(seen))
        taken = [urn for urn in changed if urn in store.works or urn in day.changed]
        if taken:
            raise MalformedInput(f"inserted fragment {urn_fragment(taken[0])!r} already exists",
                                 ev.path)
    elif ev.target in day.changed or current.valid_start == effective:
        raise OutOfOrderEvent(ev.target, effective, effective)  # a version of it opens that day
    elif ev.action_type is ActionType.AMENDMENT and not store.clvs_by_ctv.get(current.id):
        raise StructureError(f"{ev.target!r} bears no text; use new_components or repeal")
    elif ev.new_text and (language := store.primary_language(ev.target)) not in dict(ev.new_text):
        # Readers fall back to the primary language, so every version has wording in it.
        raise MalformedInput(f"new_text for {ev.target!r} has no wording in its norm's primary "
                             f"language {language!r}", ev.path)
    # Its roll, from the parent of the works it changes up.
    ancestor = ev.target if records else target.parent
    while ancestor is not None:
        _open_version(store, ancestor, effective)
        if ancestor in day.repealed:
            raise NoOpenVersion(ancestor, effective)
        ancestor = store.works[ancestor].parent
    source_urn = ev.source_provision and f"{instrument.urn}{FRAGMENT_SEP}{ev.source_provision}"
    if source_urn and instrument.urn in store.versions and source_urn not in store.works:
        # A stub inside an enacted tree would be opened by its enactment's replay.
        raise MalformedInput(f"source provision {ev.source_provision!r} names no work of "
                             f"{instrument.urn!r}, which the corpus enacts", ev.path)

    day.changed.update(changed)
    day.events.append((ActionNode(
        id=action_id,
        action_type=ev.action_type,
        enactment_date=ev.enactment_date,
        effective_date=effective,
        source_provision=source_urn,
        targets=targets,
        effect=ev.effect,
        instrument=instrument.urn,
        inserts=bool(records),
    ), ev, instrument, records))


def apply_events(store: GraphStore, event_files: Iterable[tuple[str, EventFile]]) -> list[str]:
    """Apply every event of the ``(file name, parsed event file)`` pairs; return the action ids.

    A day at a time, its events are applied in action id order, as
    ``GraphStore.replay`` files them, so file names and the order of a day's
    records do not count. Each is checked (``apply_event``) before the day's
    first write, so a rejected day leaves the store as it was; then the new
    works are added, in id order, and the actions replayed in one call.
    """
    pending = sorted(((ev.effective_date, _action_id(file.instrument, ev), ev, file.instrument)
                      for _, file in event_files for ev in file.events), key=itemgetter(0, 1))
    for _, group in groupby(pending, key=itemgetter(0)):
        group = list(group)
        day = _Day(group)
        for _, action_id, ev, instrument in group:
            apply_event(store, ev, instrument, action_id, day)
        wordings: _Wordings = {}
        for action, ev, instrument, records in day.events:
            if instrument.urn not in store.works:  # a stub, for the instrument and its provision
                _add_norm(store, instrument)
            if action.source_provision and action.source_provision not in store.works:
                store.add_work(WorkNode(
                    action.source_provision, (), parent=instrument.urn,
                    ordinal=len(store.children.get(instrument.urn, ())),
                    metadata=metadata_tuple({"label": ev.source_label} if ev.source_label else {})))
            base_ordinal = len(store.children.get(ev.target, ()))
            for offset, record in enumerate(records):
                _build_subtree(store, record, ev.target, base_ordinal + offset,
                               store.primary_language(ev.target), wordings)
            if not records:
                synthetic = dict(ev.synthetic)
                wordings[ev.target] = [(language, text, synthetic.get(language, False))
                                       for language, text in ev.new_text]
        _record_actions(store, [action for action, *_ in day.events], wordings)
    return [action_id for _, action_id, *_ in pending]


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


def ingest_corpus(corpus_dir: str | Path) -> tuple[GraphStore, IngestSummary]:
    """Enact every document and apply every event file in deterministic order.

    Documents are enacted in file-name order; event records across all
    files are applied a day at a time in action id order (``apply_events``);
    themes and translations follow, then the store is committed.
    """
    corpus = Path(corpus_dir)
    # One listing, its names sorted as strings: a POSIX path of one directory sorts by its name.
    names = sorted(os.listdir(corpus))
    doc_paths = [corpus / name for name in names if name.endswith(DOC_SUFFIX)]
    event_paths = [corpus / name for name in names if name.endswith(EVENT_SUFFIX)]
    lang_paths = [corpus / name for name in names if name.endswith(LANG_SUFFIX)]
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

    event_files = [(path.name, parse_event_file(path.read_bytes(), path=str(path)))
                   for path in event_paths]
    theme_specs.extend(spec for _, event_file in event_files for spec in event_file.themes)
    summary.events = len(apply_events(store, event_files))

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
