"""Graph node types, identifiers, and the graph validator.

Every node is a :class:`Record`, a flat value object whose fields are its
snapshot columns: construction checks it and fixes its identity, and
assigning or deleting a field raises FrozenInstanceError. Each
``__init__`` checks its arguments, derives the derived fields from them
and sets every field once, through its slot; a work's label is kept in a
slot filled on its first read. A temporal version's
validity is half-open: ``valid_start`` inclusive, ``valid_end``
exclusive, so a version "valid until 2010-02-03" has ``valid_end``
2010-02-04.

Temporal versions are not stored: the actions are the only record of
them, and an action stores only its event. Replaying the actions a day at
a time in (effective date, id) order (``GraphStore.replay``) derives what
each closes and opens from its event and the work tree, so a replayed
chain tiles time by construction.

A text unit is its id, text and synthetic flag. Its aspect, owner and
language are not stored on it: the node that names it fixes them, as a
CLV's content unit, an action's or theme's description unit (each id
derived from the node's), or a work's metadata unit for one fact.

Nor does a node repeat what another fixes: a work is a norm exactly when
it has no parent, an action is labelled by its instrument work's titles
(``GraphStore.action_labels``), and a theme's id is ``theme_id_for(label)``.

:func:`validate_graph` checks each invariant by one rule: the ids nodes
hold, the work tree, and that every metadata fact has its unit and every
unit is one a node names; an action's shape is checked as it is built.
Which child versions a version aggregates is not stored either: the store
derives it from the work tree and the chains, one norm at a time
(``GraphStore.aggregation_of``).
"""

from __future__ import annotations

import operator
import re
from datetime import date
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import GraphStore

EMBEDDING_DIMENSION = 256

# Fragment separator between a norm urn and a component path.
FRAGMENT_SEP = "!"
# Separator between a work urn and a version date in derived CTV ids.
VERSION_SEP = "@"

_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII).fullmatch


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


# Work metadata keys that describe presentation, not facts worth textualizing.
# Every other key of a work's metadata has its metadata unit (metadata_unit_id).
PRESENTATION_KEYS = frozenset({"label", "title", "short_title", "language", "heading"})

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


def urn_fragment(urn: str) -> str | None:
    """The component fragment path of a work urn, or None for a norm-level urn."""
    return urn.rsplit(FRAGMENT_SEP, 1)[1] if FRAGMENT_SEP in urn else None


def urn_norm(urn: str) -> str:
    """The urn of the norm that owns a work urn (itself, for a norm-level urn)."""
    return urn.split(FRAGMENT_SEP, 1)[0]


def _setters(cls: type) -> tuple:
    """Each slot's setter, in field order: a node's ``__init__`` sets each field once by it."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    """A frozen value object whose fields are its slots.

    A subclass names its fields, in order, in ``__slots__`` (a slot whose
    name starts with ``_`` is a cache, not a field), kept in ``_fields``,
    and the ones its ``__init__`` derives in ``_derived``; its ``__init__``
    takes the others (``_args``), in field order, and sets every slot once,
    through ``_assign`` or the slot setters (``_setters``). ``==`` and
    ``hash`` compare the fields, ``repr`` shows them, and ``copy`` and
    ``pickle`` rebuild a record through its ``__init__``. Assigning or
    deleting any attribute raises FrozenInstanceError.
    """

    __slots__ = ()
    _derived: frozenset[str] = frozenset()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._args = tuple(name for name in cls._fields if name not in cls._derived)
        cls._values = operator.attrgetter(*cls._fields)
        cls._arg_values = operator.attrgetter(*cls._args)  # a tuple: each takes two or more
        cls._slot_setters = _setters(cls)

    def _assign(self, *values) -> None:
        for set_value, value in zip(self._slot_setters, values):
            set_value(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._arg_values(self)


def replace(record: Record, /, **changes) -> Record:
    """A new record of ``record``'s kind, its fields with ``changes``, built by its ``__init__``.

    So the new fields are checked and the derived ones re-derived; a
    derived field cannot be changed (ValueError).
    """
    cls = type(record)
    if not cls._derived.isdisjoint(changes):
        derived = min(cls._derived.intersection(changes))
        raise ValueError(f"{cls.__name__}.{derived} is derived; it cannot be replaced")
    values = dict(zip(cls._args, cls._arg_values(record)))
    values.update(changes)
    return cls(**values)


class WorkNode(Record):
    """Identity of a norm (a work with no parent) or of one of its components, named by its urn."""

    __slots__ = ("urn", "aliases", "component_type", "parent", "ordinal", "metadata", "_label")

    def __init__(self, urn: str, aliases: tuple[str, ...],
                 component_type: ComponentType = ComponentType.OTHER, parent: str | None = None,
                 ordinal: int = 0, metadata: tuple[tuple[str, str], ...] = ()) -> None:
        if not urn:
            raise ValueError("work urn must be non-empty")
        set_urn, set_aliases, set_type, set_parent, set_ordinal, set_metadata, set_label = _WORK
        set_urn(self, urn)
        set_aliases(self, aliases)
        set_type(self, component_type)
        set_parent(self, parent)
        set_ordinal(self, ordinal)
        set_metadata(self, metadata)
        set_label(self, None)

    @property
    def label(self) -> str:
        """Human-facing label; falls back to fragment or urn. Built on first read and kept."""
        label = self._label
        if label is None:  # the first read: build it and keep it in its slot
            label = self.meta("label") or self.fragment or self.urn
            _WORK[-1](self, label)
        return label

    @property
    def fragment(self) -> str | None:
        return urn_fragment(self.urn)

    @property
    def norm_urn(self) -> str:
        return urn_norm(self.urn)

    @property
    def facts(self) -> list[tuple[str, str]]:
        """Its metadata less the presentation keys; each fact names one metadata unit."""
        return [(k, v) for k, v in self.metadata if k not in PRESENTATION_KEYS]

    def meta(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.metadata:
            if k == key:
                return v
        return default


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


def ctv_id(work_urn: str, valid_start: date) -> str:
    return f"{work_urn}{VERSION_SEP}{valid_start.isoformat()}"


def clv_id(temporal_version: str, language: str) -> str:
    return f"{temporal_version}#{language}"


def metadata_unit_id(work_urn: str, key: str) -> str:
    return f"tu:{work_urn}:meta:{key}"


def theme_id_for(label: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", label.casefold()).strip("-")
    return f"theme:{slug or 'unnamed'}"


class TemporalVersion(Record):
    """Date-stamped, language-agnostic snapshot of one work (a CTV).

    It is valid from ``valid_start`` (inclusive) until ``valid_end``
    (exclusive; None while open). It aggregates, in child ordinal order, the
    version each child component has on ``valid_start``, so unchanged
    children keep their existing CTV ids across parent versions; the store
    derives that list (``GraphStore.aggregation_of``), the version holds none.

    ``id`` is derived, ``ctv_id(work, valid_start)``, and cannot be passed
    in. A version is never stored: ``GraphStore.replay`` builds it from the
    action that produces its work on ``valid_start`` and the one that
    terminates it on ``valid_end``, and files the producer in
    ``GraphStore.produced_by``; ``GraphStore.closed_by`` finds the version
    an action terminates.
    """

    __slots__ = ("id", "work", "valid_start", "valid_end")
    _derived = frozenset({"id"})

    def __init__(self, work: str, valid_start: date, valid_end: date | None = None) -> None:
        if valid_end is not None and not valid_start < valid_end:
            raise ValueError(f"valid_start {valid_start} must precede valid_end {valid_end}")
        set_id, set_work, set_start, set_end = _CTV
        set_id(self, ctv_id(work, valid_start))
        set_work(self, work)
        set_start(self, valid_start)
        set_end(self, valid_end)

    def contains(self, t: date) -> bool:
        """True iff ``valid_start <= t`` and t precedes the (possibly open) end."""
        return self.valid_start <= t and (self.valid_end is None or t < self.valid_end)


class LanguageVersion(Record):
    """Language-specific realization of a CTV; owns one content text unit.

    ``id`` (``clv_id(temporal_version, language)``) and ``text_unit``
    (``tu:`` plus the id) are derived and cannot be passed in.
    """

    __slots__ = ("id", "temporal_version", "language", "text_unit")
    _derived = frozenset({"id", "text_unit"})

    def __init__(self, temporal_version: str, language: str) -> None:
        lv_id = clv_id(temporal_version, language)
        set_id, set_version, set_language, set_unit = _CLV
        set_id(self, lv_id)
        set_version(self, temporal_version)
        set_language(self, language)
        set_unit(self, f"tu:{lv_id}")


class ActionNode(Record):
    """Reified legislative event; it stores the event, not the versions it changes.

    ``targets`` names the works the event acts on: the norm an enactment
    enacts, the work an amendment or repeal changes, or the roots, of one
    parent, of the subtrees an insertion (an amendment with ``inserts``)
    adds. ``GraphStore.replay`` derives from them and the work tree which
    versions it closes and opens. ``description_unit`` is derived,
    ``tu:<id>:desc``, and cannot be passed in. ``instrument`` names the
    work of the enacting or amending norm, whose titles label the action
    (``GraphStore.action_labels``). Construction refuses a shape no event
    has: an action enacted after it takes effect, an enactment citing a
    source provision or inserting, and one of other than one target unless
    it inserts.
    """

    __slots__ = ("id", "action_type", "enactment_date", "effective_date", "source_provision",
                 "description_unit", "targets", "effect", "instrument", "inserts")
    _derived = frozenset({"description_unit"})

    def __init__(self, id: str, action_type: ActionType, enactment_date: date,
                 effective_date: date, source_provision: str | None = None,
                 targets: tuple[str, ...] = (), effect: str | None = None,
                 instrument: str | None = None, inserts: bool = False) -> None:
        if enactment_date > effective_date:
            raise ValueError(f"enactment_date {enactment_date} is after effective_date "
                             f"{effective_date}")
        if action_type is ActionType.ENACTMENT and source_provision is not None:
            raise ValueError("an enactment cites no source provision")
        if inserts and action_type is not ActionType.AMENDMENT:
            raise ValueError(f"only an amendment inserts, not this {action_type.value}")
        if len(targets) != 1 and not (inserts and targets):
            raise ValueError(f"{len(targets)} targets: an action has one, an insertion "
                             "one or more")
        (set_id, set_type, set_enacted, set_effective, set_source, set_unit, set_targets,
         set_effect, set_instrument, set_inserts) = _ACTION
        set_id(self, id)
        set_type(self, action_type)
        set_enacted(self, enactment_date)
        set_effective(self, effective_date)
        set_source(self, source_provision)
        set_unit(self, f"tu:{id}:desc")
        set_targets(self, targets)
        set_effect(self, effect)
        set_instrument(self, instrument)
        set_inserts(self, inserts)


class TextUnit(Record):
    """Atomic retrievable text span.

    Its aspect, owner and language are the naming node's: a CLV names its
    content unit, an action or theme its description unit, and a work one
    metadata unit per fact (``metadata_unit_id``). Its embedding is not
    stored: a committed store derives it from ``text`` on the unit's first
    vector read (``retrieval.embeddings_of``), as ``{bucket: value}`` with
    buckets below EMBEDDING_DIMENSION, of unit L2 norm, except for text
    with no tokens, which has no entries. A blank (empty or whitespace-only)
    unit is not retrievable: the store's text index lists it, and vector
    retrieval skips it.
    """

    __slots__ = ("id", "text", "synthetic")

    def __init__(self, id: str, text: str, synthetic: bool = False) -> None:
        set_id, set_text, set_synthetic = _UNIT
        set_id(self, id)
        set_text(self, text)
        set_synthetic(self, synthetic)

    @property
    def retrievable(self) -> bool:
        return bool(self.text.strip())


_WORK, _CTV, _CLV, _ACTION, _UNIT = (
    cls._slot_setters for cls in (WorkNode, TemporalVersion, LanguageVersion, ActionNode, TextUnit))


class ThemeNode(Record):
    """Curated cross-document community of works.

    ``id`` (``theme_id_for(label)``) and ``description_unit`` (``tu:<id>:desc``)
    are derived and cannot be passed in.
    """

    __slots__ = ("id", "label", "description_unit", "members")
    _derived = frozenset({"id", "description_unit"})

    def __init__(self, label: str, members: tuple[str, ...] = ()) -> None:
        theme_id = theme_id_for(label)
        self._assign(theme_id, label, f"tu:{theme_id}:desc", members)


class Violation(Record):
    """One invariant breach found by :func:`validate_graph`."""

    __slots__ = ("code", "message", "nodes")

    def __init__(self, code: str, message: str, nodes: tuple[str, ...] = ()) -> None:
        self._assign(code, message, nodes)

    def __str__(self) -> str:
        return f"{self.code}: {self.message} [{', '.join(self.nodes)}]"


# Every id a node holds: (store map of the node, attribute, store map the id
# names, whether the attribute is a list of ids). None names no node; every
# other value, "" included, must.
_REFERENCES = (
    ("works", "parent", "works", False),
    ("actions", "source_provision", "works", False),
    ("actions", "targets", "works", True),
    ("actions", "description_unit", "units", False),
    ("actions", "instrument", "works", False),
    ("clvs", "temporal_version", "ctvs", False),
    ("clvs", "text_unit", "units", False),
    ("themes", "description_unit", "units", False),
    ("themes", "members", "works", True),
)


def _check_references(graph: "GraphStore", out: list[Violation]) -> None:
    for nodes, attr, names, many in _REFERENCES:
        named = getattr(graph, names)
        for referrer, node in getattr(graph, nodes).items():
            cited = getattr(node, attr)
            for ref in cited if many else (cited,):
                if ref not in named and ref is not None:
                    out.append(Violation("DanglingReference", f"{attr} names no node in {names}",
                                         (referrer, ref)))


def _check_work_tree(graph: "GraphStore", out: list[Violation]) -> None:
    works = graph.works
    for urn, work in works.items():
        if work.parent is None:
            if FRAGMENT_SEP in urn:
                out.append(Violation("UrnFormat", "a parentless work's urn holds '!'", (urn,)))
            continue
        parent = works.get(work.parent)
        if parent is None:
            continue
        if work.norm_urn not in works:
            out.append(Violation("UrnFormat", "component urn does not extend a known norm urn", (urn,)))
        # norm_urn is the urn's prefix before its first "!", so only the fragment can be missing.
        if not work.fragment:
            out.append(Violation("UrnFormat", "component urn lacks a !fragment suffix", (urn,)))
        if parent.norm_urn != work.norm_urn:
            out.append(Violation("UrnFormat", "parent belongs to a different norm", (urn, parent.urn)))
    for parent_urn, children in graph.children.items():
        ordinals = sorted(works[c].ordinal for c in children)
        if ordinals != list(range(len(children))):
            out.append(Violation("OrdinalGap", f"sibling ordinals {ordinals} are not contiguous from 0",
                                 (parent_urn,)))


def _check_units(graph: "GraphStore", out: list[Violation]) -> None:
    """Each metadata fact has its unit, and each unit is one a node names.

    A node names its units through the _REFERENCES rows into ``units``, each
    a single id, and a work names one metadata unit per fact of its
    metadata. A missing unit a reference names is a DanglingReference,
    already reported. A CLV's id is derived from (ctv, language), and the
    store rejects a repeated id, so no CTV has two versions in one language.
    """
    units = graph.units
    named = {getattr(node, attr) for nodes, attr, names, _ in _REFERENCES if names == "units"
             for node in getattr(graph, nodes).values()}
    for urn, work in graph.works.items():
        for key, _ in work.facts:
            unit_id = metadata_unit_id(urn, key)
            named.add(unit_id)
            if unit_id not in units:
                out.append(Violation("MissingMetadataUnit",
                                     f"metadata key {key!r} has no metadata unit", (urn, unit_id)))
    for unit_id in units:
        if unit_id not in named:
            out.append(Violation("UnnamedUnit", "unit is named by no node", (unit_id,)))


def _check_wording(graph: "GraphStore", out: list[Violation]) -> None:
    """Once a work's version has wording in its norm's primary language, which readers fall
    back to, every later version has it."""
    worded = graph.clvs_by_ctv
    for urn, chain in graph.versions.items():
        norm = urn_norm(urn)
        if len(chain) < 2 or norm not in graph.works:  # one version loses nothing
            continue
        primary = graph.primary_language(norm)
        had = False
        for cid in chain:
            has = primary in worded.get(cid, ())
            if had and not has:
                out.append(Violation("LostPrimaryWording", "version lacks the wording in its "
                                     f"norm's language {primary!r} an earlier one has", (cid,)))
                break
            had = has


def validate_graph(graph: "GraphStore") -> list[Violation]:
    """Check every model invariant; an empty result means a consistent graph.

    Violations are data, not exceptions: callers decide whether to abort.
    Every id a node holds (_REFERENCES) is checked first, so when any names
    no node the first violation is a DanglingReference; the later checks
    skip a missing node rather than report it again. Each later check walks
    the store's maps in their order, so the violations come in one order.
    """
    out: list[Violation] = []
    _check_references(graph, out)
    _check_work_tree(graph, out)
    _check_units(graph, out)
    _check_wording(graph, out)
    return out


def metadata_tuple(mapping: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """A metadata mapping of strings in the sorted tuple form nodes store."""
    return tuple(sorted(mapping.items()))
