"""Indexed in-memory graph container with a diffable on-disk format.

Snapshots are newline-delimited JSON: one meta header (format version,
embedding config, frozen IDF statistics) followed by one record per node,
sorted by kind and id so that re-saving an unchanged store is
byte-identical. Indexes are never persisted; they are rebuilt on load,
except the inverted term index, which is built on its first read.
Embeddings and IDF statistics *are* persisted so retrieval scores stay
reproducible across processes: each unit record carries its embedding's
non-zero entries as one flat ``[i0, v0, i1, v1, …]`` list. In memory,
embeddings are one float64 matrix with a row per text unit, in sorted
unit-id order.
"""

from __future__ import annotations

import json
import operator
import re
import threading
from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from itertools import chain, filterfalse
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DanglingReference, MalformedSnapshot, UnknownWork
from .model import (
    ActionNode,
    ActionType,
    Aspect,
    ComponentType,
    EMBEDDING_DIMENSION,
    LanguageVersion,
    TemporalVersion,
    TextUnit,
    ThemeNode,
    ValidityInterval,
    WorkId,
    WorkKind,
    WorkNode,
    interval_contains,
    parse_iso_date,
    validate_graph,
)

FORMAT_VERSION = 2

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Serializes first builds of a loaded store's term index across threads.
_TEXT_INDEX_LOCK = threading.Lock()


def tokenize(text: str) -> list[str]:
    """Unicode-aware lowercase word segmentation; no stemming."""
    return _TOKEN_RE.findall(text.casefold())


@dataclass
class GraphStore:
    """All graph nodes plus the index structures every query path uses.

    Mutations are only legal before :meth:`commit`; afterwards the store
    is treated as immutable and may be shared across threads.
    """

    works: dict[str, WorkNode] = field(default_factory=dict)
    ctvs: dict[str, TemporalVersion] = field(default_factory=dict)
    clvs: dict[str, LanguageVersion] = field(default_factory=dict)
    actions: dict[str, ActionNode] = field(default_factory=dict)
    themes: dict[str, ThemeNode] = field(default_factory=dict)
    units: dict[str, TextUnit] = field(default_factory=dict)

    embedding_dimension: int = EMBEDDING_DIMENSION
    # IDF statistics frozen at commit time (document frequency per token,
    # retrievable unit count, average unit length in tokens).
    df: dict[str, int] = field(default_factory=dict)
    n_units: int = 0
    avgdl: float = 0.0

    committed: bool = False

    # One read-only row per text unit, rows in sorted unit-id order; written
    # at commit and load, empty before. Read a row through embedding().
    embeddings: np.ndarray = field(
        default_factory=lambda: np.empty((0, EMBEDDING_DIMENSION)), compare=False, repr=False)
    unit_rows: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    # Derived indexes; rebuilt by _reindex, never persisted.
    children: dict[str, list[str]] = field(default_factory=dict, compare=False)
    versions: dict[str, list[str]] = field(default_factory=dict, compare=False)
    # valid_start of each entry of versions[urn], so version lookup bisects dates.
    version_starts: dict[str, list[date]] = field(default_factory=dict, compare=False)
    work_actions: dict[str, list[str]] = field(default_factory=dict, compare=False)
    # (term_index, unit_len), read through the properties of those names.
    # Empty before commit, built at commit; None after load until first read.
    _text_index: tuple[dict[str, dict[str, int]], dict[str, int]] | None = field(
        default_factory=lambda: ({}, {}), compare=False, repr=False)
    clvs_by_ctv: dict[str, dict[str, str]] = field(default_factory=dict, compare=False)
    alias_index: dict[str, set[str]] = field(default_factory=dict, compare=False)
    fragment_index: dict[str, set[str]] = field(default_factory=dict, compare=False)
    # Works are never replaced once added, so a urn's primary language is fixed.
    _primary_languages: dict[str, str] = field(default_factory=dict, compare=False, repr=False)

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

    def add_ctv(self, tv: TemporalVersion) -> None:
        self._assert_mutable()
        if tv.id in self.ctvs:
            raise ValueError(f"temporal version {tv.id!r} already exists")
        self.ctvs[tv.id] = tv
        self._index_ctv(tv)

    def close_ctv(self, ctv: str, end: date, action: str) -> TemporalVersion:
        """Set the single permitted mutation: an open version's end date."""
        self._assert_mutable()
        old = self.ctvs[ctv]
        if not old.validity.is_open:
            raise ValueError(f"{ctv!r} is already closed")
        updated = replace(
            old,
            validity=replace(old.validity, valid_end=end),
            terminated_by=action,
        )
        self.ctvs[ctv] = updated
        return updated

    def add_clv(self, lv: LanguageVersion) -> None:
        self._assert_mutable()
        if lv.id in self.clvs:
            raise ValueError(f"language version {lv.id!r} already exists")
        self.clvs[lv.id] = lv
        self._index_clv(lv)

    def add_action(self, action: ActionNode) -> None:
        self._assert_mutable()
        if action.id in self.actions:
            raise ValueError(f"action {action.id!r} already exists")
        self.actions[action.id] = action
        self._index_action(action)

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
        for alias in work.id.aliases:
            self.alias_index.setdefault(alias, set()).add(work.urn)
        fragment = work.id.fragment
        if fragment:
            self.fragment_index.setdefault(fragment, set()).add(work.urn)

    def _index_ctv(self, tv: TemporalVersion) -> None:
        # After any version with the same start, as a stable sort would put it.
        starts = self.version_starts.setdefault(tv.work, [])
        index = bisect_right(starts, tv.validity.valid_start)
        starts.insert(index, tv.validity.valid_start)
        self.versions.setdefault(tv.work, []).insert(index, tv.id)

    def _index_clv(self, lv: LanguageVersion) -> None:
        self.clvs_by_ctv.setdefault(lv.temporal_version, {})[lv.language] = lv.id

    def _index_action(self, action: ActionNode) -> None:
        touched = set(action.targets)
        for cid in action.terminates + action.produces:
            tv = self.ctvs.get(cid)
            if tv is not None:
                touched.add(tv.work)
        for urn in touched:
            insort(self.work_actions.setdefault(urn, []), action.id,
                   key=lambda aid: (self.actions[aid].effective_date, aid))

    def _reindex(self) -> None:
        for index in (self.children, self.versions, self.version_starts, self.work_actions,
                      self.clvs_by_ctv, self.alias_index, self.fragment_index):
            index.clear()
        for work in self.works.values():
            self._index_work(work)
        for tv in self.ctvs.values():
            self._index_ctv(tv)
        for lv in self.clvs.values():
            self._index_clv(lv)
        for action in self.actions.values():
            self._index_action(action)
        # Only lexical, hybrid and span lookups read it; built on first use.
        self._text_index = None

    # -- commit ---------------------------------------------------------

    def commit(self, embedder=None) -> None:
        """Freeze IDF statistics, embed every text unit, and seal the store.

        Raises ValueError, leaving the store mutable, if the embedder returns
        a vector that is not ``(embedding_dimension,)``.
        """
        self._assert_mutable()
        self._rebuild_text_index()
        self.df = {
            token: len(postings) for token, postings in sorted(self.term_index.items())
        }
        retrievable = [u for u in self.units.values() if u.retrievable]
        self.n_units = len(retrievable)
        total = sum(self.unit_len[u.id] for u in retrievable)
        self.avgdl = total / self.n_units if self.n_units else 0.0
        if embedder is None:
            from .retrieval import HashedTfidfEmbedder

            embedder = HashedTfidfEmbedder(self.embedding_dimension, self.df, self.n_units)
        unit_ids = sorted(self.units)
        shape = (self.embedding_dimension,)
        matrix = np.empty((len(unit_ids), self.embedding_dimension))
        for row, uid in enumerate(unit_ids):
            vec = embedder.embed(self.units[uid].text)
            if np.shape(vec) != shape:
                raise ValueError(
                    f"embedder returned shape {np.shape(vec)} for {uid!r}, expected {shape}")
            matrix[row] = vec
        self._set_embeddings(matrix, {uid: row for row, uid in enumerate(unit_ids)})
        self.committed = True

    def _set_embeddings(self, matrix: np.ndarray, unit_rows: dict[str, int]) -> None:
        matrix.flags.writeable = False
        self.embeddings = matrix
        self.unit_rows = unit_rows

    # Properties, not __getattr__: a class with __getattr__ makes every
    # attribute read on the store slower, not only these two.
    @property
    def term_index(self) -> dict[str, dict[str, int]]:
        """Token -> {unit id: term frequency} over every text unit."""
        return self._built_text_index()[0]

    @property
    def unit_len(self) -> dict[str, int]:
        """Unit id -> length in tokens."""
        return self._built_text_index()[1]

    def _built_text_index(self) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
        index = self._text_index
        if index is None:
            with _TEXT_INDEX_LOCK:
                if self._text_index is None:
                    self._rebuild_text_index()
                index = self._text_index
        return index

    def _rebuild_text_index(self) -> None:
        """Tokenize every unit; publish term_index and unit_len in one assignment."""
        term_index: dict[str, dict[str, int]] = {}
        unit_len: dict[str, int] = {}
        for uid in sorted(self.units):
            tokens = tokenize(self.units[uid].text)
            unit_len[uid] = len(tokens)
            for token in tokens:
                postings = term_index.setdefault(token, {})
                postings[uid] = postings.get(uid, 0) + 1
        self._text_index = (term_index, unit_len)

    # -- read API ---------------------------------------------------------

    def work(self, urn: str) -> WorkNode:
        try:
            return self.works[urn]
        except KeyError:
            raise UnknownWork(urn) from None

    def versions_of(self, urn: str) -> list[TemporalVersion]:
        """All temporal versions of a work, ascending by valid_start."""
        if urn not in self.works:
            raise UnknownWork(urn)
        return [self.ctvs[cid] for cid in self.versions.get(urn, ())]

    def version_at(self, urn: str, t: date) -> TemporalVersion | None:
        """The version of ``urn`` valid on ``t``, or None before, between or after.

        Chains are sorted by valid_start and tile time, so the only candidate
        is the last version starting on or before ``t``.
        """
        index = bisect_right(self.version_starts.get(urn, ()), t)
        if index == 0:
            return None
        tv = self.ctvs[self.versions[urn][index - 1]]
        return tv if interval_contains(tv.validity, t) else None

    def embedding(self, uid: str) -> np.ndarray:
        """The committed embedding of text unit ``uid``: a read-only matrix row."""
        return self.embeddings[self.unit_rows[uid]]

    def content_clv(self, ctv: str, language: str) -> LanguageVersion | None:
        lv_id = self.clvs_by_ctv.get(ctv, {}).get(language)
        return self.clvs[lv_id] if lv_id else None

    def clv_for(self, ctv: str, work: str, language: str | None, fallback: bool) -> str | None:
        """The CLV a reader of ``ctv`` (a version of ``work``) gets, or None.

        The language rule: ``language`` (the norm's primary language when
        None or empty), else the primary language when ``fallback`` is on.
        """
        languages = self.clvs_by_ctv.get(ctv)
        if not languages:
            return None
        if language:
            lv_id = languages.get(language)
            if lv_id is not None or not fallback:
                return lv_id
        return languages.get(self.primary_language(work))

    def norm_of(self, urn: str) -> WorkNode:
        return self.work(self.work(urn).id.norm_urn)

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
# Every node kind's persisted form is one entry of _KINDS, which save, load
# and _check_references all walk. Every key is required and every value has
# an exact JSON type (bool is no integer). The meta header and the unit
# embeddings are written and read outside the table.


class _Type(NamedTuple):
    """A record value's exact JSON types, and its conversions to and from a node."""

    name: str
    json: frozenset[type]
    decode: Callable | None = None  # JSON value -> attribute; None keeps it
    encode: Callable | None = None  # attribute -> JSON value; None keeps it


# join raises TypeError on any item that is not a string.
def _strs(value: list) -> tuple[str, ...]:
    "".join(value)
    return tuple(value)


def _str_map(value: dict) -> tuple[tuple[str, str], ...]:
    "".join(value.values())
    return tuple(sorted(value.items()))


def _or_null(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _enum(cls: type[Enum]) -> _Type:
    return _Type(f"a {cls.__name__} value", frozenset({str}),
                 {member.value: member for member in cls}.__getitem__,
                 operator.attrgetter("value"))


_STR = _Type("a string", frozenset({str}))
_OPTIONAL_STR = _Type("a string or null", frozenset({str, type(None)}))
_INT = _Type("an integer", frozenset({int}))
_BOOL = _Type("a boolean", frozenset({bool}))
_DATE = _Type("an ISO date", frozenset({str}), parse_iso_date, date.isoformat)
_OPTIONAL_DATE = _Type("an ISO date or null", frozenset({str, type(None)}),
                       _or_null(parse_iso_date), _or_null(date.isoformat))
# Tuples are written as JSON arrays, so a list of strings needs no encoder.
_STRS = _Type("a list of strings", frozenset({list}), _strs)
_STR_MAP = _Type("an object of strings", frozenset({dict}), _str_map, dict)


class _Column(NamedTuple):
    key: str
    type: _Type
    # The store map whose ids the value names; a trailing "?" lets "" and
    # null name no node.
    ref: str | None = None
    # Node attribute path, when it is not the key.
    attr: str | None = None


class _Kind:
    """One record kind: its store map, node constructor and columns.

    The constructor takes the decoded column values in column order. The
    getters and converters that save, load and the reference check use are
    derived here once, not per record.
    """

    def __init__(self, nodes: str, build: Callable, *columns: _Column) -> None:
        self.nodes = nodes
        self.build = build
        self.columns = columns
        self.attrs = [column.attr or column.key for column in columns]
        self.keys = [column.key for column in columns]
        self.get = operator.itemgetter(*self.keys)
        self.get_attrs = operator.attrgetter(*self.attrs)
        self.json = [column.type.json for column in columns]
        self.decoders = [(i, column.type.decode)
                         for i, column in enumerate(columns) if column.type.decode]
        self.encoders = [(column.key, column.type.encode)
                         for column in columns if column.type.encode]

    def why_bad(self, rec: dict, exc: Exception) -> str:
        """Name the first missing key or wrong value of a record load rejected."""
        for column in self.columns:
            if column.key not in rec:
                return f"missing key {column.key!r}"
            value = rec[column.key]
            try:
                if type(value) not in column.type.json:
                    raise TypeError
                if column.type.decode:
                    column.type.decode(value)
            except (KeyError, TypeError, ValueError):
                return f"{column.key!r} must be {column.type.name}"
        return str(exc)


def _work(urn, aliases, *rest) -> WorkNode:
    return WorkNode(WorkId(urn, aliases), *rest)


def _ctv(id, work, valid_start, valid_end, *rest) -> TemporalVersion:
    return TemporalVersion(id, work, ValidityInterval(valid_start, valid_end), *rest)


# In save order; a kind's columns are in its constructor's argument order.
_KINDS = {
    "work": _Kind(
        "works", _work,
        _Column("id", _STR, attr="id.urn"),
        _Column("aliases", _STRS, attr="id.aliases"),
        _Column("work_kind", _enum(WorkKind), attr="kind"),
        _Column("component_type", _enum(ComponentType)),
        _Column("parent", _OPTIONAL_STR, "works?"),
        _Column("ordinal", _INT),
        _Column("metadata", _STR_MAP),
    ),
    "ctv": _Kind(
        "ctvs", _ctv,
        _Column("id", _STR),
        _Column("work", _STR, "works"),
        _Column("valid_start", _DATE, attr="validity.valid_start"),
        _Column("valid_end", _OPTIONAL_DATE, attr="validity.valid_end"),
        _Column("aggregates", _STRS, "ctvs"),
        _Column("produced_by", _STR, "actions?"),
        _Column("terminated_by", _OPTIONAL_STR, "actions?"),
    ),
    "clv": _Kind(
        "clvs", LanguageVersion,
        _Column("id", _STR),
        _Column("temporal_version", _STR, "ctvs"),
        _Column("language", _STR),
        _Column("text_unit", _STR, "units"),
    ),
    "action": _Kind(
        "actions", ActionNode,
        _Column("id", _STR),
        _Column("action_type", _enum(ActionType)),
        _Column("enactment_date", _DATE),
        _Column("effective_date", _DATE),
        _Column("source_provision", _OPTIONAL_STR, "works?"),
        _Column("terminates", _STRS, "ctvs"),
        _Column("produces", _STRS, "ctvs"),
        _Column("description_unit", _STR, "units?"),
        _Column("targets", _STRS, "works"),
        _Column("effect", _OPTIONAL_STR),
        _Column("instrument", _OPTIONAL_STR),
        _Column("instrument_title", _OPTIONAL_STR),
        _Column("instrument_short", _OPTIONAL_STR),
    ),
    "theme": _Kind(
        "themes", ThemeNode,
        _Column("id", _STR),
        _Column("label", _STR),
        _Column("description_unit", _STR, "units"),
        _Column("members", _STRS, "works"),
    ),
    # Each unit record also carries its "embedding" (see _sparse_embedding).
    "unit": _Kind(
        "units", TextUnit,
        _Column("id", _STR),
        _Column("aspect", _enum(Aspect)),
        _Column("owner", _STR),
        _Column("language", _STR),
        _Column("text", _STR),
        _Column("synthetic", _BOOL),
    ),
}


def _sparse_embedding(row: np.ndarray) -> list:
    """A row's entries whose bits are not +0.0, as ``[i0, v0, i1, v1, …]``.

    -0.0 and NaN are kept, so load scatters back the same bits.
    """
    index = np.flatnonzero(row.view(np.uint64))
    pairs: list = [None] * (2 * len(index))
    pairs[0::2] = index.tolist()
    pairs[1::2] = row[index].tolist()
    return pairs


def save(store: GraphStore, path: str | Path) -> None:
    """Write the store as sorted NDJSON; load(save(s)) == s node-for-node.

    Records are built and written one at a time, in (kind, id) order.
    Raises RuntimeError on an uncommitted store, which has no embeddings.
    """
    if not store.committed:
        raise RuntimeError("only a committed store can be saved")
    meta = {
        "kind": "meta",
        "format_version": FORMAT_VERSION,
        "embedding": {"name": "hashed_tfidf", "dimension": store.embedding_dimension},
        "idf": {
            "n_units": store.n_units,
            "avgdl": store.avgdl,
            "df": {k: store.df[k] for k in sorted(store.df)},
        },
    }
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(meta))
        fh.write("\n")
        for kind, spec in _KINDS.items():
            nodes = getattr(store, spec.nodes)
            for node_id in sorted(nodes):
                rec = dict(zip(spec.keys, spec.get_attrs(nodes[node_id])))
                for key, to_json in spec.encoders:
                    rec[key] = to_json(rec[key])
                rec["kind"] = kind
                if kind == "unit":
                    rec["embedding"] = _sparse_embedding(store.embedding(node_id))
                fh.write(encode(rec))
                fh.write("\n")


def _parse_embedding(value, dimension: int, *, uid: str, path: str,
                     line: int) -> tuple[list[int], list]:
    """Split a sparse ``[i0, v0, i1, v1, …]`` record into indices and values.

    Indices must be ints, strictly increasing, in ``[0, dimension)``;
    values must be numbers.
    """
    def bad(reason: str) -> MalformedSnapshot:
        return MalformedSnapshot(f"embedding of {uid!r} {reason}", path=path, line=line)

    if not isinstance(value, list) or len(value) % 2:
        raise bad("is not a flat list of index, value pairs")
    index, values = value[0::2], value[1::2]
    # Exact types: bool is an int subclass but no index or value.
    if not {*map(type, index)} <= {int}:
        raise bad("has an index that is not an integer")
    if index and not (0 <= index[0] and index[-1] < dimension
                      and all(map(operator.lt, index, index[1:]))):
        raise bad(f"has indices that are not strictly increasing in [0, {dimension})")
    if not {*map(type, values)} <= {int, float}:
        raise bad("has a value that is not a number")
    return index, values


def load(path: str | Path) -> GraphStore:
    """Read a snapshot, rebuild its indexes, and check every model invariant.

    Raises MalformedSnapshot on parse failures: a first record that is not
    the meta header, a second header, a ``format_version`` other than
    FORMAT_VERSION, a record of an unknown kind, a missing key or a value
    of the wrong type (see _KINDS), a repeated id, or a unit whose embedding
    breaks the sparse layout (see _parse_embedding). Raises
    DanglingReference when a record cites an id no record defines, and
    MalformedSnapshot, naming the first and giving the count, when
    validate_graph reports any violation. A file with no records loads as an
    empty store.
    """
    store = GraphStore()
    spath = str(path)
    # Embedding rows in file order; the buffer grows in place as units
    # arrive, and resize fills new rows with +0.0.
    rows: dict[str, int] = {}
    matrix = np.empty((0, store.embedding_dimension))
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise MalformedSnapshot(f"invalid JSON ({exc.msg})", path=spath, line=lineno) from None
            if not isinstance(rec, dict):
                raise MalformedSnapshot("record is not a JSON object", path=spath, line=lineno)
            kind = rec.get("kind")
            spec = _KINDS.get(kind) if type(kind) is str else None
            if kind == "meta":
                if header_seen:
                    raise MalformedSnapshot("second meta header", path=spath, line=lineno)
                header_seen = True
            elif not header_seen:
                raise MalformedSnapshot(
                    f"missing meta header: the first record is a {kind!r} record",
                    path=spath, line=lineno)
            try:
                if kind == "meta":
                    version = rec.get("format_version")
                    if version != FORMAT_VERSION:
                        raise MalformedSnapshot(
                            f"unsupported format_version {version!r} (this version reads "
                            f"{FORMAT_VERSION}); re-run `normgraph ingest` to rewrite the snapshot",
                            path=spath, line=lineno,
                        )
                    store.embedding_dimension = int(rec["embedding"]["dimension"])
                    matrix = np.empty((0, store.embedding_dimension))
                    idf = rec.get("idf", {})
                    store.df = {str(k): int(v) for k, v in idf.get("df", {}).items()}
                    store.n_units = int(idf.get("n_units", 0))
                    store.avgdl = float(idf.get("avgdl", 0.0))
                    continue
                if spec is None:
                    raise MalformedSnapshot(f"unknown record kind {kind!r}", path=spath, line=lineno)
                values = spec.get(rec)
                if not all(map(operator.contains, spec.json, map(type, values))):
                    raise TypeError("a value of the wrong type")
                values = list(values)
                for i, decode in spec.decoders:
                    values[i] = decode(values[i])
                node_id = values[0]
                nodes = getattr(store, spec.nodes)
                if node_id in nodes:
                    raise MalformedSnapshot(f"repeated {kind} {node_id!r}", path=spath, line=lineno)
                nodes[node_id] = spec.build(*values)
                if kind == "unit":
                    index, values = _parse_embedding(
                        rec["embedding"], store.embedding_dimension,
                        uid=node_id, path=spath, line=lineno)
                    row = rows[node_id] = len(rows)
                    if row == len(matrix):
                        matrix.resize((max(64, 2 * row), store.embedding_dimension), refcheck=False)
                    matrix[row, index] = values
            except MalformedSnapshot:
                raise
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                why = spec.why_bad(rec, exc) if spec else exc
                raise MalformedSnapshot(f"bad {kind!r} record: {why}", path=spath, line=lineno) from None

    matrix.resize((len(rows), store.embedding_dimension), refcheck=False)
    unit_ids = list(rows)
    if any(a > b for a, b in zip(unit_ids, unit_ids[1:])):
        unit_ids.sort()
        matrix = matrix[[rows[uid] for uid in unit_ids]]
        rows = {uid: row for row, uid in enumerate(unit_ids)}
    store._set_embeddings(matrix, rows)
    _check_references(store)
    store._reindex()
    store.committed = True
    violations = validate_graph(store)
    if violations:
        raise MalformedSnapshot(
            f"{len(violations)} invariant violation(s); the first is {violations[0]}", path=spath)
    return store


def _check_references(store: GraphStore) -> None:
    """Raise DanglingReference for the first id a node cites that names no node."""
    for spec in _KINDS.values():
        nodes = getattr(store, spec.nodes).values()
        for column, attr in zip(spec.columns, spec.attrs):
            if column.ref is None:
                continue
            get = operator.attrgetter(attr)
            many = column.type is _STRS
            cited = chain.from_iterable(map(get, nodes)) if many else map(get, nodes)
            if column.ref.endswith("?"):
                cited = filter(None, cited)
            target = getattr(store, column.ref.rstrip("?"))
            missing = next(filterfalse(target.__contains__, cited), None)
            if missing is not None:
                referrer = next(node for node in nodes
                                if missing in (get(node) if many else (get(node),)))
                raise DanglingReference(operator.attrgetter(spec.attrs[0])(referrer), missing)
