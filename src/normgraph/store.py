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
import logging
import operator
import re
import threading
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

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
    Violation,
    WorkId,
    WorkKind,
    WorkNode,
    interval_contains,
    validate_graph,
)

logger = logging.getLogger(__name__)

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
    load_violations: list[Violation] = field(default_factory=list, compare=False)

    # -- mutation (ingestion only) -------------------------------------

    def _assert_mutable(self) -> None:
        if self.committed:
            raise RuntimeError("store is committed and read-only")

    def add_work(self, work: WorkNode) -> None:
        self._assert_mutable()
        if work.urn in self.works:
            raise ValueError(f"work {work.urn!r} already exists")
        self.works[work.urn] = work
        if work.parent is not None:
            siblings = self.children.setdefault(work.parent, [])
            siblings.append(work.urn)
            siblings.sort(key=lambda u: self.works[u].ordinal)
        for alias in work.id.aliases:
            self.alias_index.setdefault(alias, set()).add(work.urn)
        fragment = work.id.fragment
        if fragment:
            self.fragment_index.setdefault(fragment, set()).add(work.urn)

    def add_ctv(self, tv: TemporalVersion) -> None:
        self._assert_mutable()
        if tv.id in self.ctvs:
            raise ValueError(f"temporal version {tv.id!r} already exists")
        self.ctvs[tv.id] = tv
        # After any version with the same start, as a stable sort would put it.
        starts = self.version_starts.setdefault(tv.work, [])
        index = bisect_right(starts, tv.validity.valid_start)
        starts.insert(index, tv.validity.valid_start)
        self.versions.setdefault(tv.work, []).insert(index, tv.id)

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
        self.clvs_by_ctv.setdefault(lv.temporal_version, {})[lv.language] = lv.id

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

    def _index_action(self, action: ActionNode) -> None:
        touched = set(action.targets)
        for cid in action.terminates + action.produces:
            tv = self.ctvs.get(cid)
            if tv is not None:
                touched.add(tv.work)
        for urn in touched:
            acts = self.work_actions.setdefault(urn, [])
            if action.id not in acts:
                acts.append(action.id)
                acts.sort(key=lambda aid: (self.actions[aid].effective_date, aid))

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

    def _reindex(self) -> None:
        self.children = {}
        self.versions = {}
        self.work_actions = {}
        self.clvs_by_ctv = {}
        self.alias_index = {}
        self.fragment_index = {}
        for work in self.works.values():
            if work.parent is not None:
                self.children.setdefault(work.parent, []).append(work.urn)
            for alias in work.id.aliases:
                self.alias_index.setdefault(alias, set()).add(work.urn)
            if work.id.fragment:
                self.fragment_index.setdefault(work.id.fragment, set()).add(work.urn)
        for siblings in self.children.values():
            siblings.sort(key=lambda u: self.works[u].ordinal)
        for tv in self.ctvs.values():
            self.versions.setdefault(tv.work, []).append(tv.id)
        for chain in self.versions.values():
            chain.sort(key=lambda cid: self.ctvs[cid].validity.valid_start)
        self.version_starts = {
            urn: [self.ctvs[cid].validity.valid_start for cid in chain]
            for urn, chain in self.versions.items()
        }
        for lv in self.clvs.values():
            self.clvs_by_ctv.setdefault(lv.temporal_version, {})[lv.language] = lv.id
        for action in self.actions.values():
            self._index_action(action)
        # Only lexical, hybrid and span lookups read it; built on first use.
        self._text_index = None

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

def _dump_date(d: date | None) -> str | None:
    return d.isoformat() if d is not None else None


def _record_for_work(work: WorkNode) -> dict:
    return {
        "kind": "work",
        "id": work.urn,
        "aliases": list(work.id.aliases),
        "work_kind": work.kind.value,
        "component_type": work.component_type.value,
        "parent": work.parent,
        "ordinal": work.ordinal,
        "metadata": {k: v for k, v in work.metadata},
    }


def _record_for_ctv(tv: TemporalVersion) -> dict:
    return {
        "kind": "ctv",
        "id": tv.id,
        "work": tv.work,
        "valid_start": tv.validity.valid_start.isoformat(),
        "valid_end": _dump_date(tv.validity.valid_end),
        "aggregates": list(tv.aggregates),
        "produced_by": tv.produced_by,
        "terminated_by": tv.terminated_by,
    }


def _record_for_clv(lv: LanguageVersion) -> dict:
    return {
        "kind": "clv",
        "id": lv.id,
        "temporal_version": lv.temporal_version,
        "language": lv.language,
        "text_unit": lv.text_unit,
    }


def _record_for_action(action: ActionNode) -> dict:
    return {
        "kind": "action",
        "id": action.id,
        "action_type": action.action_type.value,
        "enactment_date": action.enactment_date.isoformat(),
        "effective_date": action.effective_date.isoformat(),
        "source_provision": action.source_provision,
        "terminates": list(action.terminates),
        "produces": list(action.produces),
        "description_unit": action.description_unit,
        "targets": list(action.targets),
        "effect": action.effect,
        "instrument": action.instrument,
        "instrument_title": action.instrument_title,
        "instrument_short": action.instrument_short,
    }


def _record_for_theme(theme: ThemeNode) -> dict:
    return {
        "kind": "theme",
        "id": theme.id,
        "label": theme.label,
        "description_unit": theme.description_unit,
        "members": list(theme.members),
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


def _record_for_unit(unit: TextUnit, embedding: np.ndarray) -> dict:
    return {
        "kind": "unit",
        "id": unit.id,
        "aspect": unit.aspect.value,
        "owner": unit.owner,
        "language": unit.language,
        "text": unit.text,
        "embedding": _sparse_embedding(embedding),
        "synthetic": unit.synthetic,
    }


def save(store: GraphStore, path: str | Path) -> None:
    """Write the store as sorted NDJSON; load(save(s)) == s node-for-node.

    Records are built and written one at a time, in (kind, id) order.
    Raises RuntimeError on an uncommitted store, which has no embeddings.
    """
    if not store.committed:
        raise RuntimeError("only a committed store can be saved")
    kinds = [
        (store.works, _record_for_work),
        (store.ctvs, _record_for_ctv),
        (store.clvs, _record_for_clv),
        (store.actions, _record_for_action),
        (store.themes, _record_for_theme),
        (store.units, lambda unit: _record_for_unit(unit, store.embedding(unit.id))),
    ]
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
        for nodes, record_for in kinds:
            for node_id in sorted(nodes):
                fh.write(encode(record_for(nodes[node_id])))
                fh.write("\n")


def _parse_date(value, *, path: str, line: int, optional: bool = False) -> date | None:
    if value is None and optional:
        return None
    try:
        return date.fromisoformat(value)
    except (TypeError, ValueError):
        raise MalformedSnapshot(f"bad date {value!r}", path=path, line=line) from None


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


def _load_work(rec: dict, path: str, line: int) -> WorkNode:
    return WorkNode(
        id=WorkId(rec["id"], tuple(rec.get("aliases", ()))),
        kind=WorkKind(rec["work_kind"]),
        component_type=ComponentType(rec["component_type"]),
        parent=rec.get("parent"),
        ordinal=int(rec.get("ordinal", 0)),
        metadata=tuple(sorted((k, v) for k, v in rec.get("metadata", {}).items())),
    )


def load(path: str | Path) -> GraphStore:
    """Read a snapshot, rebuild indexes, and report invariant violations.

    Raises MalformedSnapshot on parse failures: a first record that is not
    the meta header, a second header, a ``format_version`` other than
    FORMAT_VERSION, or a unit whose embedding breaks the sparse layout (see
    _parse_embedding). Raises DanglingReference when a record cites an id no
    record defines. A file with no records loads as an empty store. Softer
    invariant breaches are collected on ``store.load_violations`` and
    logged, not raised.
    """
    from .model import ValidityInterval  # local to keep import block tight

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
                elif kind == "work":
                    work = _load_work(rec, spath, lineno)
                    store.works[work.urn] = work
                elif kind == "ctv":
                    store.ctvs[rec["id"]] = TemporalVersion(
                        id=rec["id"],
                        work=rec["work"],
                        validity=ValidityInterval(
                            _parse_date(rec["valid_start"], path=spath, line=lineno),
                            _parse_date(rec.get("valid_end"), path=spath, line=lineno, optional=True),
                        ),
                        aggregates=tuple(rec.get("aggregates", ())),
                        produced_by=rec.get("produced_by", ""),
                        terminated_by=rec.get("terminated_by"),
                    )
                elif kind == "clv":
                    store.clvs[rec["id"]] = LanguageVersion(
                        id=rec["id"],
                        temporal_version=rec["temporal_version"],
                        language=rec["language"],
                        text_unit=rec["text_unit"],
                    )
                elif kind == "action":
                    store.actions[rec["id"]] = ActionNode(
                        id=rec["id"],
                        action_type=ActionType(rec["action_type"]),
                        enactment_date=_parse_date(rec["enactment_date"], path=spath, line=lineno),
                        effective_date=_parse_date(rec["effective_date"], path=spath, line=lineno),
                        source_provision=rec.get("source_provision"),
                        terminates=tuple(rec.get("terminates", ())),
                        produces=tuple(rec.get("produces", ())),
                        description_unit=rec.get("description_unit", ""),
                        targets=tuple(rec.get("targets", ())),
                        effect=rec.get("effect"),
                        instrument=rec.get("instrument"),
                        instrument_title=rec.get("instrument_title"),
                        instrument_short=rec.get("instrument_short"),
                    )
                elif kind == "theme":
                    store.themes[rec["id"]] = ThemeNode(
                        id=rec["id"],
                        label=rec["label"],
                        description_unit=rec["description_unit"],
                        members=tuple(rec.get("members", ())),
                    )
                elif kind == "unit":
                    uid, owner, language, text = (
                        rec["id"], rec["owner"], rec["language"], rec["text"])
                    if not {*map(type, (uid, owner, language, text))} <= {str}:
                        raise MalformedSnapshot(
                            "unit id, owner, language and text must be strings",
                            path=spath, line=lineno)
                    if uid in rows:
                        raise MalformedSnapshot(f"repeated unit {uid!r}", path=spath, line=lineno)
                    index, values = _parse_embedding(
                        rec["embedding"], store.embedding_dimension,
                        uid=uid, path=spath, line=lineno)
                    store.units[uid] = TextUnit(
                        id=uid,
                        aspect=Aspect(rec["aspect"]),
                        owner=owner,
                        language=language,
                        text=text,
                        synthetic=bool(rec.get("synthetic", False)),
                    )
                    row = rows[uid] = len(rows)
                    if row == len(matrix):
                        matrix.resize((max(64, 2 * row), store.embedding_dimension), refcheck=False)
                    matrix[row, index] = values
                else:
                    raise MalformedSnapshot(f"unknown record kind {kind!r}", path=spath, line=lineno)
            except MalformedSnapshot:
                raise
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise MalformedSnapshot(f"bad {kind!r} record: {exc}", path=spath, line=lineno) from None

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
    store.load_violations = validate_graph(store)
    for violation in store.load_violations:
        logger.warning("snapshot invariant violation: %s", violation)
    return store


def _check_references(store: GraphStore) -> None:
    for work in store.works.values():
        if work.parent is not None and work.parent not in store.works:
            raise DanglingReference(work.urn, work.parent)
    for tv in store.ctvs.values():
        if tv.work not in store.works:
            raise DanglingReference(tv.id, tv.work)
        for cid in tv.aggregates:
            if cid not in store.ctvs:
                raise DanglingReference(tv.id, cid)
        if tv.produced_by and tv.produced_by not in store.actions:
            raise DanglingReference(tv.id, tv.produced_by)
        if tv.terminated_by and tv.terminated_by not in store.actions:
            raise DanglingReference(tv.id, tv.terminated_by)
    for lv in store.clvs.values():
        if lv.temporal_version not in store.ctvs:
            raise DanglingReference(lv.id, lv.temporal_version)
        if lv.text_unit not in store.units:
            raise DanglingReference(lv.id, lv.text_unit)
    for action in store.actions.values():
        for cid in action.terminates + action.produces:
            if cid not in store.ctvs:
                raise DanglingReference(action.id, cid)
        if action.description_unit and action.description_unit not in store.units:
            raise DanglingReference(action.id, action.description_unit)
        if action.source_provision and action.source_provision not in store.works:
            raise DanglingReference(action.id, action.source_provision)
        for target in action.targets:
            if target not in store.works:
                raise DanglingReference(action.id, target)
    for theme in store.themes.values():
        for member in theme.members:
            if member not in store.works:
                raise DanglingReference(theme.id, member)
        if theme.description_unit not in store.units:
            raise DanglingReference(theme.id, theme.description_unit)
