"""Multi-aspect, scope-filtered text-unit retrieval.

The default embedder is a deterministic hashed TF-IDF: tokens are hashed
into a fixed number of buckets with a keyed hash, weighted by the corpus
IDF statistics frozen at ingest commit, and L2-normalized. It exists so
retrieval is reproducible without a learned model; any embedder matching
the :class:`Embedder` protocol can replace it without touching callers.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Iterable, Protocol

import numpy as np

from .errors import EmptyScope
from .model import Aspect, EMBEDDING_DIMENSION, interval_contains
from .store import GraphStore, tokenize

_HASH_KEY = b"normgraph.embed.v1"

# BM25 shape parameters for the lexical route.
_BM25_K1 = 1.5
_BM25_B = 0.75


class Embedder(Protocol):
    """Plug point for vector models: fixed dimension, deterministic embed."""

    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


def _bucket(token: str, dimension: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=_HASH_KEY).digest()
    return int.from_bytes(digest, "big") % dimension


class HashedTfidfEmbedder:
    """Hashed bag-of-words with smoothed IDF weights and unit L2 norm."""

    def __init__(self, dimension: int = EMBEDDING_DIMENSION,
                 df: dict[str, int] | None = None, n_units: int = 0):
        self.dimension = dimension
        self.df = df or {}
        self.n_units = n_units

    def idf(self, token: str) -> float:
        return math.log((self.n_units + 1) / (self.df.get(token, 0) + 1)) + 1.0

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for token, count in Counter(tokenize(text)).items():
            vec[_bucket(token, self.dimension)] += count * self.idf(token)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


def embedder_for_store(store: GraphStore) -> HashedTfidfEmbedder:
    """Embedder using the IDF statistics frozen in the store's snapshot."""
    return HashedTfidfEmbedder(store.embedding_dimension, store.df, store.n_units)


def default_embed(text: str, dimension: int = EMBEDDING_DIMENSION) -> np.ndarray:
    """Corpus-free hashed TF embedding (IDF degenerates to a constant)."""
    return HashedTfidfEmbedder(dimension).embed(text)


def cosine(a: np.ndarray | Iterable[float], b: np.ndarray | Iterable[float]) -> float:
    """Dot product of two unit vectors; the per-pair reference for scoped_search."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.size == 0 or vb.size == 0:
        return 0.0
    return float(np.dot(va, vb))


class RetrievalMode(str, Enum):
    VECTOR = "vector"
    LEXICAL = "lexical"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class RetrievalRequest:
    query_text: str
    scope: frozenset[str]
    t: date
    aspects: frozenset[Aspect] = frozenset({Aspect.CONTENT})
    language: str | None = None
    k: int = 8
    mode: RetrievalMode = RetrievalMode.VECTOR
    language_fallback: bool = True
    # Action descriptions dated after t are anachronistic for the query
    # instant; include them only on request.
    include_future_actions: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class RetrievalHit:
    """One ranked text unit with resolvable provenance.

    ``provenance`` is (work urn, temporal version id, owning node id);
    the owning node is a language version, action, or theme depending on
    the unit's aspect. The version id is empty for aspect owners that are
    not version-bound (work-level metadata, themes).
    """

    text_unit: str
    score: float
    provenance: tuple[str, str, str]
    aspect: Aspect


@dataclass(frozen=True)
class _Candidate:
    unit_id: str
    provenance: tuple[str, str, str]
    aspect: Aspect


def _content_candidates(store: GraphStore, req: RetrievalRequest,
                        requested: str | None) -> list[_Candidate]:
    out: list[_Candidate] = []
    for urn in sorted(req.scope):
        tv = store.version_at(urn, req.t)
        if tv is None:
            continue
        lv_id = store.clv_for(tv.id, urn, requested, req.language_fallback)
        if lv_id is None:
            # No wording in an acceptable language; the work simply
            # contributes no candidate (scoped_search never errors on
            # language gaps, unlike snapshot reconstruction).
            continue
        out.append(_Candidate(store.clvs[lv_id].text_unit, (urn, tv.id, lv_id), Aspect.CONTENT))
    return out


def _action_candidates(store: GraphStore, req: RetrievalRequest) -> list[_Candidate]:
    action_ids: set[str] = set()
    for urn in req.scope:
        action_ids.update(store.work_actions.get(urn, ()))
    out: list[_Candidate] = []
    for aid in sorted(action_ids):
        action = store.actions[aid]
        if not req.include_future_actions and action.effective_date > req.t:
            continue
        if not action.description_unit:
            continue
        target = action.targets[0] if action.targets else ""
        anchor_ctv = next(
            (cid for cid in action.produces + action.terminates
             if cid in store.ctvs and store.ctvs[cid].work == target),
            "",
        )
        out.append(_Candidate(action.description_unit, (target, anchor_ctv, aid),
                              Aspect.ACTION_DESCRIPTION))
    return out


def _metadata_candidates(store: GraphStore, req: RetrievalRequest) -> list[_Candidate]:
    out: list[_Candidate] = []
    for uid in sorted(store.units):
        unit = store.units[uid]
        if unit.aspect is not Aspect.METADATA:
            continue
        if unit.owner in req.scope:
            out.append(_Candidate(uid, (unit.owner, "", unit.owner), Aspect.METADATA))
        elif unit.owner in store.ctvs:
            tv = store.ctvs[unit.owner]
            if tv.work in req.scope and interval_contains(tv.validity, req.t):
                out.append(_Candidate(uid, (tv.work, tv.id, unit.owner), Aspect.METADATA))
    return out


def _theme_candidates(store: GraphStore, req: RetrievalRequest) -> list[_Candidate]:
    out: list[_Candidate] = []
    for tid in sorted(store.themes):
        theme = store.themes[tid]
        overlap = sorted(set(theme.members) & req.scope)
        if not overlap:
            continue
        out.append(_Candidate(theme.description_unit, (overlap[0], "", tid),
                              Aspect.THEME_DESCRIPTION))
    return out


def _bm25_scores(store: GraphStore, query: str,
                 unit_ids: list[str]) -> dict[str, float]:
    tokens = tokenize(query)
    n = max(store.n_units, 1)
    avgdl = store.avgdl or 1.0
    scores = {uid: 0.0 for uid in unit_ids}
    wanted = set(unit_ids)
    # Read once: both are store properties that may build the index.
    term_index, unit_len = store.term_index, store.unit_len
    for token in sorted(set(tokens)):
        df = store.df.get(token, 0)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        postings = term_index.get(token, {})
        for uid, tf in postings.items():
            if uid not in wanted:
                continue
            dl = unit_len.get(uid, 0)
            denom = tf + _BM25_K1 * (1.0 - _BM25_B + _BM25_B * dl / avgdl)
            scores[uid] += idf * (tf * (_BM25_K1 + 1.0)) / denom
    # Keep scores inside the documented [-1, 1] band.
    return {uid: s / (1.0 + s) if s > 0 else 0.0 for uid, s in scores.items()}


def _vector_scores(store: GraphStore, query: str,
                   unit_ids: list[str]) -> list[tuple[str, float]]:
    """Cosine of the query with each unit: one gather, one row-wise dot.

    ``vecdot`` takes each row's dot as ``np.dot`` (and so ``cosine``) does,
    bit for bit; a matrix product may sum in another order and reorder
    near-ties.
    """
    query_vec = embedder_for_store(store).embed(query)
    rows = [store.unit_rows[uid] for uid in unit_ids]
    scores = np.vecdot(store.embeddings[rows], query_vec).tolist()
    return list(zip(unit_ids, scores))


def _rank(pairs: list[tuple[str, float]]) -> dict[str, int]:
    ordered = sorted(pairs, key=lambda p: (-p[1], p[0]))
    return {uid: i for i, (uid, _) in enumerate(ordered)}


def scoped_search(store: GraphStore, req: RetrievalRequest) -> list[RetrievalHit]:
    """Rank the text units reachable from the scope at the query instant.

    The candidate set is assembled entirely from structural and temporal
    filters before any scoring happens, so no hit can cite a version that
    was not valid at ``req.t``.
    """
    if not req.scope:
        raise EmptyScope("<empty>")
    requested = req.language
    candidates: list[_Candidate] = []
    if Aspect.CONTENT in req.aspects:
        candidates.extend(_content_candidates(store, req, requested))
    if Aspect.ACTION_DESCRIPTION in req.aspects:
        candidates.extend(_action_candidates(store, req))
    if Aspect.METADATA in req.aspects:
        candidates.extend(_metadata_candidates(store, req))
    if Aspect.THEME_DESCRIPTION in req.aspects:
        candidates.extend(_theme_candidates(store, req))

    by_unit: dict[str, _Candidate] = {}
    for cand in candidates:
        by_unit.setdefault(cand.unit_id, cand)
    unit_ids = sorted(by_unit)
    if not unit_ids:
        return []

    if req.mode is RetrievalMode.VECTOR:
        retrievable = [uid for uid in unit_ids if store.units[uid].retrievable]
        scored = _vector_scores(store, req.query_text, retrievable)
    elif req.mode is RetrievalMode.LEXICAL:
        scores = _bm25_scores(store, req.query_text, unit_ids)
        scored = [(uid, scores[uid]) for uid in unit_ids]
    else:
        vec_pairs = _vector_scores(store, req.query_text, unit_ids)
        lex_scores = _bm25_scores(store, req.query_text, unit_ids)
        lex_pairs = [(uid, lex_scores[uid]) for uid in unit_ids]
        vec_rank = _rank(vec_pairs)
        lex_rank = _rank(lex_pairs)
        # Rank-sum fusion; ties break on lexical rank, then unit id.
        fused = sorted(unit_ids, key=lambda uid: (vec_rank[uid] + lex_rank[uid],
                                                  lex_rank[uid], uid))
        scored = [(uid, 1.0 / (1.0 + vec_rank[uid] + lex_rank[uid])) for uid in fused]
        hits = [
            RetrievalHit(uid, round(score, 12), by_unit[uid].provenance, by_unit[uid].aspect)
            for uid, score in scored
        ]
        return hits[: req.k]

    ordered = sorted(scored, key=lambda p: (-p[1], p[0]))
    return [
        RetrievalHit(uid, round(score, 12), by_unit[uid].provenance, by_unit[uid].aspect)
        for uid, score in ordered[: req.k]
    ]


@dataclass(frozen=True)
class SpanLocation:
    """One version of a scoped work whose content contains the search term."""

    work: str
    ctv: str
    first_containing: bool


def _contains_tokens(haystack: list[str], needle: list[str]) -> bool:
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def locate_spans(store: GraphStore, term: str, scope: Iterable[str],
                 language: str | None = None, fallback: bool = True) -> list[SpanLocation]:
    """Exact (token-normalized) term occurrences across full version history.

    ``first_containing`` marks versions whose predecessor lacks the term:
    the introduction points that provenance chains are anchored on. A
    version with no wording in ``language`` is read in the work's primary
    language when ``fallback`` is on, and otherwise contains nothing.
    Membership is read from the committed store's term index: a unit
    contains the term only if it is in the postings of every distinct
    needle token, and only multi-token needles re-read the unit's text to
    check adjacency.
    """
    needle = tokenize(term)
    postings = [store.term_index.get(token) for token in dict.fromkeys(needle)]
    if not needle or not all(postings):
        return []
    phrase = len(needle) > 1
    out: list[SpanLocation] = []
    for urn in sorted(set(scope)):
        previous_contains = False
        for cid in store.versions.get(urn, ()):
            lv_id = store.clv_for(cid, urn, language, fallback)
            if lv_id is None:
                previous_contains = False
                continue
            uid = store.clvs[lv_id].text_unit
            contains = all(uid in p for p in postings)
            if contains and phrase:
                contains = _contains_tokens(tokenize(store.units[uid].text), needle)
            if contains:
                out.append(SpanLocation(urn, cid, first_containing=not previous_contains))
            previous_contains = contains
    return out
