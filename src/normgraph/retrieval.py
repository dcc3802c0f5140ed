"""Multi-aspect, scope-filtered text-unit retrieval.

The embedder is a deterministic hashed TF-IDF: tokens are hashed
into a fixed number of buckets with a keyed hash, weighted by the IDF
statistics the store derives from its units, and L2-normalized. It exists
so retrieval is reproducible without a learned model, and it is the only
embedder: each unit is embedded with it on the unit's first vector read,
and queries embed their text with it. Embedding and scoring are plain
float arithmetic in a fixed order, with every step correctly rounded, so
their bits depend on no BLAS kernel.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import Counter
from datetime import date
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyScope
from .model import ActionType, Aspect, EMBEDDING_DIMENSION, Record, ctv_id
from .store import BM25_K1, GraphStore, _TextIndex, pick_wording, tokenize

_HASH_KEY = b"normgraph.embed.v1"


def _bucket(token: str) -> int:
    import hashlib  # on the first bucket: its OpenSSL load costs a query that embeds nothing
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=_HASH_KEY).digest()
    return int.from_bytes(digest, "big") % EMBEDDING_DIMENSION


class HashedTfidfEmbedder:
    """Hashed bag-of-words with smoothed IDF weights and unit L2 norm.

    Its statistics are fixed for its life: each token's bucket and IDF
    weight are computed once and kept on the instance.
    """

    def __init__(self, df: dict[str, int] | None = None, n_units: int = 0):
        self.df = df or {}
        self.n_units = n_units
        self._weights: dict[str, tuple[int, float]] = {}

    def idf(self, token: str) -> float:
        return math.log((self.n_units + 1) / (self.df.get(token, 0) + 1)) + 1.0

    def embed(self, text: str) -> dict[int, float]:
        """The text's buckets as ``{bucket: value}``, in ascending bucket order.

        Each bucket adds up ``count * idf`` in first-occurrence token order;
        the norm is the square root of math.fsum's correctly rounded sum of
        squares, so the result depends on no summation order. A token's
        (bucket, IDF) pair depends on the token alone, so it is computed on
        the token's first occurrence in any text this embedder embeds and
        read back after that. With a store's own statistics every IDF is at
        least 1, so no value is zero.
        """
        weights = self._weights
        buckets: dict[int, float] = {}
        for token, count in Counter(tokenize(text)).items():
            weight = weights.get(token)
            if weight is None:
                weight = weights[token] = (_bucket(token), self.idf(token))
            bucket, idf = weight
            buckets[bucket] = buckets.get(bucket, 0.0) + count * idf
        norm = math.sqrt(math.fsum(v * v for v in buckets.values()))
        if norm == 0.0:  # no tokens, or weights that all add up to zero
            return {}
        return {bucket: buckets[bucket] / norm for bucket in sorted(buckets)}


def embedder_for_store(store: GraphStore, index: _TextIndex | None = None) -> HashedTfidfEmbedder:
    """Embedder using the IDF statistics the store derives from its units.

    ``index`` is the store's text index, for a caller that has read it
    already: an uncommitted store derives it again on each read.
    """
    if index is None:
        index = store.text_index
    return HashedTfidfEmbedder(index.df, index.n_units)


def _kept_embeddings(store: GraphStore) -> dict[str, dict[int, float]]:
    """Where a unit's embedding is kept: the store's map, or a throwaway one while uncommitted."""
    return store.unit_embeddings if store.committed else {}


def embeddings_of(store: GraphStore, unit_ids: list[str],
                  embedder: HashedTfidfEmbedder) -> list[dict[int, float]]:
    """The units' embeddings, in ``unit_ids`` order.

    A unit's embedding is computed from its text with the store's
    statistics on its first read, by ``embedder``, which the caller builds
    with ``embedder_for_store``, and kept in ``store.unit_embeddings`` for
    later reads. Racing first readers compute equal maps, so whichever is
    kept, scores are the same. An uncommitted store, whose statistics may
    still change, keeps none. Shared with the store: treat them as
    read-only.
    """
    kept = _kept_embeddings(store)
    missing = [uid for uid in unit_ids if uid not in kept]
    if missing:
        embed, units = embedder.embed, store.units
        for uid in missing:
            kept[uid] = embed(units[uid].text)
    return [kept[uid] for uid in unit_ids]


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product of two dense unit vectors of one length, summed in index order.

    The per-pair reference for scoped_search, which scores bit for bit alike.
    """
    s = 0.0
    for x, y in zip(a, b, strict=True):
        s += x * y
    return s


class RetrievalMode(str, Enum):
    VECTOR = "vector"
    LEXICAL = "lexical"
    HYBRID = "hybrid"


class RetrievalRequest(Record):
    """What scoped_search ranks; action descriptions dated after ``t``, anachronistic for
    the query instant, only with ``include_future_actions``."""

    __slots__ = ("query_text", "scope", "t", "aspects", "language", "k", "mode",
                 "language_fallback", "include_future_actions")

    def __init__(self, query_text: str, scope: frozenset[str], t: date,
                 aspects: frozenset[Aspect] = frozenset({Aspect.CONTENT}),
                 language: str | None = None, k: int = 8,
                 mode: RetrievalMode = RetrievalMode.VECTOR, language_fallback: bool = True,
                 include_future_actions: bool = False) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self._assign(query_text, scope, t, aspects, language, k, mode, language_fallback,
                     include_future_actions)


class RetrievalHit(Record):
    """One ranked text unit with resolvable provenance.

    ``provenance`` is (work urn, temporal version id, owning node id);
    the owning node is a language version, action, or theme depending on
    the unit's aspect. The version id is empty for aspect owners that are
    not version-bound (work-level metadata, themes).
    """

    __slots__ = ("text_unit", "score", "provenance", "aspect")

    def __init__(self, text_unit: str, score: float, provenance: tuple[str, str, str],
                 aspect: Aspect) -> None:
        self._assign(text_unit, score, provenance, aspect)


# scoped_search's candidate map: unit id -> (reference, aspect), into which
# each finder files its candidates. The reference is the owning node's id
# (language version, action, work or theme), from which _provenance builds
# the hit's provenance; only the k returned hits need it.
_Found = dict[str, tuple[str, Aspect]]


def _content_candidates(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    """The wording each scoped work's version valid at ``req.t`` has in the language the rule picks.

    The version valid at ``t`` is the one that started on or before it and
    has not ended, and its wording is the one ``pick_wording`` picks. A work
    with no wording in an acceptable language contributes no candidate
    (scoped_search never errors on language gaps, unlike snapshot
    reconstruction).

    Two walks find the same candidates, and the smaller side is walked, as
    ``_bm25_scores`` and ``locate_spans`` choose theirs (after Zobel &
    Moffat): the chain index's version run up to ``t`` when it holds fewer
    versions than the scope holds works, and otherwise each scoped work's
    chain.
    """
    if bisect_right(store.chain_index.run.starts, req.t) < len(req.scope):
        _content_by_run(store, req, found)
    else:
        _content_by_chains(store, req, found)


def _content_by_run(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    """``_content_candidates`` from the versions that started by ``t``, one pass in start order.

    Chains tile time, so a work has at most one started version that has
    not ended; it is kept if its work is in scope. An open end stays None,
    since 9999-12-31 is a legal date.
    """
    run, t, scope = store.chain_index.run, req.t, req.scope
    language, fallback, content = req.language, req.language_fallback, Aspect.CONTENT
    started = bisect_right(run.starts, t)
    for end, urn, languages, primary in zip(run.ends[:started], run.works,
                                            run.wordings, run.primaries):
        if (end is None or t < end) and urn in scope:
            picked = pick_wording(languages, primary, language, fallback)
            if picked is not None:
                lv_id, unit_id = picked
                found[unit_id] = (lv_id, content)


def _content_by_chains(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    """``_content_candidates`` from each scoped worded work's chain, bisected at ``t``."""
    chains = store.chain_index.chains
    t, language, fallback = req.t, req.language, req.language_fallback
    for urn in chains.keys() & req.scope:
        _, starts, ends, wordings, primary, _, _, _ = chains[urn]
        index = bisect_right(starts, t) - 1
        if index < 0:
            continue
        end = ends[index]
        if end is not None and t >= end:
            continue
        picked = pick_wording(wordings[index], primary, language, fallback)
        if picked is not None:
            lv_id, unit_id = picked
            found[unit_id] = (lv_id, Aspect.CONTENT)


def _action_candidates(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    """The description unit of each action filed under a scoped work and effective by ``req.t``.

    The actions are those of the store's time index, filed under the works
    they target or produced a version of, up to ``t``, or all of them when
    future actions are asked for. As ``_content_candidates`` does, the
    smaller side is walked, by the lengths rule impact analysis uses: the
    action run's prefix when it holds fewer actions than the scope holds
    works, and otherwise each scoped work's date-sorted actions.
    """
    _, dates = store.time_index.run
    taken = len(dates) if req.include_future_actions else bisect_right(dates, req.t)
    if taken < len(req.scope):
        _actions_by_run(store, req, taken, found)
    else:
        _actions_by_works(store, req, found)


def _actions_by_run(store: GraphStore, req: RetrievalRequest, taken: int,
                    found: _Found) -> None:
    """``_action_candidates`` from the first ``taken`` actions of the action run, in run order."""
    index = store.time_index
    actions, disjoint, aspect = store.actions, req.scope.isdisjoint, Aspect.ACTION_DESCRIPTION
    for aid, works in zip(index.run[0][:taken], index.filed):
        if not disjoint(works):
            found[actions[aid].description_unit] = (aid, aspect)


def _actions_by_works(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    """``_action_candidates`` from the prefix of each scoped work's actions."""
    by_work = store.time_index.actions
    t, future = req.t, req.include_future_actions
    action_ids: set[str] = set()
    for urn in by_work.keys() & req.scope:
        ids, dates = by_work[urn]
        action_ids.update(ids if future else ids[:bisect_right(dates, t)])
    actions, aspect = store.actions, Aspect.ACTION_DESCRIPTION
    for aid in action_ids:
        found[actions[aid].description_unit] = (aid, aspect)


def _metadata_candidates(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    metadata_units = store.chain_index.metadata_units
    for urn in metadata_units.keys() & req.scope:
        entry = (urn, Aspect.METADATA)
        for uid in metadata_units[urn]:
            found[uid] = entry


def _theme_candidates(store: GraphStore, req: RetrievalRequest, found: _Found) -> None:
    for tid, theme in store.themes.items():
        if not req.scope.isdisjoint(theme.members):
            found[theme.description_unit] = (tid, Aspect.THEME_DESCRIPTION)


# In reverse aspect order: a unit that two aspects find keeps the entry of
# the first aspect, which is filed last.
_CANDIDATES = (
    (Aspect.THEME_DESCRIPTION, _theme_candidates),
    (Aspect.METADATA, _metadata_candidates),
    (Aspect.ACTION_DESCRIPTION, _action_candidates),
    (Aspect.CONTENT, _content_candidates),
)


def _provenance(store: GraphStore, req: RetrievalRequest, ref: str,
                aspect: Aspect) -> tuple[str, str, str]:
    """A hit's (work urn, temporal version id, owning node id); see RetrievalHit."""
    if aspect is Aspect.CONTENT:
        tv = store.ctvs[store.clvs[ref].temporal_version]
        return tv.work, tv.id, ref
    if aspect is Aspect.ACTION_DESCRIPTION:
        action = store.actions[ref]
        target = action.targets[0]
        if action.action_type is not ActionType.REPEAL:  # it opens its target's version
            return target, ctv_id(target, action.effective_date), ref
        return target, store.closed_by(action, target).id, ref  # a repeal closes its target
    if aspect is Aspect.METADATA:
        return ref, "", ref
    theme = store.themes[ref]
    return min(urn for urn in theme.members if urn in req.scope), "", ref


# A scorer's result: (-score, unit id) per candidate. Ascending, these pairs
# rank by score descending, ties by id, so top-k selects without a key.
_Ranked = list[tuple[float, str]]

_TF_SCALE = BM25_K1 + 1.0


def _bm25_scores(store: GraphStore, query: str, candidates: Iterable[str]) -> _Ranked:
    """Each candidate's BM25 score over the query's distinct tokens, squashed into [0, 1).

    For each token, the smaller of two sides is walked (document- against
    term-at-a-time evaluation over the term index, after Zobel & Moffat):
    the candidates, each looked up in the token's postings, when there are
    fewer candidates than postings; otherwise the postings, each kept only
    if it is a candidate. Either way a unit adds its tokens' terms in sorted
    token order with the same expression, its length term read from the
    text index, so its score has the same bits whichever side each token
    took, and a scoped query reads what its scope holds rather than every
    posting of the corpus.
    """
    index = store.text_index
    term_index, doc_freq, length_terms = index.term_index, index.df, index.length_terms
    n = max(index.n_units, 1)
    scores = dict.fromkeys(candidates, 0.0)
    for token in sorted(set(tokenize(query))):
        postings = term_index.get(token)
        if not postings:
            continue
        df = doc_freq.get(token, 0)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        if len(scores) < len(postings):
            held = [(uid, postings[uid]) for uid in scores if uid in postings]
        else:
            held = [(uid, tf) for uid, tf in postings.items() if uid in scores]
        for uid, tf in held:
            scores[uid] += idf * (tf * _TF_SCALE) / (tf + length_terms[uid])
    # Keep scores inside the documented [-1, 1] band.
    return [(-s / (1.0 + s) if s > 0 else 0.0, uid) for uid, s in scores.items()]


def _vector_scores(store: GraphStore, query: str, candidates: Iterable[str],
                   skip_blank: bool = False) -> _Ranked:
    """Cosine of the query with each candidate, read from its embedding entries.

    With ``skip_blank``, a candidate the text index holds blank (not
    retrievable) is left out. Each unit's embedding is read where
    ``embeddings_of`` keeps it, and derived by it on the unit's first read.
    Each score adds ``v * w`` over the query's buckets in ascending order,
    which is ``cosine`` of the dense vectors bit for bit: every other dense
    term has a zero factor, and adding a zero leaves the running sum as it
    is. The loop is written out, not ``sum()``, whose float algorithm
    changed in Python 3.12.
    """
    index = store.text_index  # read once: an uncommitted store derives it on each read
    embedder = embedder_for_store(store, index)
    skip = index.blank if skip_blank else frozenset()
    query_entries = list(embedder.embed(query).items())
    kept = _kept_embeddings(store)
    ranked: _Ranked = []
    for uid in candidates:
        if uid in skip:
            continue
        entries = kept.get(uid)
        if entries is None:
            entries = embeddings_of(store, [uid], embedder)[0]
        s = 0.0
        for bucket, w in query_entries:
            s += entries.get(bucket, 0.0) * w
        ranked.append((-s, uid))
    return ranked


def _rank(ranked: _Ranked) -> dict[str, int]:
    """Each unit's place in score order: by score descending, ties by id."""
    return {uid: i for i, (_, uid) in enumerate(sorted(ranked))}


def scoped_search(store: GraphStore, req: RetrievalRequest) -> list[RetrievalHit]:
    """Rank the text units reachable from the scope at the query instant.

    The candidate set is assembled entirely from structural and temporal
    filters before any scoring happens, so no hit can cite a version that
    was not valid at ``req.t``. Provenance is resolved for the returned
    hits only. Every ranking key ends in the unit id, so the order in which
    candidates are found does not matter.
    """
    if not req.scope:
        raise EmptyScope("<empty>")
    found: _Found = {}
    for aspect, find in _CANDIDATES:
        if aspect in req.aspects:
            find(store, req, found)
    if not found:
        return []

    if req.mode is RetrievalMode.VECTOR:
        top = heapq.nsmallest(req.k, _vector_scores(store, req.query_text, found,
                                                    skip_blank=True))
    elif req.mode is RetrievalMode.LEXICAL:
        top = heapq.nsmallest(req.k, _bm25_scores(store, req.query_text, found))
    else:
        vec_rank = _rank(_vector_scores(store, req.query_text, found))
        lex_rank = _rank(_bm25_scores(store, req.query_text, found))
        # Rank-sum fusion; ties break on lexical rank, then unit id.
        fused = heapq.nsmallest(req.k, [(vec_rank[uid] + lex, lex, uid)
                                        for uid, lex in lex_rank.items()])
        top = [(-1.0 / (1.0 + rank_sum), uid) for rank_sum, _, uid in fused]

    hits = []
    for negated, uid in top:
        ref, aspect = found[uid]
        # 0.0 - negated is the score, and 0.0 (not -0.0) for a zero score.
        hits.append(RetrievalHit(uid, round(0.0 - negated, 12),
                                 _provenance(store, req, ref, aspect), aspect))
    return hits


class SpanLocation(NamedTuple):
    """An introduction of the search term in a scoped work's content.

    A version is one when it holds the term and its chain predecessor, if
    any, does not: the points provenance chains are anchored on. A plain
    tuple of its fields, in this order; ``clv`` is the language version the
    language rule picked, the wording the term was found in.
    """

    work: str
    ctv: str
    position: int  # the version's place in its work's chain
    clv: str


def _holds(store: GraphStore, uid: str, needle: list[str]) -> bool:
    """Whether a unit already in every needle token's postings holds the tokens adjacently.

    Only a needle of more than one token needs this: a single token's
    postings already say it.
    """
    haystack, n = tokenize(store.units[uid].text), len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def _walk_chains(store: GraphStore, needle: list[str], postings: list[dict[str, int]],
                 scope: frozenset[str], language: str | None,
                 fallback: bool) -> list[SpanLocation]:
    """The introductions of the scope's chains, walked in (work, chain position) order.

    Each version costs one probe of ``postings[0]``, the smallest list; only
    a unit found there is looked up in the other lists, and only then, for a
    needle of more than one token, is its text re-read for adjacency. Whether
    the predecessor held the needle is carried along each chain.
    """
    chains = store.chain_index.chains
    smallest, others, adjacent = postings[0], postings[1:], len(needle) > 1
    make = SpanLocation._make  # cheaper than SpanLocation(...), which binds its arguments
    found: list[SpanLocation] = []
    for urn in sorted(chains.keys() & scope):
        cids, _, _, wordings, primary, _, _, _ = chains[urn]
        held = False  # whether the predecessor's picked wording holds the needle
        for position, languages in enumerate(wordings):
            picked = pick_wording(languages, primary, language, fallback)
            holds = picked is not None and picked[1] in smallest and (
                not adjacent or (all(picked[1] in p for p in others)
                                 and _holds(store, picked[1], needle)))
            if holds and not held:
                found.append(make((urn, cids[position], position, picked[0])))
            held = holds
    return found


def _read_postings(store: GraphStore, needle: list[str], postings: list[dict[str, int]],
                   scope: frozenset[str], language: str | None,
                   fallback: bool) -> list[SpanLocation]:
    """``_walk_chains``'s introductions, found from the units in every token's postings.

    The versions holding the needle are kept by their rank in the chain
    index, their place in the corpus-wide (work, chain position) order, and
    sorted by it: a version is an introduction when it opens its chain or
    the version ranked just before it was not kept.
    """
    candidates = postings[0].keys()
    for p in postings[1:]:
        candidates &= p.keys()
    index = store.chain_index
    chains, placed_units = index.chains, index.placed_units
    adjacent = len(needle) > 1
    held: dict[int, tuple[str, str, int, str]] = {}  # rank -> a location's fields
    for uid in candidates:
        # Only a language version's own unit is placed: no other unit is wording.
        place = placed_units.get(uid)
        if place is None or place[0] not in scope:
            continue
        urn, position, rank = place
        cids, _, _, wordings, primary, _, _, _ = chains[urn]
        picked = pick_wording(wordings[position], primary, language, fallback)
        if (picked is not None and picked[1] == uid
                and (not adjacent or _holds(store, uid, needle))):
            held[rank] = (urn, cids[position], position, picked[0])
    make = SpanLocation._make
    found: list[SpanLocation] = []
    for rank in sorted(held):
        fields = held[rank]
        if fields[2] == 0 or rank - 1 not in held:  # it opens its chain, or follows a gap
            found.append(make(fields))
    return found


def locate_spans(store: GraphStore, term: str, scope: Iterable[str],
                 language: str | None = None, fallback: bool = True,
                 by_postings: bool = False) -> list[SpanLocation]:
    """The introductions of an exact (token-normalized) term across full version history.

    A version introduces the term when the wording the language rule
    (``pick_wording``) picks for it holds the term and its chain
    predecessor's picked wording, if it has a predecessor, does not. A
    version with no wording in ``language`` is read in the work's primary
    language when ``fallback`` is on, and otherwise contains nothing.
    Introductions come in (work, chain position) order; versions that hold
    the term after its introduction are not returned.

    Membership is read from the store's term index (inverted-file
    evaluation, after Zobel & Moffat), and versions from its chain index,
    by one of two access paths that find the same introductions. By default
    the chains of the scope's works are walked and the wording
    ``pick_wording`` picks for each version is probed in the smallest
    posting list of the needle's distinct tokens: one probe per version in
    scope. Only a unit found there is looked up in the other lists, and only
    then is its text re-read. With ``by_postings`` the postings are read
    first: they are intersected, smallest first, and each unit is kept only
    if the chain index places it (it is a language version's wording) in a
    work in ``scope`` and ``pick_wording`` picks it at that chain position:
    one lookup per unit holding the term, wherever it is. The kept versions
    are ordered by their integer rank in the chain index. Either way only
    multi-token needles re-read a unit's text, to check adjacency.
    """
    needle = tokenize(term)
    term_index = store.text_index.term_index
    postings = [term_index.get(token) for token in dict.fromkeys(needle)]
    if not needle or not all(postings):
        return []
    postings.sort(key=len)
    read = _read_postings if by_postings else _walk_chains
    return read(store, needle, postings, frozenset(scope), language, fallback)
