"""The benchmark's three workloads: corpus, fixed query mix, expected outcomes.

Every workload is built from its seed alone.  The engine sees only the files
written by :func:`write_corpus` and the queries of :attr:`Workload.queries`;
the expected outcome of every query (answer or error class, and for
point-in-time answers the cited texts) comes from the replay oracle in
:mod:`gen`, never from the engine.

* ``ingest-cold``: the ROADMAP item-1 corpus shape, queried only through
  narrow targets, so snapshot codec, ingest and load do nearly all the work.
* ``query-wide``: a smaller corpus with themes, translations, metadata and
  aliases, queried corpus-wide, so span location and scoped search dominate.
* ``query-deep``: a few norms with long histories queried thousands of times
  at narrow targets, so version selection and planner overhead dominate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from gen import WORDS, Norm, contains_phrase, generate_norm, replay_snapshots, tokenize, write_norm

# Every query pins its own dates; the clock only has to be fixed.
CLOCK = "2200-01-01"
ALL_ASPECTS = ["content", "action_description", "metadata", "theme_description"]
ABSENT_TERM = "zebra"
# Spanish stand-ins for WORDS, used by translation files.
_ES = dict(zip(WORDS, [
    "alfa", "beta", "gama", "delta", "omega", "derechos", "deber", "impuesto",
    "tierra", "agua", "comercio", "salud", "caminos", "escuela", "tribunal",
]))


@dataclass
class Query:
    pattern: str  # CLI sub-command: at, impact, provenance or retrieve
    mapping: dict  # evaluation.build_query mapping; also rendered as CLI flags
    outcome: str = "Answer"  # or the expected error class name
    texts: list | None = None  # expected [urn, text] citations of an answer


@dataclass
class Workload:
    norms: list[Norm]
    queries: list[Query]
    cold: list[int]  # indices of queries also run as cold CLI children
    themes: list[dict] = field(default_factory=list)
    translations: list[dict] = field(default_factory=list)

    def size(self) -> dict:
        return {"norms": len(self.norms),
                "events": sum(len(n.event_files) for n in self.norms),
                "queries": len(self.queries),
                "error_queries": sum(q.outcome != "Answer" for q in self.queries)}


def write_corpus(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True)
    for norm in workload.norms:
        write_norm(norm, directory)
    if workload.themes:
        (directory / "themes.satev.json").write_text(
            json.dumps({"format_version": 1, "themes": workload.themes}), encoding="utf-8")
    for i, translation in enumerate(workload.translations):
        (directory / f"t{i:05d}.satlang.json").write_text(
            json.dumps(translation), encoding="utf-8")


def cli_args(query: Query, snapshot: str) -> list[str]:
    """The ``normgraph query`` argument list equivalent to ``query.mapping``."""
    m = query.mapping
    args = ["query", query.pattern, "--snapshot", snapshot, "--json", "--clock", CLOCK]
    for key in ("target", "theme", "at", "term", "text", "mode", "lang"):
        if key in m:
            args += [f"--{key}", m[key]]
    if "between" in m:
        args += ["--between", *m["between"]]
    if "aspects" in m:
        args += ["--aspects", ",".join(m["aspects"])]
    if "membership" in m:
        args += ["--membership", m["membership"].replace("_", "-")]
    return args


# -- corpus ----------------------------------------------------------------------


def _norms_of_size(base: int, size: int | None, count: int | None, **shape) -> list[Norm]:
    """``count`` norms, or as many as it takes for events + fragments to reach ``size``.

    Filling to a size rather than a count keeps the corpus within one norm of
    the same size across seeds, so seed-to-seed spread stays small.
    """
    norms: list[Norm] = []
    total = 0
    while (len(norms) < count) if count is not None else (total < size):
        norm = generate_norm(base + len(norms), **shape)
        norms.append(norm)
        total += len(norm.event_files) + len(norm.oracle.created)
    return norms


def _norms_of_shapes(base: int, count: int, max_components: int, max_events: int) -> list[Norm]:
    """``count`` norms whose component and event counts step evenly through their ranges.

    Drawn independently, the counts would give each seed's corpus its own mix
    of small and large norms, and the cost of wide queries would follow that
    mix; evenly spaced counts give every seed the same mix.  The pairing of
    component and event counts is shuffled once per ``count``, not per seed.
    """
    order = list(range(count))
    random.Random(count).shuffle(order)
    last = max(count - 1, 1)
    norms = []
    for k in range(count):
        components = 2 + (max_components - 2) * k // last
        events = max_events * order[k] // last
        norms.append(generate_norm(base + k, max_components=components,
                                   min_components=components,
                                   max_events=events, min_events=events))
    return norms


def _themes(rng: random.Random, norms: list[Norm], n_themes: int, width: int) -> list[dict]:
    """Themes whose members are whole norms, so theme queries span norms.

    Each theme takes one norm at random from each of ``width`` size strata,
    so every theme, whatever the seed, holds about the same amount of text.
    """
    by_size = sorted(norms, key=lambda n: len(n.event_files) + len(n.oracle.created))
    width = min(width, len(norms))
    strata = [by_size[len(norms) * i // width:len(norms) * (i + 1) // width]
              for i in range(width)]
    themes = []
    for k in range(n_themes):
        a, b = rng.sample(WORDS, 2)
        themes.append({"label": f"Theme {k} {a}",
                       "description": f"Provisions on {a} and {b} across statutes.",
                       "members": [rng.choice(stratum).urn for stratum in strata]})
    return themes


def _translation(norm: Norm) -> dict:
    units = []
    for fragment, text in sorted(norm.oracle.wordings.items()):
        if norm.oracle.created[fragment] != norm.enactment:
            continue
        words = [_ES.get(w, w) for w in norm.oracle.wordings[fragment][0].split()]
        units.append({"fragment": fragment, "text": " ".join(words)})
    return {"format_version": 1, "norm": norm.urn, "language": "es",
            "at": norm.enactment.isoformat(), "units": units}


# -- expectations -------------------------------------------------------------------


class Expect:
    """Predicts each query's outcome from the generated corpus alone."""

    def __init__(self, norms: list[Norm], themes: list[dict]):
        self.by_urn = {n.urn: n for n in norms}
        self.themes = {t["label"]: t["members"] for t in themes}
        dates = {n.enactment for n in norms}
        for n in norms:
            dates.update(date.fromisoformat(e["effective_date"]) for e in n.events())
        self.action_dates = sorted(dates)
        self._pit: list[tuple[Query, list[tuple[Norm, str, date]]]] = []

    def split(self, urn: str) -> tuple[Norm, str]:
        norm_urn, _, fragment = urn.partition("!")
        return self.by_urn[norm_urn], fragment

    def entries(self, mapping: dict) -> list[tuple[Norm, str]]:
        if "theme" in mapping:
            return [self.split(m) for m in sorted(self.themes[mapping["theme"]])]
        if "target" in mapping:
            return [self.split(mapping["target"])]
        return []

    def point_in_time(self, q: Query) -> Query:
        t = date.fromisoformat(q.mapping["at"])
        entries = self.entries(q.mapping)
        if "theme" in q.mapping and not any(n.oracle.alive_on(f, t) for n, f in entries):
            q.outcome = "EmptyScope"
            return q
        for norm, fragment in entries:
            oracle = norm.oracle
            if t < oracle.created[fragment]:
                q.outcome = "NotYetEnacted"
            elif fragment in oracle.repealed and t >= oracle.repealed[fragment]:
                q.outcome = "RepealedAt"
            if q.outcome != "Answer":
                return q
        self._pit.append((q, [(norm, fragment, t) for norm, fragment in entries]))
        return q

    def _qualifies(self, norm: Norm, fragment: str, t1: date, t2: date, policy: str) -> bool:
        oracle = norm.oracle
        if policy == "snapshot_anchored":
            return oracle.alive_on(fragment, t1)
        if policy == "lifetime":
            end = oracle.repealed.get(fragment)
            return oracle.created[fragment] <= t2 and (end is None or end > t1)
        return any(oracle.alive_on(fragment, d) for d in self.action_dates if t1 <= d <= t2)

    def impact(self, q: Query) -> Query:
        t1, t2 = (date.fromisoformat(d) for d in q.mapping["between"])
        policy = q.mapping.get("membership", "snapshot_anchored")
        if not any(self._qualifies(n, f, t1, t2, policy) for n, f in self.entries(q.mapping)):
            q.outcome = "EmptyScope"
        return q

    def provenance(self, q: Query) -> Query:
        needle = tokenize(q.mapping["term"])
        t = date.fromisoformat(q.mapping["at"])
        entries = self.entries(q.mapping)
        if entries:
            fragments = [(n, g) for n, f in entries for g in n.oracle.subtree(f)
                         if n.oracle.alive_on(g, t)]
        else:
            fragments = [(n, g) for n in self.by_urn.values() for g in n.oracle.wordings]
        found = any(contains_phrase(text, needle)
                    for n, g in fragments for text in n.oracle.wordings.get(g, ()))
        if not found:
            q.outcome = "TermNotFound"
        return q

    def retrieve(self, q: Query) -> Query:
        t = date.fromisoformat(q.mapping["at"])
        entries = self.entries(q.mapping)
        if entries and not any(n.oracle.alive_on(f, t) for n, f in entries):
            q.outcome = "EmptyScope"
        return q

    def finish(self) -> None:
        """Fill in point-in-time texts from one replay per norm."""
        requests: dict[str, list] = {}
        for _, entries in self._pit:
            for norm, fragment, t in entries:
                requests.setdefault(norm.urn, []).append((fragment, t))
        snaps = {urn: replay_snapshots(self.by_urn[urn], reqs) for urn, reqs in requests.items()}
        for q, entries in self._pit:
            q.texts = [list(pair) for norm, fragment, t in entries
                       for pair in snaps[norm.urn][(fragment, t)]]


def _day(rng: random.Random, lo: date, hi: date, stratum: tuple[int, int] = (0, 1)) -> date:
    """A day in slice ``k`` of ``n`` equal slices of ``lo``..``hi``.

    Queries that step ``k`` through the slices cover the span from end to
    end, so the share of cheap early and dear late dates does not depend on
    the seed.
    """
    k, n = stratum
    days = max(0, (hi - lo).days)
    start = lo + timedelta(days=k * days // n)
    return start + timedelta(days=rng.randint(0, days // n))


def _lifetime_day(rng: random.Random, norm: Norm, fragment: str,
                  stratum: tuple[int, int] = (0, 1)) -> date:
    """A date on which ``fragment`` is in force, in the given slice of its life."""
    lo = norm.oracle.created[fragment]
    end = norm.oracle.repealed.get(fragment)
    hi = end - timedelta(days=1) if end else norm.last_event_date() + timedelta(days=365)
    return _day(rng, lo, hi, stratum)


def _pick(rng: random.Random, norm: Norm, kind: str, turn: int | None = None) -> str:
    """A fragment of ``kind``: at random, or the ``turn``-th in a round over all of them."""
    frags = sorted(f for f, k in norm.oracle.kind.items() if k == kind and f)
    if not frags:
        return ""
    return frags[turn % len(frags)] if turn is not None else rng.choice(frags)


def _urn(norm: Norm, fragment: str) -> str:
    return f"{norm.urn}!{fragment}" if fragment else norm.urn


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.sample(WORDS, n))


def _window(t1: date) -> list[str]:
    """A one-year impact window; a fixed length keeps impact costs comparable."""
    return [t1.isoformat(), (t1 + timedelta(days=365)).isoformat()]


def _narrow_queries(rng: random.Random, ex: Expect, norm: Norm, modes: list[str],
                    stratum: tuple[int, int] = (0, 1)) -> list[Query]:
    """One norm's narrow queries: on a provision, an article or the norm itself.

    The article is retrieved once in each of ``modes``, with the same text and date.
    """
    turn = stratum[0] if stratum[1] > 1 else None
    caput, article = _pick(rng, norm, "caput", turn), _pick(rng, norm, "article", turn)

    def day(fragment: str) -> date:
        return _lifetime_day(rng, norm, fragment, stratum)

    queries = [
        ex.point_in_time(Query("at", {"target": _urn(norm, caput),
                                      "at": day(caput).isoformat()})),
        ex.point_in_time(Query("at", {"target": _urn(norm, article),
                                      "at": day(article).isoformat()})),
        ex.impact(Query("impact", {"target": _urn(norm, article),
                                   "between": _window(day(article))})),
        ex.provenance(Query("provenance", {"target": norm.urn, "term": rng.choice(WORDS),
                                           "at": day("").isoformat()})),
    ]
    text, at = _words(rng, 3), day(article).isoformat()
    return queries + [ex.retrieve(Query("retrieve", {"target": _urn(norm, article), "text": text,
                                                     "mode": mode, "at": at}))
                      for mode in modes]


def _error_queries(rng: random.Random, ex: Expect, norm: Norm) -> list[Query]:
    """Narrow queries that deliberately hit the engine's query-error classes."""
    before = (norm.enactment - timedelta(days=30)).isoformat()
    out = [
        ex.point_in_time(Query("at", {"target": norm.urn, "at": before})),
        ex.provenance(Query("provenance", {"target": norm.urn, "term": ABSENT_TERM,
                                           "at": _lifetime_day(rng, norm, "").isoformat()})),
        ex.retrieve(Query("retrieve", {"target": _urn(norm, _pick(rng, norm, "article")),
                                       "text": _words(rng, 2), "at": before})),
        Query("at", {"target": f"no-such-provision-{norm.seed}", "at": before},
              outcome="UnknownAlias"),
    ]
    repealed = sorted(norm.oracle.repealed)
    if repealed:
        fragment = rng.choice(repealed)
        after = norm.oracle.repealed[fragment] + timedelta(days=rng.randint(0, 400))
        out.append(ex.point_in_time(Query("at", {"target": _urn(norm, fragment),
                                                 "at": after.isoformat()})))
    return out


def _first_answers(queries: list[Query]) -> list[int]:
    """Index of the first answered query of each pattern, in pattern order."""
    return [next(i for i, q in enumerate(queries) if q.pattern == p and q.outcome == "Answer")
            for p in ("at", "impact", "provenance", "retrieve")]


def _narrow_answers(queries: list[Query], n: int) -> list[int]:
    """The first ``n`` answered point-in-time queries on a single work."""
    return [i for i, q in enumerate(queries)
            if q.pattern == "at" and "target" in q.mapping and q.outcome == "Answer"][:n]


# -- the three workloads ------------------------------------------------------------

# Sizes are events + fragments (see _norms_of_size).  ingest-cold is ~125
# norms and query-wide 50 norms of the ROADMAP item-1 shape; with query-deep
# they keep every run near half a minute on a 2-core machine.
INGEST_COLD_SIZE = 10_000
QUERY_WIDE_NORMS = 50
QUERY_DEEP_NORMS = 8
QUERY_DEEP_COMPONENTS = 30
QUERY_DEEP_EVENTS = 300
QUERY_DEEP_ROUNDS = 128
MODES = ["vector", "lexical", "hybrid"]
POLICIES = ["snapshot_anchored", "action_time", "lifetime"]


def _with_repeals(norms: list[Norm]) -> list[Norm]:
    return [n for n in norms if n.oracle.repealed] or norms


def ingest_cold(seed: int, norms: int | None = None) -> Workload:
    corpus = _norms_of_size(seed * 100_000, INGEST_COLD_SIZE, norms,
                            max_components=60, max_events=80)
    rng = random.Random(seed * 7_919 + 1)
    ex = Expect(corpus, [])
    queries: list[Query] = []
    for i, norm in enumerate(rng.sample(corpus, min(36, len(corpus)))):
        queries += _narrow_queries(rng, ex, norm, [MODES[i % 3]])
    for norm in _with_repeals(corpus)[:2]:
        queries += _error_queries(rng, ex, norm)
    ex.finish()
    return Workload(corpus, queries, cold=_first_answers(queries))


def query_wide(seed: int, norms: int | None = None) -> Workload:
    corpus = _norms_of_shapes(seed * 100_000 + 20_000, norms or QUERY_WIDE_NORMS,
                              max_components=60, max_events=80)
    rng = random.Random(seed * 7_919 + 2)
    for norm in corpus:
        meta = norm.doc["norm"]
        a, b = rng.sample(WORDS, 2)
        meta["metadata"] = {"subject": a, "alternative_title": f"{b.title()} Act {norm.seed}"}
        meta["aliases"] = [f"Statute {norm.seed}"]
    for norm in corpus[:2]:
        norm.doc["norm"]["aliases"].append("Consolidated Code")
    themes = _themes(rng, corpus, n_themes=16, width=10)
    ex = Expect(corpus, themes)
    first = min(n.enactment for n in corpus)
    settled = max(n.enactment for n in corpus)
    latest = max(n.last_event_date() for n in corpus)

    def some_day(k: int = 0, n: int = 1) -> str:
        """A day in slice ``k`` of ``n`` of the span in which every norm is in force."""
        return _day(rng, settled, latest, (k, n)).isoformat()

    # Several queries of each kind the workload is for, retrieve modes in equal
    # shares.  No traffic was measured: the shares are a choice, and the tail
    # percentile is low enough (see catalog.TAIL_PERCENTILE) to leave at least
    # ten samples beyond it for each pattern.
    queries: list[Query] = []
    # Dates step through the span, so every seed has the same share of early
    # and late ones.
    terms = rng.sample(WORDS, 6) + [ABSENT_TERM]
    for k, term in enumerate(terms):
        queries.append(ex.provenance(Query("provenance", {
            "term": term, "at": some_day(k, len(terms))})))
    for k, mode in enumerate(MODES * 2):
        queries.append(ex.retrieve(Query("retrieve", {
            "text": _words(rng, 3), "mode": mode, "at": some_day(k, 6)})))
    for k in range(2):
        queries.append(ex.retrieve(Query("retrieve", {
            "text": _words(rng, 3), "mode": "hybrid", "aspects": ALL_ASPECTS,
            "at": some_day(k, 2)})))
    queries.append(ex.retrieve(Query("retrieve", {
        "text": " ".join(_ES[w] for w in rng.sample(WORDS, 3)), "mode": "vector",
        "lang": "es", "at": some_day()})))
    n = len(themes)
    for i, theme in enumerate(themes):
        for k in range(2):
            start = _day(rng, settled, latest, (k * n + i, 2 * n))
            queries.append(ex.impact(Query("impact", {
                "theme": theme["label"], "between": _window(start)})))
        queries.append(ex.point_in_time(Query("at", {
            "theme": theme["label"], "at": some_day(i, n)})))
    for norm in rng.sample(corpus, len(corpus)):
        for k in range(4):
            queries.append(ex.point_in_time(Query("at", {
                "target": norm.urn, "at": _lifetime_day(rng, norm, "", (k, 4)).isoformat()})))
    # Alias resolution through the case-folding fallback.
    norm = rng.choice(corpus)
    queries.append(ex.point_in_time(Query("at", {
        "target": norm.urn, "at": _lifetime_day(rng, norm, "").isoformat()})))
    queries[-1].mapping["target"] = f"statute {norm.seed}"
    # Deliberate errors.
    before = (first - timedelta(days=400)).isoformat()
    queries += [
        Query("at", {"target": "Consolidated Code", "at": some_day()}, outcome="AmbiguousAlias"),
        Query("at", {"target": "no-such-statute", "at": some_day()}, outcome="UnknownAlias"),
        ex.point_in_time(Query("at", {"target": norm.urn, "at": before})),
        ex.impact(Query("impact", {"theme": themes[0]["label"],
                                   "between": [before,
                                               (first - timedelta(days=35)).isoformat()]})),
        ex.retrieve(Query("retrieve", {"theme": themes[0]["label"], "text": _words(rng, 2),
                                       "at": before})),
    ]
    ex.finish()
    return Workload(corpus, queries, cold=_narrow_answers(queries, 4), themes=themes,
                    translations=[_translation(n) for n in corpus[::4]])


def query_deep(seed: int, norms: int | None = None) -> Workload:
    corpus = _norms_of_size(seed * 100_000 + 40_000, None, norms or QUERY_DEEP_NORMS,
                            max_components=QUERY_DEEP_COMPONENTS,
                            min_components=QUERY_DEEP_COMPONENTS,
                            max_events=QUERY_DEEP_EVENTS, min_events=QUERY_DEEP_EVENTS)
    rng = random.Random(seed * 7_919 + 3)
    themes = [{"label": "Deep statutes", "description": "Every long-lived statute.",
               "members": [n.urn for n in corpus]}]
    ex = Expect(corpus, themes)
    queries: list[Query] = []
    # Each round queries one norm, in turn, in the next slice of its life and
    # on its next provision and article, which it retrieves in every mode.
    rounds = len(corpus) * (QUERY_DEEP_ROUNDS // len(corpus))
    for i in range(rounds):
        norm = corpus[i % len(corpus)]
        stratum = (i // len(corpus), rounds // len(corpus))
        queries += _narrow_queries(rng, ex, norm, MODES, stratum)
        queries.append(ex.point_in_time(Query("at", {
            "target": norm.urn, "at": _lifetime_day(rng, norm, "", stratum).isoformat()})))
        # Each norm alternates between norm-wide and article impact.
        fragment = "" if stratum[0] % 2 else _pick(rng, norm, "article", stratum[0] // 2)
        t1 = _lifetime_day(rng, norm, fragment, stratum)
        for policy in POLICIES:
            queries.append(ex.impact(Query("impact", {
                "target": _urn(norm, fragment), "membership": policy, "between": _window(t1)})))
    queries.append(ex.point_in_time(Query("at", {
        "theme": themes[0]["label"], "at": _lifetime_day(rng, corpus[0], "").isoformat()})))
    for norm in _with_repeals(corpus)[:2]:
        queries += _error_queries(rng, ex, norm)
    ex.finish()
    return Workload(corpus, queries, cold=_narrow_answers(queries, 4), themes=themes,
                    translations=[_translation(corpus[0])])


WORKLOADS = {"ingest-cold": ingest_cold, "query-wide": query_wide, "query-deep": query_deep}
# Set-ups per run; setup_s is their median.  ingest-cold's one set-up is
# already most of its run: its ingest and load are what it measures.
SETUPS = {"ingest-cold": 1, "query-wide": 3, "query-deep": 3}
