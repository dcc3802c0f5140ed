"""Spans and counters recorded around calls into normgraph's layers.

Tracing wraps functions at the module attribute where their caller looks
them up (``normgraph.planner.resolve_scope`` for the planner's calls, and so
on), so the engine itself is unchanged.  Each span records its name, start,
end, parent span and query id; spans stay in memory and are written when the
process ends.  Hot inner calls are counted, not spanned.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name) of every spanned function.
_SPANNED = [
    ("normgraph.ingest", "ingest_corpus", "ingest.ingest_corpus"),
    ("normgraph.ingest", "parse_document", "ingest.parse"),
    ("normgraph.ingest", "parse_event_file", "ingest.parse"),
    ("normgraph.ingest", "parse_translation_file", "ingest.parse"),
    ("normgraph.ingest", "enact", "ingest.enact"),
    ("normgraph.ingest", "apply_event", "ingest.apply_event"),
    ("normgraph.ingest", "render_action_text", "ingest.render_action_text"),
    ("normgraph.ingest", "textualize_metadata", "ingest.textualize_metadata"),
    ("normgraph.ingest", "add_language", "ingest.add_language"),
    ("normgraph.ingest", "define_theme", "themes.define_theme"),
    ("normgraph.cli", "validate_graph", "model.validate_graph"),
    ("normgraph.store", "validate_graph", "model.validate_graph"),
    ("normgraph.store", "save", "store.save"),
    ("normgraph.store", "load", "store.load"),
    ("normgraph.planner", "run", "planner.run"),
    ("normgraph.planner", "canonicalize", "planner.canonicalize"),
    ("normgraph.temporal", "ctv_at", "temporal.ctv_at"),
    ("normgraph.themes", "theme_scope", "themes.theme_scope"),
]
# Hot inner calls: counted only.
_COUNTED = [
    ("normgraph.planner", "alive_at", "temporal.alive_at"),
    ("normgraph.temporal", "alive_at", "temporal.alive_at"),
    ("normgraph.retrieval", "tokenize", "retrieval.tokenize"),
    ("normgraph.retrieval", "cosine", "retrieval.cosine"),
]


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent index, query id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after`` may add counts."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.query_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(counts, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer boundary of the already-importable engine."""
        import importlib

        from normgraph import planner, retrieval, store

        for module_name, attribute, name in _SPANNED:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, self.span(name, getattr(module, attribute),
                                                     _AFTER.get(name)))
        for module_name, attribute, name in _COUNTED:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, self.counter(name, getattr(module, attribute)))
        self._patch(store.GraphStore, "commit", self.span("store.commit", store.GraphStore.commit))
        self._patch(retrieval.HashedTfidfEmbedder, "embed",
                    self.span("retrieval.embed", retrieval.HashedTfidfEmbedder.embed))
        self._patch(planner, "resolve_scope",
                    self.span("temporal.resolve_scope", planner.resolve_scope, _count_scope))
        self._patch(planner, "snapshot_fragments",
                    self.span("temporal.snapshot_fragments", planner.snapshot_fragments,
                              _count_fragments))
        self._patch(planner, "locate_spans",
                    self.span("retrieval.locate_spans", planner.locate_spans, _count_spans))
        by_mode = {
            mode: self.span(f"retrieval.scoped_search.{mode.value}", planner.scoped_search,
                            _count_search)
            for mode in retrieval.RetrievalMode
        }
        self._patch(planner, "scoped_search",
                    lambda store_, request: by_mode[request.mode](store_, request))
        # The planner dispatches through this table, not through module names.
        runners = planner._RUNNERS
        for pattern, runner in list(runners.items()):
            self._restore.append((runners, pattern, runner))
            runners[pattern] = self.span(f"planner.{pattern.value}", runner)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str, process: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"process": process, "id": index, "name": name,
                                     "start_ns": start, "end_ns": end, "parent": parent,
                                     "query": query}))
                fh.write("\n")

    def layer_summary(self) -> dict:
        """Per span name: total self time, median self time per call, calls."""
        child_time = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ns: dict[str, list[int]] = defaultdict(list)
        inclusive_ns: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name].append(end - start - child_time[index])
            inclusive_ns[name] += end - start
        return {
            "spans": {name: {"self_s": sum(v) / 1e9,
                             "median_ms": statistics.median(v) / 1e6,
                             "inclusive_s": inclusive_ns[name] / 1e9,
                             "calls": len(v)} for name, v in self_ns.items()},
            "counts": dict(self.counts),
        }


def _count_scope(counts, result, args, kwargs) -> None:
    counts["temporal.resolve_scope.works"] += len(result)


def _count_fragments(counts, result, args, kwargs) -> None:
    counts["temporal.snapshot_fragments.fragments"] += len(result)


def _count_chain(counts, result, args, kwargs) -> None:
    store, work = args[0], args[1]
    counts["temporal.ctv_at.chain_versions"] += len(store.versions.get(work, ()))


def _count_spans(counts, result, args, kwargs) -> None:
    store, scope = args[0], args[2]
    counts["retrieval.locate_spans.scope_versions"] += sum(
        len(store.versions.get(urn, ())) for urn in set(scope))
    counts["retrieval.locate_spans.spans"] += len(result)


def _count_search(counts, result, args, kwargs) -> None:
    counts["retrieval.scoped_search.scope_works"] += len(args[1].scope)


_AFTER = {"temporal.ctv_at": _count_chain}
