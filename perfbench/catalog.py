"""What each metric means and where it comes from.

``BENCHMARK.json`` holds every metric's name, unit, direction and bound;
this module holds only what that file has no key for: each metric's
meaning, where the traced run reads each per-layer metric, which end-to-end
metric on which workload it is expected to move, the tail percentile per
workload, and notes stamped into every results file.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "ingest the generated corpus in a child, load the snapshot in the query child "
               "and run the warm-up pass; median of the run's set-ups",
    "ingest_s": "scaled wall time of a fresh `normgraph ingest <dir> --out <snap>` child; "
                "median of the run's set-ups",
    "snapshot_mb": "bytes of the written snapshot / 1e6",
    "cold_query_s": "scaled wall time of fresh `normgraph query ... --json --clock` children "
                    "on narrow targets, which load dominates; median of the run's children",
    "ingest_rss_mb": "peak RSS of the ingest child",
    "query_rss_mb": "peak RSS of the child that holds the loaded store and runs the query mix",
    "query_ops_s": "closed-loop, single-client throughput of the whole fixed query mix: "
                   "queries / summed query time",
    "at_p50_ms": "point-in-time latency, median",
    "at_tail_ms": "point-in-time latency at the workload's tail percentile",
    "impact_p50_ms": "impact-analysis latency, median",
    "impact_tail_ms": "impact-analysis latency at the tail percentile",
    "provenance_p50_ms": "provenance latency, median",
    "provenance_tail_ms": "provenance latency at the tail percentile",
    "retrieve_p50_ms": "scoped retrieval latency, median",
    "retrieve_tail_ms": "scoped retrieval latency at the tail percentile",
}

# Printed with the others and written to the results file.  It is not in
# BENCHMARK.json because it is 0 on a correct run, and the result line already
# carries it as failed / attempted.
FAILED_OPS = ("failed_ops_ratio", "ratio", "failed / attempted queries")

# *_tail_ms is this percentile, chosen so that every run at the commit that
# defined the benchmark left at least ten samples beyond it (query-wide's
# slowest pattern gets only ~100-170 samples a run).
TAIL_PERCENTILE = {"ingest-cold": 90, "query-wide": 75, "query-deep": 95}

# ingest-cold (~125 norms of the ROADMAP item-1 shape at narrow targets, so
# ingest, codec and load dominate) runs by name, and with --norms 400 it is
# the ROADMAP reference corpus.  BENCHMARK.json does not list it because, on a
# shared 2-core host, its runs did not repeat within the bounds in the ~45 s a
# run may take; every layer it measures is measured on the listed workloads.

_ING = "ingest_s@all setup_s@all"
_LOAD = "cold_query_s@all setup_s@all"
_AT = "at_p50_ms@query-deep at_tail_ms@query-deep"
_IMPACT = "impact_p50_ms@query-deep impact_tail_ms@query-deep"
_PROV = "provenance_p50_ms@query-wide provenance_tail_ms@query-wide"
_RETR = "retrieve_p50_ms@query-wide retrieve_tail_ms@query-wide"

# name: (source, key, field, moves).
# source: ingest / load / loop child traces (span or counter key) or "run"
# (computed by run.py under the metric's own name).  Loop sums are per pass
# of the query mix, so they do not grow with the number of passes a run fits.
PER_LAYER = {
    "ingest.parse_s": ("ingest", "ingest.parse", "self_s", _ING),
    "ingest.enact_s": ("ingest", "ingest.enact", "self_s", _ING),
    "ingest.enact.calls": ("ingest", "ingest.enact", "calls", _ING),
    "ingest.apply_event_s": ("ingest", "ingest.apply_event", "self_s", _ING),
    "ingest.apply_event.median_ms": ("ingest", "ingest.apply_event", "median_ms", _ING),
    "ingest.apply_event.calls": ("ingest", "ingest.apply_event", "calls", _ING),
    "ingest.render_action_text_s": ("ingest", "ingest.render_action_text", "self_s", _ING),
    "ingest.render_action_text.calls": ("ingest", "ingest.render_action_text", "calls", _ING),
    "ingest.textualize_metadata_s": ("ingest", "ingest.textualize_metadata", "self_s", _ING),
    "ingest.add_language_s": ("ingest", "ingest.add_language", "self_s", _ING),
    "ingest.self_s": ("ingest", "ingest.ingest_corpus", "self_s", _ING),
    "themes.define_theme_s": ("ingest", "themes.define_theme", "self_s", _ING),
    "store.commit_s": ("ingest", "store.commit", "self_s", _ING),
    "retrieval.embed_s": ("ingest", "retrieval.embed", "self_s", _ING),
    "retrieval.embed.median_ms": ("ingest", "retrieval.embed", "median_ms", _ING),
    "retrieval.embed.calls": ("ingest", "retrieval.embed", "calls", _ING),
    "model.validate_graph.ingest_s": ("ingest", "model.validate_graph", "self_s", _ING),
    "store.save_s": ("ingest", "store.save", "self_s", "ingest_s@all"),
    "store.snapshot_bytes.work": ("run", "", "", "snapshot_mb@all"),
    "store.snapshot_bytes.ctv": ("run", "", "", "snapshot_mb@all"),
    "store.snapshot_bytes.clv": ("run", "", "", "snapshot_mb@all"),
    "store.snapshot_bytes.action": ("run", "", "", "snapshot_mb@all"),
    "store.snapshot_bytes.theme": ("run", "", "", "snapshot_mb@all"),
    "store.snapshot_bytes.unit":
        ("run", "", "", "snapshot_mb@all; unit records without their embedding"),
    "store.snapshot_bytes.embedding": ("run", "", "", "snapshot_mb@all"),
    "store.load_s": ("load", "store.load", "inclusive_s", _LOAD),
    "model.validate_graph_s": ("load", "model.validate_graph", "self_s", _LOAD),
    "store.load.rest_s": ("load", "store.load", "self_s", _LOAD + "; never any *_ms metric"),
    "store.load_rss_mb": ("run", "", "", "query_rss_mb@all"),
    "store.nodes.works": ("run", "", "", "snapshot_mb@all"),
    "store.nodes.ctvs": ("run", "", "", "snapshot_mb@all"),
    "store.nodes.clvs": ("run", "", "", "snapshot_mb@all"),
    "store.nodes.actions": ("run", "", "", "snapshot_mb@all"),
    "store.nodes.themes": ("run", "", "", "snapshot_mb@all"),
    "store.nodes.units": ("run", "", "", "snapshot_mb@all"),
    "store.content_units.duplicate_ratio": ("run", "", "", "snapshot_mb@all query_rss_mb@all"),
    "cli.import_s": ("run", "", "", "cold_query_s@all"),
    "planner.canonicalize_s": ("loop", "planner.canonicalize", "self_s", "at_p50_ms@query-deep"),
    "planner.canonicalize.median_ms":
        ("loop", "planner.canonicalize", "median_ms", "at_p50_ms@query-deep"),
    "planner.self_s.point_in_time": ("loop", "planner.point_in_time", "self_s", "at_p50_ms@all"),
    "planner.self_s.impact_analysis":
        ("loop", "planner.impact_analysis", "self_s", "impact_p50_ms@all"),
    "planner.self_s.provenance": ("loop", "planner.provenance", "self_s", "provenance_p50_ms@all"),
    "planner.self_s.retrieve": ("loop", "planner.retrieve", "self_s", "retrieve_p50_ms@all"),
    "temporal.ctv_at_s": ("loop", "temporal.ctv_at", "self_s", _AT),
    "temporal.ctv_at.median_ms": ("loop", "temporal.ctv_at", "median_ms", _AT),
    "temporal.ctv_at.chain_versions": ("loop", "temporal.ctv_at.chain_versions", "count", _AT),
    "temporal.snapshot_fragments_s": ("loop", "temporal.snapshot_fragments", "self_s", _AT),
    "temporal.snapshot_fragments.fragments":
        ("loop", "temporal.snapshot_fragments.fragments", "count", _AT),
    "temporal.resolve_scope_s": ("loop", "temporal.resolve_scope", "self_s", _IMPACT),
    "temporal.resolve_scope.median_ms": ("loop", "temporal.resolve_scope", "median_ms", _IMPACT),
    "temporal.resolve_scope.works": ("loop", "temporal.resolve_scope.works", "count", _IMPACT),
    "temporal.alive_at.calls": ("loop", "temporal.alive_at.calls", "count", _IMPACT),
    "themes.theme_scope_s":
        ("loop", "themes.theme_scope", "self_s", "at_p50_ms@query-wide impact_p50_ms@query-wide"),
    "retrieval.locate_spans_s": ("loop", "retrieval.locate_spans", "self_s", _PROV),
    "retrieval.locate_spans.median_ms": ("loop", "retrieval.locate_spans", "median_ms", _PROV),
    "retrieval.locate_spans.scope_versions":
        ("loop", "retrieval.locate_spans.scope_versions", "count", _PROV),
    "retrieval.locate_spans.hit_ratio":
        ("run", "", "", _PROV + "; spans found / versions scanned"),
    "retrieval.tokenize.calls": ("loop", "retrieval.tokenize.calls", "count", _PROV),
    "retrieval.scoped_search_s.vector":
        ("loop", "retrieval.scoped_search.vector", "self_s", _RETR),
    "retrieval.scoped_search_s.lexical":
        ("loop", "retrieval.scoped_search.lexical", "self_s", _RETR),
    "retrieval.scoped_search_s.hybrid":
        ("loop", "retrieval.scoped_search.hybrid", "self_s", _RETR),
    "retrieval.scoped_search.scope_works":
        ("loop", "retrieval.scoped_search.scope_works", "count", _RETR),
    "retrieval.cosine.calls": ("loop", "retrieval.cosine.calls", "count", _RETR),
    "runtime.gc_gen2_collections": ("run", "", "", "*_tail_ms@query-wide query_ops_s@query-wide"),
    "tracing.overhead_ratio":
        ("run", "", "", "none: median traced / median untraced pass of the mix, over "
                        "alternating pairs, minus 1"),
}

NOTES = {
    "instrument_ids": (
        "The generator qualifies instrument urns and short titles with the norm's seed "
        "(ROADMAP item 1 caveat). Unqualified, instruments of different norms collide on "
        "action ids; that omnibus defect is ROADMAP item 4's to test, not hidden here."),
    "reference_corpus": (
        "`run.py --workload ingest-cold --seed 0 --norms 400` ingests norms 0..399 of the "
        "generate_corpus(seed, 60, 80) shape: 31,039 works, 58,368 CTVs, 26,416 CLVs, "
        "16,066 actions, 42,882 units. Without --norms, ingest-cold is ~125 norms; it is not "
        "one of BENCHMARK.json's workloads (see WORKLOADS)."),
    "timings": (
        "Timings are those of the host that ran them (see each results file's cpu_model and "
        "nproc): page cache warm, one client, no claim about device I/O. Every end-to-end "
        "time is scaled by the host's speed, sampled while it was measured by a pace kernel "
        "that calls no engine code, to the speed at which that kernel takes "
        "pace.REFERENCE_S (see pace.py); results files keep the unscaled times as well. "
        "Per-layer times are not scaled, and include the pace kernel's runs (under 3%)."),
    "load": (
        "Closed loop, one client, no think time; child processes run one at a time. "
        "The garbage collector is left in its default state."),
}
