"""Command-line surface: ingest corpora, run queries, evaluate against truth.

Exit codes: 0 success, 2 query error, 3 data error, 4 eval threshold
failure. All commands are deterministic when ``--clock`` pins the date;
no command reads the system time if it is supplied.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path

from . import evaluation, fixture_corpus, ingest, planner, store as store_mod
from .errors import DataError, NormGraphError, QueryError
from .model import validate_graph

ENV_SNAPSHOT = "NORMGRAPH_SNAPSHOT"
DEFAULT_SNAPSHOT = "graph.snapshot.ndjson"

EXIT_OK = 0
EXIT_QUERY = 2
EXIT_DATA = 3
EXIT_THRESHOLD = 4


def _snapshot_path(value: str | None) -> str:
    return value or os.environ.get(ENV_SNAPSHOT) or DEFAULT_SNAPSHOT


def _dash(value: str) -> str:
    return value.replace("-", "_")


def _error_record(exc: NormGraphError) -> str:
    detail = {
        key: (value.isoformat() if isinstance(value, date) else value)
        for key, value in vars(exc).items()
        if isinstance(value, (str, int, float, bool, date)) or value is None
    }
    record = {"error": {"type": type(exc).__name__, "message": str(exc), **detail}}
    return json.dumps(record, sort_keys=True, indent=2, ensure_ascii=False)


def _add_query_flags(parser: argparse.ArgumentParser, *, term: bool = False,
                     text: bool = False) -> None:
    parser.add_argument("--snapshot", help="snapshot path (default: $NORMGRAPH_SNAPSHOT)")
    parser.add_argument("--target", help="work urn, alias, or fragment")
    parser.add_argument("--theme", help="theme id or label")
    if term:
        parser.add_argument("--term", required=True, help="text span to trace")
    if text:
        parser.add_argument("--text", required=True, help="query text to rank against")
        parser.add_argument("--mode", choices=["vector", "lexical", "hybrid"],
                            default="vector")
        parser.add_argument("--aspects",
                            help="comma list: content,action_description,metadata,theme_description")
        parser.add_argument("--include-future-actions", action="store_true")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--at", metavar="DATE", help="evaluation instant (YYYY-MM-DD)")
    group.add_argument("--between", nargs=2, metavar=("D1", "D2"),
                       help="evaluation interval (YYYY-MM-DD dates)")
    parser.add_argument("--policy", choices=["snapshot-last", "snapshot-first"],
                        default="snapshot-last")
    parser.add_argument("--membership",
                        choices=["snapshot-anchored", "action-time", "lifetime"],
                        default="snapshot-anchored")
    parser.add_argument("--lang", help="requested language (default: norm primary)")
    parser.add_argument("--no-fallback", action="store_true",
                        help="disable language fallback")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--json", action="store_true", help="emit the machine-readable annex")
    parser.add_argument("--clock", metavar="DATE", help="injected current date")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgraph",
        description="Deterministic temporal knowledge-graph engine for versioned documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build a snapshot from a corpus directory")
    p_ingest.add_argument("corpus_dir")
    p_ingest.add_argument("--out", help="snapshot output path (default: $NORMGRAPH_SNAPSHOT)")

    p_query = sub.add_parser("query", help="run a query against a snapshot")
    q_sub = p_query.add_subparsers(dest="pattern", required=True)
    _add_query_flags(q_sub.add_parser("at", help="point-in-time reconstruction"))
    _add_query_flags(q_sub.add_parser("impact", help="hierarchical impact analysis"))
    _add_query_flags(q_sub.add_parser("provenance", help="causal lineage of a text span"),
                     term=True)
    _add_query_flags(q_sub.add_parser("retrieve", help="scoped ranked retrieval"),
                     text=True)

    p_eval = sub.add_parser("eval", help="score planner answers against a truth file")
    p_eval.add_argument("--snapshot", help="snapshot path (default: $NORMGRAPH_SNAPSHOT)")
    p_eval.add_argument("--truth", required=True, help="*.sattruth.json file")
    p_eval.add_argument("--min", type=float, default=None,
                        help="fail (exit 4) if any metric is below this value")
    p_eval.add_argument("--report", help="write the JSON metric report here")
    p_eval.add_argument("--clock", metavar="DATE", help="injected current date")

    p_fixture = sub.add_parser("fixture", help="write the reference corpus files")
    p_fixture.add_argument("--out", default="fixtures", help="destination directory")
    return parser


_PATTERNS = {
    "at": planner.QueryPattern.POINT_IN_TIME,
    "impact": planner.QueryPattern.IMPACT_ANALYSIS,
    "provenance": planner.QueryPattern.PROVENANCE,
    "retrieve": planner.QueryPattern.RETRIEVE,
}


def _cmd_ingest(args: argparse.Namespace) -> int:
    out = _snapshot_path(args.out)
    graph, summary = ingest.ingest_corpus(args.corpus_dir)
    violations = validate_graph(graph)
    if violations:
        for violation in violations:
            print(f"violation: {violation}", file=sys.stderr)
        return EXIT_DATA
    store_mod.save(graph, out)
    print(
        f"ingested {summary.documents} document(s), {summary.events} event(s), "
        f"{summary.themes} theme(s), {summary.translations} translation(s)"
    )
    counts = " ".join(f"{key}={value}" for key, value in sorted(summary.counts.items()))
    print(f"nodes: {counts}")
    print("validation: clean")
    print(f"snapshot: {out}")
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    graph = store_mod.load(_snapshot_path(args.snapshot))
    mapping: dict = {}
    if args.target:
        mapping["target"] = args.target
    if args.theme:
        mapping["theme"] = args.theme
    if args.at:
        mapping["at"] = args.at
    if args.between:
        mapping["between"] = list(args.between)
        mapping["policy"] = _dash(args.policy)
    if getattr(args, "term", None):
        mapping["term"] = args.term
    if getattr(args, "text", None):
        mapping["text"] = args.text
        mapping["mode"] = args.mode
        if args.aspects:
            mapping["aspects"] = [_dash(a.strip()) for a in args.aspects.split(",") if a.strip()]
        mapping["include_future_actions"] = args.include_future_actions
    mapping["membership"] = _dash(args.membership)
    if args.lang:
        mapping["lang"] = args.lang
    mapping["k"] = args.k
    mapping["language_fallback"] = not args.no_fallback
    query = evaluation.build_query(_PATTERNS[args.pattern], mapping)
    clock = evaluation.query_date(args.clock) if args.clock else date.today()
    answer = planner.run(graph, query, clock)
    if args.json:
        sys.stdout.write(answer.annex_json())
    else:
        print(answer.rendered_text)
        print(planner.policies_footer(answer.policies))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    graph = store_mod.load(_snapshot_path(args.snapshot))
    truth = evaluation.load_truth(args.truth)
    clock = evaluation.query_date(args.clock) if args.clock else None
    report = evaluation.evaluate(graph, truth, clock=clock)
    print(report.table())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.metrics, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"report: {args.report}")
    if args.min is not None and any(m < args.min for m in report.scored_metrics()):
        print(f"threshold failure: at least one metric below {args.min}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_fixture(args: argparse.Namespace) -> int:
    written = fixture_corpus.build_fixture_corpus(args.out)
    for path in written:
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    emit_json = bool(getattr(args, "json", False))
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "fixture":
            return _cmd_fixture(args)
        raise AssertionError(f"unhandled command {args.command}")
    except QueryError as exc:
        if emit_json:
            print(_error_record(exc))
        else:
            print(f"query error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except DataError as exc:
        if emit_json:
            print(_error_record(exc))
        else:
            print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
