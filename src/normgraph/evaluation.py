"""Quantitative evaluation against ground-truth query files.

Ground truth lives in ``*.sattruth.json``: per-query expected temporal
version ids (point-in-time), expected (action, work) pairs (impact), and
expected ordered action chains (provenance). Metrics are pure functions
over id sets so they stay order-insensitive and trivially parallel.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

from .errors import MalformedInput, MismatchedQueryIds, decode_input, json_field
from .model import Record, parse_iso_date
from .planner import Answer, QueryPattern, build_query, query_date, run  # noqa: F401 (re-export)
from .store import GraphStore

TRUTH_SUFFIX = ".sattruth.json"
FORMAT_VERSION = 1


class TruthQuery(Record):
    __slots__ = ("id", "pattern", "query", "expected_ctvs", "expected_actions", "expected_chains")

    def __init__(self, id: str, pattern: QueryPattern, query: dict,
                 expected_ctvs: frozenset[str] = frozenset(),
                 expected_actions: frozenset[tuple[str, str]] = frozenset(),
                 expected_chains: tuple[tuple[str, ...], ...] = ()) -> None:
        self._assign(id, pattern, query, expected_ctvs, expected_actions, expected_chains)


class GroundTruth(Record):
    __slots__ = ("queries", "clock")

    def __init__(self, queries: tuple[TruthQuery, ...], clock: date | None = None) -> None:
        self._assign(queries, clock)


def parse_truth_file(source: str | bytes | dict, path: str | None = None) -> GroundTruth:
    data = decode_input(source, path, FORMAT_VERSION)
    queries = []
    for item in json_field(data, "queries", path, list, ()):
        qid = json_field(item, "id", path)
        try:
            pattern = QueryPattern(json_field(item, "pattern", path))
        except ValueError:
            raise MalformedInput(f"bad pattern in query {qid!r}", path) from None
        actions = json_field(item, "expected_actions", path, list, (), list)
        if not all(len(pair) == 2 and {*map(type, pair)} == {str} for pair in actions):
            raise MalformedInput(
                f"expected_actions of query {qid!r} must be [action, work] pairs", path)
        queries.append(TruthQuery(
            id=qid,
            pattern=pattern,
            query=dict(json_field(item, "query", path, dict)),
            expected_ctvs=frozenset(json_field(item, "expected_ctvs", path, list, (), str)),
            expected_actions=frozenset(map(tuple, actions)),
            expected_chains=tuple(
                tuple(c) for c in json_field(item, "expected_chains", path, list, (), list)),
        ))
    clock = json_field(data, "clock", path, str, None)
    try:
        clock = parse_iso_date(clock) if clock else None
    except ValueError as exc:
        raise MalformedInput(f"clock: {exc}", path) from None
    return GroundTruth(queries=tuple(queries), clock=clock)


# -- metric primitives --------------------------------------------------------


def _check_ids(answers: dict, truth: dict) -> None:
    if set(answers) != set(truth):
        raise MismatchedQueryIds(set(truth) - set(answers), set(answers) - set(truth))


def temporal_precision_recall(
    answers: dict[str, "frozenset[str] | set[str]"],
    truth: dict[str, "frozenset[str] | set[str]"],
) -> tuple[float, float]:
    """Micro-averaged precision/recall over retrieved temporal version ids.

    An empty retrieval against non-empty truth scores precision 0.0 (not
    NaN) so CI thresholds stay simple; the degenerate case is flagged in
    the full report.
    """
    _check_ids(answers, truth)
    retrieved = {(qid, c) for qid, ctvs in answers.items() for c in ctvs}
    wanted = {(qid, c) for qid, ctvs in truth.items() for c in ctvs}
    hit = len(retrieved & wanted)
    if not retrieved:
        precision = 1.0 if not wanted else 0.0
    else:
        precision = hit / len(retrieved)
    recall = 1.0 if not wanted else hit / len(wanted)
    return precision, recall


def action_attribution_f1(
    answers: dict[str, "frozenset[tuple[str, str]] | set[tuple[str, str]]"],
    truth: dict[str, "frozenset[tuple[str, str]] | set[tuple[str, str]]"],
) -> float:
    """Micro F1 over (action id, target work) pairs."""
    _check_ids(answers, truth)
    retrieved = {(qid,) + pair for qid, pairs in answers.items() for pair in pairs}
    wanted = {(qid,) + pair for qid, pairs in truth.items() for pair in pairs}
    if not retrieved and not wanted:
        return 1.0
    hit = len(retrieved & wanted)
    precision = hit / len(retrieved) if retrieved else 0.0
    recall = hit / len(wanted) if wanted else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _lcs_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def chain_completeness(
    answers: dict[str, "list[tuple[str, ...]] | tuple"],
    truth: dict[str, "list[tuple[str, ...]] | tuple"],
) -> float:
    """Order-respecting fraction of truth chain elements reconstructed.

    Credit per truth chain is the longest common subsequence with the
    best-matching answer chain; a reversed two-element chain scores 0.5.
    Per-query scores are averaged.
    """
    _check_ids(answers, truth)
    if not truth:
        return 1.0
    scores: list[float] = []
    for qid in sorted(truth):
        truth_chains = [tuple(c) for c in truth[qid]]
        answer_chains = [tuple(c) for c in answers[qid]]
        total = sum(len(c) for c in truth_chains)
        if total == 0:
            scores.append(1.0)
            continue
        credit = 0
        for tc in truth_chains:
            credit += max((_lcs_length(tc, ac) for ac in answer_chains), default=0)
        scores.append(credit / total)
    return sum(scores) / len(scores)


def summary_completeness(
    answers: dict[str, "frozenset[tuple[str, str]] | set[tuple[str, str]]"],
    truth: dict[str, "frozenset[tuple[str, str]] | set[tuple[str, str]]"],
) -> float:
    """Fraction of ground-truth (action, work) pairs present in the annex."""
    _check_ids(answers, truth)
    wanted = {(qid,) + pair for qid, pairs in truth.items() for pair in pairs}
    if not wanted:
        return 1.0
    got = {(qid,) + pair for qid, pairs in answers.items() for pair in pairs}
    return len(wanted & got) / len(wanted)


# -- full harness ----------------------------------------------------------------


# The metrics a report scores, in the order its table lists them.
SCORED_METRICS = ("temporal_precision", "temporal_recall", "action_attribution_f1",
                  "chain_completeness", "summary_completeness")


class EvalReport:
    def __init__(self) -> None:
        self.metrics: dict[str, float | bool | int] = {}
        self.answers: dict[str, Answer] = {}

    def table(self) -> str:
        width = max(map(len, SCORED_METRICS))
        lines = [f"{'metric'.ljust(width)}  value", f"{'-' * width}  -----"]
        for name in SCORED_METRICS:
            lines.append(f"{name.ljust(width)}  {self.metrics[name]:.3f}")
        return "\n".join(lines)

    def scored_metrics(self) -> list[float]:
        return [float(self.metrics[name]) for name in SCORED_METRICS]


def evaluate(store: GraphStore, truth: GroundTruth, clock: date | None = None) -> EvalReport:
    """Run every truth query through the planner and score the answers."""
    clock = clock or truth.clock or date(2000, 1, 1)
    report = EvalReport()
    ctv_answers: dict[str, frozenset[str]] = {}
    ctv_truth: dict[str, frozenset[str]] = {}
    action_answers: dict[str, frozenset[tuple[str, str]]] = {}
    action_truth: dict[str, frozenset[tuple[str, str]]] = {}
    chain_answers: dict[str, list[tuple[str, ...]]] = {}
    chain_truth: dict[str, list[tuple[str, ...]]] = {}

    for tq in truth.queries:
        answer = run(store, build_query(tq.pattern, tq.query), clock)
        report.answers[tq.id] = answer
        if tq.pattern is QueryPattern.POINT_IN_TIME:
            ctv_answers[tq.id] = frozenset(
                c["ctv"] for c in answer.annex["citations"])
            ctv_truth[tq.id] = tq.expected_ctvs
        elif tq.pattern is QueryPattern.IMPACT_ANALYSIS:
            action_answers[tq.id] = frozenset(
                (a["action"], a["target"]) for a in answer.annex["actions"])
            action_truth[tq.id] = tq.expected_actions
        elif tq.pattern is QueryPattern.PROVENANCE:
            chain_answers[tq.id] = [tuple(c) for c in answer.annex["chains"]]
            chain_truth[tq.id] = [tuple(c) for c in tq.expected_chains]

    precision, recall = temporal_precision_recall(ctv_answers, ctv_truth)
    degenerate = any(not ctvs for ctvs in ctv_answers.values()) and any(
        ctvs for ctvs in ctv_truth.values())
    report.metrics = {
        "temporal_precision": precision,
        "temporal_recall": recall,
        "temporal_precision_degenerate": degenerate,
        "action_attribution_f1": action_attribution_f1(action_answers, action_truth),
        "chain_completeness": chain_completeness(chain_answers, chain_truth),
        "summary_completeness": summary_completeness(action_answers, action_truth),
        "queries": len(truth.queries),
    }
    return report


def load_truth(path: str | Path) -> GroundTruth:
    return parse_truth_file(Path(path).read_bytes(), path=str(path))
