"""Child processes of the benchmark; each runs in a fresh interpreter.

    worker.py loop PLAN.json             load a snapshot, run the query mix, check it
    worker.py cli OUT.json SPANS -- ARGS run ``normgraph ARGS``, traced unless SPANS is -
    worker.py import OUT.json            time ``import normgraph.cli`` alone

Each writes a JSON result file for the parent; the parent reads each child's
peak RSS from its own rusage.  The loop and cli children sample the host's
speed while they run (see pace.py) and report their times scaled by it.  The
engine is imported from ``src`` through ``PYTHONPATH``, which the parent sets.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from datetime import date

from pace import Pace

PATTERNS = ("at", "impact", "provenance", "retrieve")
# Untraced / traced pass pairs behind tracing.overhead_ratio.
OVERHEAD_PAIRS = 3


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _tracer(spans_path: str | None):
    if not spans_path:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def cli(out: str, spans_path: str, argv: list[str]) -> int:
    pace = Pace().start()
    tracer = _tracer(None if spans_path == "-" else spans_path)
    from normgraph import cli as cli_mod

    code = cli_mod.main(argv)
    pace.stop()
    result = {"scaled_ratio": pace.ratio(pace.starts[0], pace.stopped), "pace": pace.summary()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path, argv[0])
        result["layers"] = tracer.layer_summary()
    _write(out, result)
    return code


def import_only(out: str) -> int:
    started = time.perf_counter()
    import normgraph.cli  # noqa: F401

    _write(out, {"import_s": time.perf_counter() - started})
    return 0


class Runner:
    """Runs and checks queries against one loaded store."""

    def __init__(self, store, plan: dict, pace: Pace):
        import jsonschema
        from importlib import resources

        from normgraph import evaluation, planner
        from normgraph.errors import NormGraphError
        from normgraph.planner import QueryPattern

        schema = json.loads(resources.files("normgraph").joinpath("annex.schema.json")
                            .read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)
        self.store = store
        self.planner = planner
        self.error_type = NormGraphError
        self.clock = date.fromisoformat(plan["clock"])
        patterns = {"at": QueryPattern.POINT_IN_TIME, "impact": QueryPattern.IMPACT_ANALYSIS,
                    "provenance": QueryPattern.PROVENANCE, "retrieve": QueryPattern.RETRIEVE}
        self.queries = plan["queries"]
        self.structured = [evaluation.build_query(patterns[q["pattern"]], q["mapping"])
                           for q in self.queries]
        self.first: list[str | None] = [None] * len(self.queries)
        # Later set-ups of a run only have to repeat the first one's answers,
        # which the parent compares by digest.
        self.verify = plan["verify"]
        self.failures: list[str] = []
        self.attempted = 0
        self.pace = pace
        # When the last query started; its time is scaled by the host's speed then.
        self.started = 0.0

    def execute(self, index: int):
        """Run one query; returns (seconds, annex JSON, citations or None, outcome class).

        The seconds leave out any pace kernel run that interrupted the query.
        """
        query = self.structured[index]
        spent = self.pace.spent
        self.started = started = time.perf_counter()
        try:
            answer = self.planner.run(self.store, query, self.clock)
        except self.error_type as exc:
            seconds = time.perf_counter() - started - (self.pace.spent - spent)
            outcome = type(exc).__name__
            return seconds, json.dumps({"error": outcome}), None, outcome
        seconds = time.perf_counter() - started - (self.pace.spent - spent)
        return seconds, answer.annex_json(), answer.citations, "Answer"

    def check(self, index: int, text: str, citations, outcome: str, first_pass: bool) -> None:
        """Count the query and every way its result can be wrong."""
        self.attempted += 1
        spec = self.queries[index]
        if not first_pass:
            if text != self.first[index]:
                self.failures.append(f"query {index}: answer changed between passes")
            return
        self.first[index] = text
        if not self.verify:
            return
        problems = []
        if outcome != spec["outcome"]:
            problems.append(f"outcome {outcome}, expected {spec['outcome']}")
        if citations is not None:
            errors = [e.message for e in self.validator.iter_errors(json.loads(text))]
            if errors:
                problems.append(f"annex fails schema: {errors[0]}")
            if spec["texts"] is not None:
                store = self.store
                cited = [[work, store.units[store.clvs[clv].text_unit].text]
                         for work, _, clv in citations]
                if cited != spec["texts"]:
                    problems.append("cited texts differ from the replay oracle")
        self.failures += [f"query {index} ({spec['pattern']}): {p}" for p in problems]

    def run(self, index: int):
        """``execute``, or None once any other exception is counted as a failure."""
        try:
            return self.execute(index)
        except Exception as exc:
            self.attempted += 1
            self.failures.append(f"query {index}: {type(exc).__name__}: {exc}")
            return None

    def run_checked(self, index: int, first_pass: bool):
        """(start, seconds) of the query once it is checked, or None if it raised."""
        got = self.run(index)
        if got is None:
            return None
        self.check(index, *got[1:], first_pass)
        return self.started, got[0]


def _duplicate_ratio(store) -> float:
    """Share of content units whose text repeats the previous version's, same language."""
    copies = total = 0
    for chain in store.versions.values():
        previous: dict[str, str] = {}
        for cid in chain:
            current = {}
            for language, lv_id in store.clvs_by_ctv.get(cid, {}).items():
                text = store.units[store.clvs[lv_id].text_unit].text
                current[language] = text
                total += 1
                copies += previous.get(language) == text
            previous = current
    return copies / total if total else 0.0


def loop(plan_path: str) -> int:
    pace = Pace().start()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = _tracer(plan["spans"])
    from normgraph import store as store_mod

    store = store_mod.load(plan["snapshot"])
    result: dict = {"load_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    runner = Runner(store, plan, pace)
    n = len(runner.queries)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(plan["spans"], "load")
        result["load_layers"] = tracer.layer_summary()
        tracer.spans.clear()
    # Untimed warm-up pass, checked once the child is ready so that setup_s
    # holds no checking; every later pass must repeat its answers exactly.
    warm = [runner.run(i) for i in range(n)]
    result["ready_at"] = time.monotonic()
    ready = time.perf_counter()
    for i, got in enumerate(warm):
        if got is not None:
            runner.check(i, *got[1:], first_pass=True)
    del warm
    digest = hashlib.sha256()
    for text in runner.first:
        digest.update((text or "").encode("utf-8"))
    result["annex_digest"] = digest.hexdigest()
    result["cold"] = {str(i): runner.first[i] for i in plan["cold"]}

    if tracer is not None:
        # Tracing overhead: untraced and traced passes over the mix, taken in
        # turn so that drift in the host's speed reaches both alike.
        def one_pass() -> list[tuple[float, float]]:
            return [t for t in (runner.run_checked(i, False) for i in range(n)) if t is not None]

        untraced, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            untraced.append(one_pass())
            tracer.install()
            traced.append(one_pass())
            tracer.uninstall()
        tracer.install()
        tracer.spans.clear()
        tracer.counts.clear()
    latencies: list[tuple[int, float, float]] = []
    gen2_before = gc.get_stats()[2]["collections"]
    deadline = time.perf_counter() + plan["seconds"]
    passes = 0
    # Whole passes only, so every pass has the same mix of patterns; at least
    # two, so every percentile is defined.
    while passes < 2 or time.perf_counter() < deadline:
        for i in range(n):
            if tracer is not None:
                tracer.query_id = f"{passes}:{i}"
            timed = runner.run_checked(i, first_pass=False)
            if timed is not None:
                latencies.append((i, *timed))
        passes += 1
    result["gc_gen2_collections"] = gc.get_stats()[2]["collections"] - gen2_before
    pace.stop()
    result["passes"] = passes
    # Every time is scaled by the host's speed around the moment it was taken.
    result["setup_ratio"] = pace.ratio(pace.starts[0], ready)
    result["latencies_ms"] = {p: [] for p in PATTERNS}
    result["unscaled_ms"] = {p: [] for p in PATTERNS}
    for i, started, seconds in latencies:
        pattern = runner.queries[i]["pattern"]
        result["latencies_ms"][pattern].append(seconds * pace.factor_at(started) * 1000.0)
        result["unscaled_ms"][pattern].append(seconds * 1000.0)
    if tracer is not None:
        def total(timed: list[tuple[float, float]]) -> float:
            return sum(seconds * pace.factor_at(started) for started, seconds in timed)

        result["pass_untraced_s"] = [total(each) for each in untraced]
        result["pass_traced_s"] = [total(each) for each in traced]
        tracer.uninstall()
        tracer.write_spans(plan["spans"], "loop")
        result["layers"] = tracer.layer_summary()
        result["duplicate_ratio"] = _duplicate_ratio(store)
    result["pace"] = pace.summary()
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    _write(plan["result"], result)
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "loop":
        return loop(argv[1])
    if argv[0] == "cli":
        return cli(argv[1], argv[2], argv[4:])
    if argv[0] == "import":
        return import_only(argv[1])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
