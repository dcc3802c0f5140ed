"""Run one benchmark workload against the engine in ``src`` and print its metrics.

    python3 perfbench/run.py --workload query-wide --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The workload's corpus is generated from the
seed and written once.  Every set-up ingests it in a fresh ``normgraph ingest``
child and starts a fresh query child that loads the snapshot and runs one
untimed warm-up pass; each query child then runs its share of ``--seconds`` of
the fixed query mix, closed loop, and cold ``normgraph query`` children
follow.  The first set-up's answers are checked against what the generator
expects, and every later answer must repeat them (see worker.Runner.check and
check_cold).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the last set-up's children are traced and it holds the
per-layer metrics.  Every end-to-end time is scaled by the host's speed,
which the child that measured it sampled (see pace.py).  Names and units come
from ``BENCHMARK.json``.  A results file with the run's metadata, every metric
with its sample count and any failures is written under
``.perfbench/results``; a traced run also writes its spans there.  See
catalog.py for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PATTERNS = ("at", "impact", "provenance", "retrieve")


class Child:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, argv: list[str], workdir: Path, tag: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out_path = workdir / f"{tag}.stdout"
        with open(out_path, "wb") as out, open(workdir / f"{tag}.stderr", "wb") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.monotonic() - self.spawned
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_text(encoding="utf-8")
        self.stderr = (workdir / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
        self.scaled_s = self.wall_s

    def require_ok(self, what: str) -> "Child":
        if self.exit != 0:
            raise RuntimeError(f"{what} exited {self.exit}: {self.stderr[-2000:]}")
        return self


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def normgraph(args: list[str], workdir: Path, tag: str, spans: Path | None = None) -> Child:
    """Run ``normgraph ARGS`` in a fresh child that samples the host's speed.

    The child's wall time is scaled by the ratio the child measured; see pace.py.
    """
    report = workdir / f"{tag}.json"
    child = Child([sys.executable, str(HERE / "worker.py"), "cli", str(report),
                   str(spans) if spans else "-", "--", *args], workdir, tag)
    if report.exists():
        child.report = _read(report)
        child.scaled_s = child.wall_s * child.report["scaled_ratio"]
    return child


def tail_value(values: list[float], percentile: int) -> tuple[float, int]:
    """The percentile (inclusive method) and how many samples lie beyond it."""
    value = statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]
    return value, sum(v > value for v in values)


def check_cold(in_process: str | None, child: Child) -> str | None:
    """A cold CLI child must exit and answer exactly as the in-process run did."""
    if in_process is None:
        return "cold query: the in-process run raised"
    if in_process.startswith('{"error"'):
        expected = json.loads(in_process)["error"]
        try:
            got = json.loads(child.stdout)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            got = None
        if child.exit != 2 or got != expected:
            return f"cold query: exit {child.exit} / {got}, in process {expected}"
        return None
    if child.exit != 0:
        return f"cold query: exit {child.exit}, in process answered"
    if child.stdout != in_process:
        return "cold query: annex differs from the in-process answer"
    return None


def snapshot_bytes(path: Path) -> dict[str, int]:
    """Bytes per record kind; unit records are split into text and embedding."""
    sizes = {kind: 0 for kind in ("work", "ctv", "clv", "action", "theme", "unit", "embedding")}
    kind_re = re.compile(rb'"kind":"(\w+)"')
    embedding_re = re.compile(rb'"embedding":\[[^\]]*\]')
    with open(path, "rb") as fh:
        for line in fh:
            kind = kind_re.search(line).group(1).decode()
            if kind not in sizes:
                continue
            size = len(line)
            if kind == "unit":
                match = embedding_re.search(line)
                if match:
                    sizes["embedding"] += match.end() - match.start()
                    size -= match.end() - match.start()
            sizes[kind] += size
    return sizes


def node_counts(ingest_stdout: str) -> dict[str, int]:
    line = next(l for l in ingest_stdout.splitlines() if l.startswith("nodes:"))
    counts = dict(item.split("=") for item in line.split()[1:])
    names = {"works": "works", "ctvs": "temporal_versions", "clvs": "language_versions",
             "actions": "actions", "themes": "themes", "units": "text_units"}
    return {short: int(counts[long]) for short, long in names.items()}


def run_metadata(args, workload: workloads.Workload) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": cpu, "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "norm_seeds": [n.seed for n in workload.norms],
            "seconds": args.seconds, "trace": args.trace, "size": workload.size(),
            "tail_percentile": catalog.TAIL_PERCENTILE[args.workload], "notes": catalog.NOTES}


def run(args) -> dict:
    python = sys.executable
    traced = bool(args.trace)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{stem}.spans.jsonl"
    if spans.exists():
        spans.unlink()
    build = workloads.WORKLOADS[args.workload]
    n_setups = workloads.SETUPS[args.workload]
    setups: list[float] = []
    unscaled_setups: list[float] = []
    ingests: list[Child] = []
    workers: list[Child] = []
    loops: list[dict] = []
    colds: dict[int, Child] = {}
    digests: set[str] = set()
    failures: list[str] = []
    attempted = 0
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # The corpus is the benchmark's own work, so it is written once and
        # stays out of setup_s.
        workload = build(args.seed, args.norms)
        workloads.write_corpus(workload, work / "corpus")
        for i in range(n_setups):
            last = i == n_setups - 1
            started = time.monotonic()
            step = work / f"setup{i}"
            step.mkdir()
            snapshot = step / "graph.snapshot.ndjson"
            ingest = normgraph(["ingest", str(work / "corpus"), "--out", str(snapshot)], step,
                               "ingest", spans if traced and last else None)
            ingests.append(ingest.require_ok("ingest"))
            # Each set-up's query child runs its share of the timed loop, and
            # its share of the cold queries follows it, so a run's samples come
            # from its whole length rather than from one stretch of it.
            plan = {
                "snapshot": str(snapshot), "clock": workloads.CLOCK,
                "queries": [vars(q) for q in workload.queries], "cold": workload.cold,
                "seconds": args.seconds / n_setups, "verify": i == 0,
                "spans": str(spans) if traced and last else None,
                "result": str(step / "loop.json"),
            }
            (step / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
            child = Child([python, str(HERE / "worker.py"), "loop", str(step / "plan.json")],
                          step, "loop")
            workers.append(child.require_ok("query child"))
            loop = _read(step / "loop.json")
            loops.append(loop)
            setups.append(ingest.scaled_s
                          + (loop["ready_at"] - child.spawned) * loop["setup_ratio"])
            unscaled_setups.append(loop["ready_at"] - started)
            digests.add(loop["annex_digest"] + hashlib.sha256(snapshot.read_bytes()).hexdigest())
            failures += loop["failures"]
            attempted += loop["attempted"]
            for index in workload.cold[i::n_setups]:
                query = workload.queries[index]
                cold = normgraph(workloads.cli_args(query, str(snapshot)), step, f"cold{index}")
                colds[index] = cold
                attempted += 1
                problem = check_cold(loop["cold"][str(index)], cold)
                if problem:
                    failures.append(f"query {index} ({query.pattern}): {problem}")
            if not last:
                shutil.rmtree(step)
        if len(digests) != 1:
            failures.append("set-ups disagree on the snapshot or the warm-up answers")

        digest = hashlib.sha256(loop["annex_digest"].encode())
        for index in workload.cold:
            digest.update(colds[index].stdout.encode("utf-8"))
        lat = {p: [v for each in loops for v in each["latencies_ms"][p]] for p in PATTERNS}
        every = [v for values in lat.values() for v in values]
        metrics: dict[str, tuple[float, int, str]] = {
            "setup_s": (statistics.median(setups), len(setups), ""),
            "ingest_s": (statistics.median(c.scaled_s for c in ingests), len(ingests), ""),
            "snapshot_mb": (snapshot.stat().st_size / 1e6, 1, ""),
            "cold_query_s": (statistics.median(c.scaled_s for c in colds.values()), len(colds),
                             ""),
            "ingest_rss_mb": (statistics.median(c.rss_mb for c in ingests), len(ingests), ""),
            "query_rss_mb": (statistics.median(c.rss_mb for c in workers), len(workers), ""),
            "query_ops_s": (len(every) / (sum(every) / 1000.0), len(every),
                            f"{sum(each['passes'] for each in loops)} passes"),
        }
        tail = catalog.TAIL_PERCENTILE[args.workload]
        for pattern in PATTERNS:
            values = lat[pattern]
            value, beyond = tail_value(values, tail)
            metrics[f"{pattern}_p50_ms"] = (statistics.median(values), len(values), "")
            metrics[f"{pattern}_tail_ms"] = (value, len(values), f"p{tail}, {beyond} beyond")

        # The same times before scaling by the host's speed, for the results file.
        unscaled = {
            "setup_s": statistics.median(unscaled_setups),
            "ingest_s": statistics.median(c.wall_s for c in ingests),
            "cold_query_s": statistics.median(c.wall_s for c in colds.values()),
            **{f"{p}_p50_ms": statistics.median(v for each in loops for v in each["unscaled_ms"][p])
               for p in PATTERNS},
        }
        per_layer = {}
        if traced:
            per_layer = layer_metrics(args.spec, loop, _read(step / "ingest.json")["layers"],
                                      snapshot, ingests[-1], python, step)
        report = {
            "meta": run_metadata(args, workload),
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            catalog.FAILED_OPS[0]: len(failures) / attempted,
            "annex_digest": digest.hexdigest(),
            "failures": failures,
            "end_to_end": {name: {"value": v, "samples": n, "note": note}
                           for name, (v, n, note) in metrics.items()},
            "unscaled": unscaled,
            "pace_kernel_median_ms": [each["pace"]["kernel_median_ms"] for each in loops],
            "per_layer": per_layer,
            "spans_file": str(spans.relative_to(ROOT)) if traced else None,
        }
        (results / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(spec: dict, loop: dict, ingest_layers: dict, snapshot: Path, ingest: Child,
                  python: str, step: Path) -> dict[str, dict]:
    """Every per-layer metric with its sample count (calls, passes or 1) and what it moves."""
    sources = {"ingest": ingest_layers, "load": loop["load_layers"], "loop": loop["layers"]}
    passes = loop["passes"]
    counts = loop["layers"]["counts"]
    Child([python, str(HERE / "worker.py"), "import", str(step / "import.json")],
          step, "import").require_ok("import child")
    computed = {
        "store.load_rss_mb": loop["load_rss_mb"],
        "store.content_units.duplicate_ratio": loop["duplicate_ratio"],
        "cli.import_s": _read(step / "import.json")["import_s"],
        "retrieval.locate_spans.hit_ratio": (
            counts.get("retrieval.locate_spans.spans", 0.0)
            / max(counts.get("retrieval.locate_spans.scope_versions", 0.0), 1.0)),
        "runtime.gc_gen2_collections": loop["gc_gen2_collections"] / passes,
        "tracing.overhead_ratio": (statistics.median(loop["pass_traced_s"])
                                   / statistics.median(loop["pass_untraced_s"]) - 1.0),
    }
    computed.update({f"store.snapshot_bytes.{k}": v for k, v in snapshot_bytes(snapshot).items()})
    computed.update({f"store.nodes.{k}": v for k, v in node_counts(ingest.stdout).items()})
    out = {}
    for name in (m["name"] for m in spec["per_layer"]):
        source, key, field, moves = catalog.PER_LAYER[name]
        if source == "run":
            out[name] = {"value": float(computed[name]), "samples": 1, "moves": moves}
            continue
        summary = sources[source]
        if field == "count":
            value, samples = summary["counts"].get(key, 0.0), passes
        else:
            span = summary["spans"].get(key, {})
            value, samples = span.get(field, 0.0), span.get("calls", 0)
        if source == "loop" and field != "median_ms":
            value /= passes
        out[name] = {"value": value, "samples": samples, "moves": moves}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed query loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--norms", type=int, default=None,
                        help="exact number of norms instead of the workload's default size")
    args = parser.parse_args(argv)
    if not (SRC / "normgraph" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    args.spec = _read(ROOT / "BENCHMARK.json")

    report = run(args)
    units = {m["name"]: m["unit"] for m in args.spec["end_to_end"]}
    print(f"# {args.workload} seed {args.seed}: {report['meta']['size']}")
    for name, unit in units.items():
        m = report["end_to_end"][name]
        print(f"  {name:20s} {m['value']:14.4f} {unit:6s} n={m['samples']} {m['note']}")
    name, unit, _ = catalog.FAILED_OPS
    print(f"  {name:20s} {report[name]:14.4f} {unit:6s} "
          f"n={report['attempted']} ({report['failed']} failed)")
    print(f"  annex_digest {report['annex_digest']}")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")
    chosen = report["end_to_end"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in args.spec["per_layer"]}
        chosen = report["per_layer"]
        for name, unit in units.items():
            m = chosen[name]
            print(f"  {name:38s} {m['value']:14.6f} {unit:10s} n={m['samples']}")
    chosen = {name: {"value": chosen[name]["value"], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
