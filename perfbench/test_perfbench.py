"""Checks of the benchmark itself, at tiny sizes: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"ingest-cold": "10", "query-wide": "3", "query-deep": "1"}
ROW = re.compile(r"^\s+(\S+)\s+(-?[\d.]+)\s+(\S+)\s+n=(\d+)")
# Node counts of ingest-cold's first ten norms at seed 0 (a prefix of the
# ROADMAP item-1 reference corpus).
TEN_NORMS = {"store.nodes.works": 825, "store.nodes.ctvs": 1572, "store.nodes.clvs": 712,
             "store.nodes.actions": 429, "store.nodes.themes": 0, "store.nodes.units": 1151}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def run_tiny(workload: str, trace: int) -> tuple[dict, dict, str]:
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                "--trace", str(trace), "--norms", TINY[workload])
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed0-trace{trace}.json").read_text())
    return last, report, out.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_traced_and_untraced(workload):
    last, report, stdout = run_tiny(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, report["failures"]
    rows = {m.group(1): m.groups()[1:] for m in map(ROW.match, stdout.splitlines()) if m}
    for name, unit in ((m["name"], m["unit"]) for m in SPEC["end_to_end"]):
        assert last["metrics"][name]["unit"] == unit
        assert last["metrics"][name]["value"] > 0, name
        assert rows[name][1] == unit and int(rows[name][2]) >= 1
    assert rows[catalog.FAILED_OPS[0]][0] == "0.0000"

    traced, traced_report, traced_stdout = run_tiny(workload, 1)
    assert traced["correct"], traced_report["failures"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    rows = {m.group(1): m.groups()[1:] for m in map(ROW.match, traced_stdout.splitlines()) if m}
    for name, unit in ((m["name"], m["unit"]) for m in SPEC["per_layer"]):
        assert traced["metrics"][name]["unit"] == unit and rows[name][1] == unit
    assert traced_report["annex_digest"] == report["annex_digest"]
    spans = [json.loads(line) for line in
             (ROOT / traced_report["spans_file"]).read_text().splitlines()]
    assert {"ingest.apply_event", "store.load", "planner.run"} <= {s["name"] for s in spans}
    ids = {(s["process"], s["id"]) for s in spans}
    assert len(ids) == len(spans)
    assert all(s["parent"] == -1 or (s["process"], s["parent"]) in ids for s in spans)
    if workload == "ingest-cold":
        assert {k: traced["metrics"][k]["value"] for k in TEN_NORMS} == TEN_NORMS


def test_pace_scales_by_the_kernel_time_nearby():
    sampled = pace.Pace()
    sampled.starts = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
    sampled.seconds = [0.001] * 3 + [0.002] * 3
    assert sampled.factor_at(0.1) == pace.REFERENCE_S / 0.001
    assert sampled.factor_at(10.1) == pace.REFERENCE_S / 0.002
    # Over 0.3 s of wall time, 0.003 s was the kernel's, at the first speed.
    assert sampled.ratio(0.0, 0.3) == pytest.approx(0.297 / 0.3 * pace.REFERENCE_S / 0.001)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "query-wide", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0 and not out.stdout.strip()
