"""Smoke test of the benchmark at shrunk sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

It runs every workload with ``--sizes smoke`` and checks that every metric
named in BENCHMARK.json is printed with its unit, that the checks run, that a
new seed changes field values but not job sizes, and that the benchmark
refuses to run without the package's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, seconds: float = 1):
    """(last stdout line as JSON, full stdout, the worker's result file)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--sizes", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout, json.loads(result.read_text())


def test_benchmark_file_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from tracer import LAYER_METRICS

    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == \
        {k: v[:2] for k, v in LAYER_METRICS.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    doc, stdout, result = run(workload, 1, 0)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert doc["attempted"] > 0 and 0 <= doc["failed"] <= doc["attempted"]
    for name, unit in dict(want, fail_frac="ratio").items():
        assert re.search(rf"^{name} \S+ {unit}\b", stdout, re.M), name
    assert len(result["untraced_wall_s"]) >= 2 and not result["traced_wall_s"]
    assert {"nproc", "python", "numpy", "scipy", "blas_version", "blas_threads_seen",
            "git_commit", "workload_seed"} <= set(result["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    doc, stdout, result = run(workload, 1, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert "trace.overhead_s" in stdout and "span table" in stdout
    spans = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed1-trace1" / "spans.json").read_text())
    assert {"name", "start", "end", "parent"} == set(spans[0])
    # self times (duration minus child spans) add up to the traced pass
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    total_self = sum(s["end"] - s["start"] - c for s, c in zip(spans, child))
    passes = sum(s["end"] - s["start"] for s in spans if s["name"] == "pass")
    assert total_self == pytest.approx(passes, rel=1e-9)
    assert 0.0 < doc["metrics"]["trace.coverage_frac"]["value"] <= 1.0


def test_check_counts_do_not_depend_on_run_length():
    short, _, r_short = run("cocycle", 3, 0, 1)
    long, _, r_long = run("cocycle", 3, 0, 8)
    assert len(r_long["untraced_wall_s"]) > len(r_short["untraced_wall_s"])
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


#: jobs whose inputs do not follow the seed: the fixed ROADMAP item-1 cases
#: and quantize-check, whose config holds only sizes
UNSEEDED = {"item1_exterior", "item1_chain", "cli_quantize"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_values_not_sizes(workload):
    one = run(workload, 1, 0)[2]["manifest"]
    two = run(workload, 2, 0)[2]["manifest"]
    assert list(one) == list(two)
    for job in one:
        assert one[job]["sizes"] == two[job]["sizes"], job
        same = one[job]["inputs"] == two[job]["inputs"]
        assert same == (job in UNSEEDED), job


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
