"""Smoke test of the benchmark itself, with tiny call counts.

Run from the repository root: python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", ",".join(WORKLOADS),
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_and_no_call_fails(trace, group):
    out = run_bench(ROOT, trace)
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        small = results[WORKLOADS.index("small_calls")]["metrics"]
        assert small["client.connects_per_call"]["value"] == 1.0
        assert small["node.accepts_per_call"]["value"] == 1.0
    else:
        # the human-readable table also lists fail_ratio for each workload
        rows = [line.split() for line in out.stdout.splitlines()]
        fail_rows = [(row[0], float(row[2]), row[3]) for row in rows if row[1:2] == ["fail_ratio"]]
        assert fail_rows == [(w, 0.0, "ratio") for w in WORKLOADS]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, 0)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
