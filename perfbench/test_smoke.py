"""Smoke test: a tiny run of every workload, untraced and traced, prints
every metric that BENCHMARK.json names, with its unit, and correct answers.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_for_every_workload(trace, group):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith('{"workload"'):
            result = json.loads(line)
            results[result.pop("workload")] = result
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    for name, result in results.items():
        assert result["correct"] and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want, name
    assert proc.stdout.count("fail_share") >= 2 * len(results)
