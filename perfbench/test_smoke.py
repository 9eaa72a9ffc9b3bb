"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced on toy inputs; the last
stdout line must carry every metric BENCHMARK.json names, with its unit,
and report no failed operation. Outside a checkout the benchmark must
exit non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = [sys.executable, *SPEC["command"][1:]]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in expected)
    for metric in expected:
        assert got[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(got[metric["name"]]["value"], (int, float))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
