"""Smoke test of the benchmark at tiny sizes, kept out of the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced for one second at --smoke sizes;
the test checks the result line against BENCHMARK.json and the metric
catalogue, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_matches_catalogue():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == {"mean_field_sweep", "sensitivity_study", "oracle"}
    e2e = {m["name"]: (m["unit"], m["bound"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layers == {k: v[:2] for k, v in metrics.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mean_field_sweep", "sensitivity_study", "oracle"])
def test_smoke_run(workload, trace, tmp_path):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    record = json.loads((HERE / "results" / f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    assert record["environment"]["nproc"] >= 1
    assert record["inputs"]["calls_per_batch"] >= 1
    if workload == "oracle":
        # the event-driven simulator may run away on non-dyadic rates; only it may fail
        assert {(f["layer"], f["label"].split(".")[1]) for f in record["failures"]} <= {("markov", "simulate")}
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
