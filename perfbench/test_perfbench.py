"""Tests of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = BENCH["command"][1:]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *COMMAND, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(*args):
    proc = run_bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines, name):
    return any(line.split()[:1] == [name] for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_printed_and_no_failure_at_seed(workload):
    lines, res = result("--workload", workload, "--seed", "1", "--seconds", "0.1",
                        "--trace", "0")
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(res["metrics"][k]["value"] > 0 for k in expected)
    assert all(printed(lines, name) for name in expected)
    assert res["correct"] and res["attempted"] > 0 and res["failed"] == 0
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in lines)


def test_per_layer_metrics_printed():
    lines, res = result("--workload", "unequal_gaps", "--seed", "1", "--seconds", "0.1",
                        "--trace", "1")
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(printed(lines, name) for name in expected)
    assert res["correct"]
    spans = (HERE / "out" / "unequal_gaps.spans.tsv.gz")
    assert spans.stat().st_size > 0


def test_mutated_constant_is_reported_as_failures():
    lines, res = result("--workload", "spacetime_grid", "--seconds", "0.1",
                        "--mutate", "harvesting.EM_NONLOCAL_COEFF")
    assert not res["correct"] and res["failed"] > 0
    frac = next(line.split()[1] for line in lines if printed([line], "failed_frac"))
    assert float(frac) > 0


def test_mutated_constant_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import worker
    from vharvest import harvesting
    before = harvesting.EM_NONLOCAL_COEFF
    out = worker.body(argparse.Namespace(
        workload="spacetime_grid", seed=1, seconds=None, batches=1, trace=None,
        mutate="harvesting.EM_NONLOCAL_COEFF"))
    assert out["failed"] > 0
    assert harvesting.EM_NONLOCAL_COEFF == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "scatter_terms", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
