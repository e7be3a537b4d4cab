"""Smoke test of the benchmark: every workload at toy size, in a subprocess.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the repository's default test run: the
benchmark is checked when it changes, not on every run of the suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("diffcore.graph_nodes", "gazegen.decode_calls", "gazegen.fixations_per_path")


def _run(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _bench(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return _run([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"])


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = _bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert res["correct"], proc.stdout
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units(SPEC["per_layer"])


def test_traced_counts_repeat_exactly():
    runs = [_result(_bench("train_st", trace=1)) for _ in range(2)]
    for name in runs[0]["metrics"]:
        if name.startswith(COUNTS):
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_nan_loss_is_a_failed_operation():
    code = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
from gazenlu import augmentor
from gazenlu.diffcore import mul
loss_pairs = augmentor.JointModel.loss_pairs
augmentor.JointModel.loss_pairs = (
    lambda self, *args: mul(loss_pairs(self, *args), float("nan")))
import run
sys.exit(run.main(["--workload", "train_st", "--seed", "3", "--seconds", "0.2",
                   "--size", "tiny"]))
"""
    proc = _run(["-c", code])
    assert proc.returncode == 1, proc.stderr
    res = _result(proc)
    assert not res["correct"]
    assert 1 <= res["failed"] <= res["attempted"]
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    assert info["failures"]["non_finite_loss"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["command"][1:] + ["--workload", WORKLOADS[0], "--seed", "1",
                                        "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
