"""scripts/graph_profile.py at the benchmark's tiny size."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _profile(workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "graph_profile.py"), "--workload", workload,
         "--seed", "1", "--steps", "2", "--size", "tiny"],
        capture_output=True, text=True, timeout=600)


def test_graph_profile_counts_one_sampler_node_per_step():
    proc = _profile("train_st")
    assert proc.returncode == 0, proc.stderr
    *table, memory = proc.stdout.splitlines()[2:]
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in table}
    total = rows.pop("total")
    # one node each for the sampler and the scan GRU, which reads the
    # sampler's packed rows whole: no per-step GRU nodes and no per-step
    # row slices; the one slice left is the text encoder's [CLS] read
    assert rows["sampler"][0] == 1.0 and rows["scan"][0] == 1.0
    assert "gru_cell" not in rows and rows["getitem"][0] == 1.0
    assert total[0] == sum(nodes for nodes, _ in rows.values())
    assert total[1] > 0 and all(ms >= 0 for _, ms in rows.values())
    # backward consumes the warm-up step's graph, which outweighs its gradients
    m = re.fullmatch(r"warm-up step, traced: (\S+) MiB freed by backward, peak (\S+) MiB",
                     memory)
    assert m, memory
    freed, peak = float(m[1]), float(m[2])
    assert 0 < freed < peak


def test_graph_profile_fails_on_a_workload_without_training_steps():
    proc = _profile("predict")
    assert proc.returncode == 2
    assert "ran 0 of 2 profiled training steps" in proc.stderr
