"""The pair rule of ``scripts/bench_pairs.py``."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_quartiles():
    parent = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    faster = [p + 20 for p in parent]
    j = bench_pairs.judge(parent, faster, higher=True)
    assert j["wins"] == 10 and j["pairs"] == 10 and j["gain"]
    assert j["parent"] == (104.5, 102.25, 106.75)
    # the same runs read as times: the change lost every pair
    assert not bench_pairs.judge(parent, faster, higher=False)["gain"]
    # a tie counts for neither side: 8 wins of 10 is too few
    tied = faster[:8] + parent[8:]
    assert bench_pairs.judge(parent, tied, higher=True)["wins"] == 8
    assert not bench_pairs.judge(parent, tied, higher=True)["gain"]
    # every pair won, but by less than the parent's quartile spread of 4.5
    close = [p + 4 for p in parent]
    assert not bench_pairs.judge(parent, close, higher=True)["gain"]
    assert bench_pairs.judge(parent, [p - 5 for p in parent], higher=False)["gain"]


def test_no_regression_bounds_the_median_and_needs_a_spread_within_the_bound():
    parent = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    # times 10% slower, within a bound of 0.25 and with a narrow spread
    assert bench_pairs.no_regression(parent, [p * 1.1 for p in parent], False, 0.25) == "holds"
    # 30% slower is past the bound, whatever the spread
    assert bench_pairs.no_regression(parent, [p * 1.3 for p in parent], False, 0.25) == "fails"
    # the same runs read as throughput: every change run beats every parent run
    assert bench_pairs.no_regression(parent, [p * 1.3 for p in parent], True, 0.25) == "holds"
    # a quartile spread of 4.5 against a bound of 3% of the parent's median
    assert bench_pairs.no_regression(parent, parent, True, 0.03) == "unresolved"
    # the change's own spread counts too
    wide = [50.0, 60, 70, 100, 104, 105, 110, 140, 150, 160]
    assert bench_pairs.no_regression(parent, wide, True, 0.25) == "unresolved"
    # a wide spread that the change clears run for run still holds
    assert bench_pairs.no_regression(wide, [p + 200 for p in wide], True, 0.25) == "holds"
    # a bound is a share of the parent's median, for either direction
    assert bench_pairs.no_regression(parent, [p - 20 for p in parent], True, 0.2) == "holds"
    assert bench_pairs.no_regression(parent, [p - 22 for p in parent], True, 0.2) == "fails"


def test_main_prints_both_verdicts_for_every_metric(monkeypatch, capsys, tmp_path):
    """The benchmark runs faked: the change halves every metric's value,
    each run's context line reports its paths' length and its unscaled
    values, and each run adds its seed times 1000 minor faults to the
    children's count."""
    faults = [0]

    def fake_run(cmd, capture_output, text, cwd):
        scale = 0.5 if Path(cwd) == tmp_path.resolve() else 1.0
        seed = int(cmd[cmd.index("--seed") + 1])
        faults[0] += 1000 * seed
        raw = {"throughput": 90.0 * scale + seed, "step_ms_p50_p90": [scale, 2 * scale],
               "setup_s": 0.25 * scale}
        context = {"info": {"workload": cmd[cmd.index("--workload") + 1],
                            "fixations_per_path": 4.0 * scale + seed, "raw": raw}}
        result = {"correct": True, "metrics": {
            name: {"value": scale * (100 + seed % 3)}
            for name in ("throughput", "step_ms_p50", "setup_s", "peak_rss_mb")}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(context) + "\n"
                                           + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_minflt=500 + faults[0]))
    out = tmp_path / "runs.jsonl"
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path),
                             "--workloads", "train_soft", "--pairs", "3", "--seed", "1",
                             "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "train_soft (3 pairs, seeds 1-3)"
    verdicts = {line.split()[0]: line.split("gain ")[1] for line in lines[1:-1]}
    assert verdicts == {"throughput": "not shown  no regression fails",
                        "step_ms_p50": "holds  no regression holds",
                        "setup_s": "holds  no regression holds",
                        "peak_rss_mb": "holds  no regression holds"}
    assert lines[-1] == "  fixations_per_path 6 -> 4"
    runs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(runs) == 6
    assert all(r["metrics"]["fixations_per_path"] == (4.0 if r["side"] == "parent" else 2.0)
               + r["seed"] for r in runs)
    for r in runs:
        scale = 1.0 if r["side"] == "parent" else 0.5
        assert r["raw"] == {"throughput": 90.0 * scale + r["seed"],
                            "step_ms_p50_p90": [scale, 2 * scale], "setup_s": 0.25 * scale}
        assert r["minflt"] == 1000 * r["seed"]
