"""The pair rule of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

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
