"""Alternating parent/change pairs of the benchmark, judged pair by pair.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workloads predict train_st --pairs 10 --seed 9000 --seconds 12

``--parent`` and ``--change`` are two checkouts of the repository, for
example the parent commit made with ``git worktree add ../parent HEAD~1``
or unpacked with ``git archive``. Pair k of a workload runs
``perfbench/run.py --seed <seed + k>`` once from each checkout, the parent
first in even pairs and the change first in odd ones, so a drift of the
machine's speed does not favour one side.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, the pairs the change won (ties count
for neither) and whether a gain is shown: the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
distance between the parent's quartiles. Beside it stands the
no-regression verdict: "fails" when the change's median is worse than the
parent's by more than the metric's ``bound`` (a fraction of the parent's
median), else "unresolved" when either side's quartile spread is wider
than the bound, else "holds"; a change whose every run beats every parent
run holds whatever the spread. For the workloads whose runs report
``fixations_per_path`` (on the context line before the result), it also
prints each side's median of it: a change that makes the sampler read
longer or shorter paths changes the work behind every metric. Every run's
metrics, and its ``fixations_per_path`` where reported, go to ``--out``
as JSON lines. A run that fails its output checks stops the script with
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PATH_LENGTH = "fixations_per_path"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, default=ROOT)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--out", type=Path, help="append every run's metrics here")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its end-to-end metrics by name, and
    ``fixations_per_path`` from its context line when it reports one."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} failed (exit {proc.returncode})")
    out = {name: m["value"] for name, m in result["metrics"].items()}
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    if info.get(PATH_LENGTH) is not None:
        out[PATH_LENGTH] = info[PATH_LENGTH]
    return out


def judge(parent: list[float], change: list[float], higher: bool) -> dict:
    """Medians, quartiles, pairs won and whether the gain rule holds."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med_p, q3 = np.percentile(parent, [25, 50, 75])
    med_c = float(np.median(change))
    gain = wins >= 0.9 * len(parent) and sign * (med_c - med_p) > q3 - q1
    return {"parent": (med_p, q1, q3), "change": (med_c, *np.percentile(change, [25, 75])),
            "wins": wins, "pairs": len(parent), "gain": bool(gain)}


def no_regression(parent: list[float], change: list[float], higher: bool,
                  bound: float) -> str:
    """The no-regression verdict, "holds", "fails" or "unresolved": is the
    change's median worse than the parent's by at most ``bound`` times the
    parent's, with both sides' quartile spreads within that margin?"""
    sign = 1.0 if higher else -1.0
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "holds"
    med_p = float(np.median(parent))
    margin = bound * abs(med_p)
    if sign * (med_p - float(np.median(change))) > margin:
        return "fails"
    spread = max(np.subtract(*np.percentile(side, [75, 25])) for side in (parent, change))
    return "unresolved" if spread > margin else "holds"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                metrics = run_once(sides[side], workload, seed, args.seconds)
                runs[side].append(metrics)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as f:
                        f.write(json.dumps({"workload": workload, "side": side,
                                            "seed": seed, "metrics": metrics}) + "\n")
        last = args.seed + args.pairs - 1
        print(f"{workload} ({args.pairs} pairs, seeds {args.seed}-{last})")
        for name, (up, bound) in rules.items():
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            j = judge(parent, change, up)
            p, c = j["parent"], j["change"]
            print(f"  {name:12s} {p[0]:10.4g} [{p[1]:.4g}, {p[2]:.4g}] -> "
                  f"{c[0]:10.4g} [{c[1]:.4g}, {c[2]:.4g}]  won {j['wins']}/{j['pairs']}  "
                  f"gain {'holds' if j['gain'] else 'not shown'}  "
                  f"no regression {no_regression(parent, change, up, bound)}", flush=True)
        if all(PATH_LENGTH in r for side in runs.values() for r in side):
            p, c = (float(np.median([r[PATH_LENGTH] for r in runs[side]]))
                    for side in ("parent", "change"))
            print(f"  {PATH_LENGTH} {p:.4g} -> {c:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
