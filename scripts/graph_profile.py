"""Graph nodes and backward time per op for training steps of a workload.

    python3 scripts/graph_profile.py --workload train_st --seed 7 [--steps 4]

Sets up a training workload of the benchmark (``train_st``, ``train_soft``
or ``pretrain``) as ``perfbench/run.py`` does: the same suite, set-up
generator and inputs for the seed, BLAS pinned to one thread. It then runs
the workload's session until ``--steps`` training steps after the first
have finished. For each of those steps it walks the graph from the loss
as ``backward`` does, wraps every node's backward closure in a timer, and
runs the backward. It prints, per op, the mean node count and backward
milliseconds per step, largest time first; the times include the
timers' own overhead.

It then prints the memory of the warm-up step, the only part of the
session that runs under ``tracemalloc``, so the profiled steps stay
untraced. Tracing starts with the session (which builds the model and
encodes its inputs) and stops when the warm-up backward returns. "freed
by backward" is the traced memory before that backward minus after it:
the graph the backward consumes, less the gradients it leaves behind.
"peak" is the traced peak up to that point. Both are in MiB.

Exit code 2: the workload runs no training step.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 2 ** 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=4, help="steps profiled, after one warm-up")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.steps < 1:
        p.error("--steps must be at least 1")
    return args


class _Done(Exception):
    """Ends the session once the profiled steps are in."""


def timed_backward(loss, backward, nodes: Counter, ms: Counter) -> None:
    """``backward(loss)``, with every recorded node reachable from ``loss``
    counted in ``nodes`` and its closure's time added to ``ms``, by op."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
        if node._backward is None:
            continue
        nodes[node._op] += 1

        def timed(g, fn=node._backward, op=node._op):
            t0 = time.perf_counter()
            out = fn(g)
            ms[op] += (time.perf_counter() - t0) * 1e3
            return out

        node._backward = timed
    backward(loss)


def profile(workload: str, seed: int, steps: int,
            size: str) -> tuple[Counter, Counter, tuple[float, float]]:
    """(nodes, backward ms) per op, summed over ``steps`` training steps,
    and the warm-up step's traced (MiB freed by backward, peak MiB)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from gazenlu.diffcore import Tensor
    from instrument import Probe
    from workloads import SIZES, WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"graph_profile: unknown workload {workload!r}, "
                         f"have {sorted(WORKLOADS)}")
    cls, options = WORKLOADS[workload]
    nodes, ms = Counter(), Counter()
    original = Tensor.backward
    calls = 0
    memory = (0.0, 0.0)

    def backward(loss):
        nonlocal calls, memory
        calls += 1
        if calls == 1:              # warm-up, the one traced step
            before = tracemalloc.get_traced_memory()[0]
            original(loss)
            after, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            memory = ((before - after) / MIB, peak / MIB)
            return
        timed_backward(loss, original, nodes, ms)
        if calls > steps:
            raise _Done

    with tempfile.TemporaryDirectory() as workdir:
        run = cls(seed, SIZES[size], Probe(cls.timed), workdir, **options)
        run.setup()                 # pretrains the set-up generator: not profiled
        Tensor.backward = backward
        tracemalloc.start()
        try:
            run.session()
        except _Done:
            pass
        finally:
            Tensor.backward = original
            tracemalloc.stop()
    if calls <= steps:
        print(f"graph_profile: {workload} ran {max(calls - 1, 0)} of {steps} profiled "
              f"training steps", file=sys.stderr)
        raise SystemExit(2)
    return nodes, ms, memory


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    nodes, ms, (freed, peak) = profile(args.workload, args.seed, args.steps, args.size)
    n = args.steps
    print(f"{args.workload} seed {args.seed}: per step, mean of {n} steps after one warm-up")
    print(f"{'op':16s} {'nodes':>8s} {'backward ms':>12s}")
    for op in sorted(nodes, key=lambda o: (-ms[o], o)):
        print(f"{op:16s} {nodes[op] / n:8.1f} {ms[op] / n:12.3f}")
    print(f"{'total':16s} {sum(nodes.values()) / n:8.1f} {sum(ms.values()) / n:12.3f}")
    print(f"warm-up step, traced: {freed:.1f} MiB freed by backward, peak {peak:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
