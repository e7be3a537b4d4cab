"""gazenlu benchmark: one workload, one process, results as JSON.

    python3 perfbench/run.py --workload train_st --seed 1 --seconds 10 --trace 0

Runs from a checkout of the repository and imports gazenlu from its
``src``. The set-up runs three times (once when traced) and its median is
``setup_s``; then fixed-size sessions repeat for ``--seconds``, one
caller in one process (a closed loop), with BLAS pinned to one thread.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it records the context: numpy and BLAS build, nproc, seed, sample counts,
path lengths and the unscaled values. A traced run alternates untraced
and traced sessions and writes its spans to
``.perfbench/trace-<workload>-s<seed>.json``.

End-to-end times are scaled by a reference clock (``RefClock`` in
``instrument.py``): each stretch of the run is divided by the speed of a
fixed numpy kernel timed right after it, which removes most of the speed
drift of a shared machine. Per-layer times are read on the same clock.

Exit code 1: an output check failed. Exit code 2: the benchmark cannot
run here (no gazenlu sources next to it).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every path at toy sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gazenlu" / "__init__.py").is_file():
        print(f"perfbench: no gazenlu sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args, ROOT / ".perfbench")


if __name__ == "__main__":
    sys.exit(main())
