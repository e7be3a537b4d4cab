"""The measuring side of ``run.py``: set-up, timed sessions, metrics."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from instrument import CHECK, RUN, Probe, Tracer, install_probe, install_tracer
from layers import layer_metrics, summarize
from workloads import SIZES, WORKLOADS

SETUPS = 3


def measure(workload, probe, tracer, seconds: float) -> list[tuple]:
    """Whole sessions within ``seconds``.

    Returns (traced, start, end, items, timed ops) per session. Another
    session starts only if one more of average length still ends inside
    the window, so a run measures at most ``seconds`` unless one session
    alone is longer. A traced run alternates untraced and traced
    sessions, at least one of each. The first exception ends the run as
    a failed operation.
    """
    probe.phase = RUN
    sessions: list[tuple] = []
    first = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(sessions) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        ops = probe.timed_ops
        t0 = time.perf_counter()
        try:
            items, result = workload.session()
        except Exception as ex:  # a failed operation ends the run, reported
            traceback.print_exc()
            probe.abort(f"exception:{type(ex).__name__}")
            break
        finally:
            if tracer is not None:
                tracer.active = False
        t1 = time.perf_counter()
        probe.clock.lap()
        sessions.append((traced, t0, t1, items, probe.timed_ops - ops))
        if len(sessions) == 1:
            first = result
        elif result != first:
            probe.fail("session_not_repeatable")
        elapsed = time.perf_counter() - start
        if (elapsed * (len(sessions) + 1) / len(sessions) > seconds
                and len(sessions) >= (1 if tracer is None else 2)):
            break
    return sessions


def rate(sessions, clock, raw: bool = False) -> float:
    seconds = sum(clock.scaled(t0, t1, raw) for _, t0, t1, _, _ in sessions)
    return sum(s[3] for s in sessions) / seconds if seconds else 0.0


def percentiles(ms: list[float]) -> tuple[float, float]:
    ms = ms or [0.0]
    return statistics.median(ms), float(np.percentile(ms, 90))


def end_to_end(sessions, probe, setups) -> dict:
    return {
        "throughput": {"value": rate(sessions, probe.clock), "unit": "items/s"},
        "step_ms_p50": {"value": percentiles(probe.op_ms())[0], "unit": "ms"},
        "setup_s": {"value": statistics.median(probe.clock.scaled(*s) for s in setups),
                    "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(sessions, probe, tracer) -> dict:
    """Per-layer metrics over the traced sessions.

    The tracing overhead compares the median timed operation of the
    traced sessions with that of the untraced ones in the same run.
    """
    ms = probe.op_ms()
    timed = {True: [], False: []}
    for traced, _, _, _, ops in sessions:
        timed[traced].extend(ms[:ops])
        ms = ms[ops:]
    overhead = 0.0
    if timed[True] and timed[False]:
        overhead = (statistics.median(timed[True])
                    / statistics.median(timed[False]) - 1) * 100
    summary = summarize(
        tracer, paths=probe.paths, skipped_updates=probe.skipped_updates,
        ops=max(len(timed[True]), 1), overhead_pct=overhead,
    )
    return layer_metrics(summary)


def write_trace(path: Path, tracer, context: dict) -> None:
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[name, round((start - t0) * 1e6), round((end - t0) * 1e6),
              parent, op, phase]
             for name, start, end, parent, op, phase in tracer.spans]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**context,
                   "span_fields": ["name", "start_us", "end_us", "parent",
                                   "op", "phase"],
                   "spans": spans}, f)


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run(args, out: Path) -> int:
    """One run of ``args.workload``; prints the results, returns the exit code."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, "
              f"have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls, options = WORKLOADS[args.workload]
    probe = Probe(cls.timed)
    tracer = Tracer(probe) if args.trace else None
    if tracer is not None:
        install_tracer(tracer)
    install_probe(probe)

    out.mkdir(exist_ok=True)
    workdir = out / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(1 if tracer else SETUPS):
            workload = cls(args.seed, SIZES[args.size], probe, str(workdir), **options)
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            workload.setup()
            setups.append((t0, time.perf_counter()))
            probe.clock.lap()
            if tracer is not None:
                tracer.active = False
        sessions = measure(workload, probe, tracer, args.seconds)
        probe.phase = CHECK
        if sessions:
            try:
                workload.recheck()
            except Exception as ex:  # reported like any failed check
                traceback.print_exc()
                probe.abort(f"exception:{type(ex).__name__}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    paths = probe.paths
    context = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": os.cpu_count(), "numpy": np.__version__,
        "blas": blas_build(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "item": cls.unit, "sessions": len(sessions),
        "timed_ops": probe.timed_ops, "timed_op": cls.timed,
        # too few timed ops per run for a steady tail: shown, not gated
        "step_ms_p50_p90": percentiles(probe.op_ms()),
        "setups": len(setups),
        "raw": {"throughput": rate(sessions, probe.clock, raw=True),
                "step_ms_p50_p90": percentiles(probe.op_ms(raw=True)),
                "setup_s": statistics.median(probe.clock.scaled(*s, raw=True)
                                             for s in setups)},
        "ref_kernel_ms": probe.clock.median_factor() * probe.clock.REF_MS,
        "fixations_per_path": (paths["fixations"] / paths["paths"]
                               if paths["paths"] else None),
        "failures": dict(probe.failures),
        **(workload.info() if sessions else {}),
    }
    if tracer is not None:
        trace_path = out / f"trace-{args.workload}-s{args.seed}.json"
        write_trace(trace_path, tracer, context)
        context["trace_file"] = str(trace_path.relative_to(out.parent))
        metrics = per_layer(sessions, probe, tracer)
    else:
        metrics = end_to_end(sessions, probe, setups)
    print(json.dumps({"info": context}))
    correct = probe.failed == 0
    print(json.dumps({"correct": correct, "attempted": probe.attempted,
                      "failed": probe.failed, "metrics": metrics}))
    return 0 if correct else 1
