"""Per-layer metrics of a traced run, and the end-to-end metric each moves.

Times are self times (a span's duration minus its child spans) unless
the entry says inclusive, summed over the traced sessions and divided by
their timed operations ("per op": an optimizer step on the training
workloads, a ``predict_batch`` call on predict and predict_hard, a
``generate`` call on generate). The two set-up layers are per set-up: a
traced run sets up once. Span durations are read on the reference
clock, like the end-to-end times. The program runs one thread and has no
queues, so no layer has a wait time to report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from instrument import RUN, SETUP, Tracer

GRAPH_OPS = ("matmul", "add", "mul", "getitem", "sigmoid", "tanh", "concat",
             "stack", "reshape", "softmax", "embedding", "select_steps")


@dataclass
class Summary:
    self_ms: Counter
    incl_ms: Counter
    calls: Counter
    setup_self_ms: Counter
    dev_predict_ms: float
    counts: Counter
    paths: Counter
    skipped_updates: int
    ops: int
    overhead_pct: float

    def per_op(self, value: float) -> float:
        return value / self.ops


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    value: Callable[[Summary], float]
    moves: str


def _self(span: str) -> Callable[[Summary], float]:
    return lambda s: s.per_op(s.self_ms[span])


def _incl(span: str) -> Callable[[Summary], float]:
    return lambda s: s.per_op(s.incl_ms[span])


def _calls(span: str) -> Callable[[Summary], float]:
    return lambda s: s.per_op(s.calls[span])


def _count(key: str) -> Callable[[Summary], float]:
    return lambda s: s.per_op(s.counts[key])


def _setup(span: str) -> Callable[[Summary], float]:
    return lambda s: s.setup_self_ms[span]


def _ratio(num: str, den: str) -> Callable[[Summary], float]:
    return lambda s: s.paths[num] / s.paths[den] if s.paths[den] else 0.0


LAYERS: tuple[Layer, ...] = (
    Layer("textenc.cls_forward_ms", "ms/op", "lower", _self("textenc.cls_forward"),
          "throughput on train_st, train_soft, predict and predict_hard"),
    Layer("textenc.gen_forward_ms", "ms/op", "lower", _self("textenc.gen_forward"),
          "throughput on train_st, predict, pretrain and generate"),
    Layer("textenc.collate_ms", "ms/op", "lower", _self("textenc.collate"),
          "step_ms_p50 on every workload, by a small amount"),
    Layer("textenc.tokenize_ms", "ms/setup", "lower", _setup("textenc.tokenize"),
          "setup_s"),
    Layer("corpus.make_synthetic_ms", "ms/setup", "lower",
          _setup("corpus.make_synthetic"), "setup_s"),
    Layer("gazegen.encode_words_ms", "ms/op", "lower", _self("gazegen.encode_words"),
          "throughput on train_st, pretrain and predict"),
    Layer("gazegen.sample_st_ms", "ms/op", "lower", _self("gazegen.sample_st"),
          "throughput on train_st and predict; not train_soft or pretrain"),
    Layer("gazegen.sample_soft_ms", "ms/op", "lower", _self("gazegen.sample_soft"),
          "throughput on train_soft only"),
    Layer("gazegen.sample_soft_calls", "calls/op", "lower", _calls("gazegen.sample_soft"),
          "throughput on train_soft only"),
    Layer("gazegen.sample_hard_ms", "ms/op", "lower", _self("gazegen.sample_hard"),
          "throughput on predict_hard and generate only"),
    Layer("gazegen.sample_hard_calls", "calls/op", "lower", _calls("gazegen.sample_hard"),
          "throughput on predict_hard and generate only"),
    Layer("gazegen.nll_ms", "ms/op", "lower", _self("gazegen.nll"),
          "throughput on pretrain only"),
    Layer("gazegen.decode_calls", "calls/op", "lower", _calls("gazegen.decode"),
          "sampling-loop and teacher-forcing iterations, every workload"),
    Layer("gazegen.decode_ms", "ms/op", "lower", _self("gazegen.decode"),
          "throughput on every workload"),
    Layer("gazegen.history_calls", "calls/op", "lower", _calls("gazegen.history"),
          "sampling-loop and teacher-forcing iterations, every workload"),
    Layer("gazegen.history_ms", "ms/op", "lower", _self("gazegen.history"),
          "throughput on every workload"),
    Layer("gazegen.fixations_per_path", "fix/path", "lower",
          _ratio("fixations", "paths"),
          "explains a change in work, not in speed"),
    Layer("gazegen.stop_frac", "fraction", "higher", _ratio("stopped", "paths"),
          "share of paths ended by STOP rather than the cap"),
    Layer("gazegen.live_row_frac", "fraction", "higher",
          _ratio("live_slots", "slots"),
          "work the batched straight-through loop spends on live rows"),
    Layer("augmentor.loss_pairs_ms", "ms/op", "lower", _incl("augmentor.loss_pairs"),
          "inclusive forward pass of a step; throughput on train_st and train_soft"),
    Layer("augmentor.scan_gru_ms", "ms/op", "lower", _self("augmentor.scan_gru"),
          "throughput on train_st, train_soft and predict"),
    Layer("augmentor.scan_steps", "steps/op", "lower", _count("augmentor.scan_steps"),
          "throughput on train_st, train_soft and predict"),
    Layer("augmentor.predict_batch_ms", "ms/op", "lower", _self("augmentor.predict_batch"),
          "throughput on predict_hard"),
    Layer("augmentor.reorder_ms", "ms/op", "lower", _self("augmentor.reorder"),
          "throughput on predict_hard"),
    Layer("augmentor.scanpath_encode_ms", "ms/op", "lower",
          _self("augmentor.scanpath_encode"), "throughput on predict_hard"),
    Layer("diffcore.backward_ms", "ms/op", "lower", _self("diffcore.backward"),
          "throughput on train_st, train_soft and pretrain; not predict"),
    Layer("diffcore.graph_nodes", "nodes/op", "lower", _count("diffcore.graph_nodes"),
          "diffcore.backward_ms and peak_rss_mb, most on train_soft"),
    *(Layer(f"diffcore.graph_nodes.{op}", "nodes/op", "lower",
            _count(f"diffcore.graph_nodes.{op}"),
            "diffcore.backward_ms; fused ops show here as exact counts")
      for op in GRAPH_OPS),
    Layer("trainkit.adamw_ms", "ms/op", "lower", _self("trainkit.adamw"),
          "throughput on train_st, train_soft and pretrain"),
    Layer("trainkit.dev_predict_ms", "ms/op", "lower", lambda s: s.per_op(s.dev_predict_ms),
          "throughput on train_st and train_soft (the dev pass inside train_joint)"),
    Layer("trainkit.skipped_updates", "count", "lower", lambda s: s.skipped_updates,
          "optimizer steps with no gradient on any trainable parameter"),
    Layer("cli.generate_ms", "ms/op", "lower", _incl("cli.generate"),
          "inclusive; self time is checkpoint loading and file I/O; throughput on generate"),
    Layer("trace.overhead_pct", "%", "lower", lambda s: s.overhead_pct,
          "median timed operation, traced over untraced sessions of the run"),
)


def summarize(tracer: Tracer, **rest) -> Summary:
    spans = tracer.spans
    clock = tracer.probe.clock
    span_ms = [clock.scaled(start, end) * 1e3 for _, start, end, *_ in spans]
    child_ms = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ms[parent] += span_ms[i]
    self_ms, incl_ms, calls, setup_ms = Counter(), Counter(), Counter(), Counter()
    dev_predict_ms = 0.0
    for i, (name, start, end, parent, _op, phase) in enumerate(spans):
        ms = span_ms[i]
        if phase == SETUP:
            setup_ms[name] += ms - child_ms[i]
        elif phase == RUN:
            self_ms[name] += ms - child_ms[i]
            incl_ms[name] += ms
            calls[name] += 1
            if (name == "trainkit.predict_instances" and parent >= 0
                    and spans[parent][0] == "trainkit.train_joint"):
                dev_predict_ms += ms
    return Summary(self_ms, incl_ms, calls, setup_ms, dev_predict_ms,
                   tracer.counts, **rest)


def layer_metrics(summary: Summary) -> dict[str, dict]:
    return {layer.name: {"value": float(layer.value(summary)), "unit": layer.unit}
            for layer in LAYERS}
