"""Wrappers the benchmark puts around gazenlu's public functions.

Two kinds, both installed by the benchmark process on itself:

* :class:`Probe` runs in every run. It times operations (a training
  step, a prediction batch, a ``generate`` call), checks their outputs
  and counts the ones that fail.
* :class:`Tracer` runs only in a traced run. It records one span per
  call at each layer boundary, kept in memory and written out at the end.

The program's own files are not touched; only module and class
attributes of the running process are replaced.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import time
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np

from gazenlu import augmentor, cli, corpus, gazegen, textenc, trainkit
from gazenlu.diffcore import Tensor, is_grad_enabled

MODULES = (textenc, gazegen, augmentor, trainkit, corpus, cli)

SETUP, RUN, CHECK = "setup", "run", "check"


class RefClock:
    """Wall time scaled by a reference kernel timed about every 0.1 s.

    The machines this runs on are shared, and their speed drifts by tens
    of percent over seconds. ``lap`` closes the segment of time since the
    previous lap and then times a fixed kernel of small numpy ops driven
    from Python, the same kind of work the program does. A segment's
    factor is the kernel's time over ``REF_MS``, as the median over the
    segments within ``WINDOW`` laps of it: one kernel run can land on a
    burst that the program mostly missed. ``scaled`` is how long an
    interval would take on a machine where the kernel takes ``REF_MS``;
    with ``raw`` it is the plain duration. Both leave out the kernel's
    own time. Read them once the run's laps are done.
    """

    REF_MS = 1.0
    SAMPLES = 4
    INTERVAL_S = 0.1
    WINDOW = 10

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 64)).astype(np.float32)
        self._b = (rng.standard_normal((64, 64)) / 8).astype(np.float32)
        self.segments: list[tuple[float, float, float]] = []   # start, end, factor
        self._mark = time.perf_counter()
        self._cache: tuple = (0, None)

    def _kernel(self) -> None:
        x = self._a
        for _ in range(150):
            x = np.tanh(x @ self._b) * 0.5 + self._a

    def factor(self) -> float:
        times = []
        for _ in range(self.SAMPLES):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        return float(np.median(times)) * 1e3 / self.REF_MS

    def tick(self) -> None:
        if time.perf_counter() - self._mark >= self.INTERVAL_S:
            self.lap()

    def lap(self) -> None:
        end = time.perf_counter()
        self.segments.append((self._mark, end, self.factor()))
        self._mark = time.perf_counter()

    def _table(self):
        """Segment starts, ends, smoothed factors and time before each."""
        n = len(self.segments)
        if self._cache[0] != n:
            seg = np.array(self.segments).reshape(n, 3)
            w = self.WINDOW
            f = np.array([np.median(seg[max(0, i - w):i + w + 1, 2]) for i in range(n)])
            length = seg[:, 1] - seg[:, 0]
            before_raw = np.concatenate([[0.0], np.cumsum(length)])
            before_scaled = np.concatenate([[0.0], np.cumsum(length / f)])
            self._cache = (n, (seg[:, 0], seg[:, 1], f, before_raw, before_scaled))
        return self._cache[1]

    def _reading(self, t: float, raw: bool) -> float:
        starts, ends, f, before_raw, before_scaled = self._table()
        i = bisect.bisect_right(starts, t) - 1
        if i < 0:
            return 0.0
        part = min(t, ends[i]) - starts[i]
        return before_raw[i] + part if raw else before_scaled[i] + part / f[i]

    def scaled(self, start: float, end: float, raw: bool = False) -> float:
        """Seconds of [start, end) covered by closed segments."""
        return float(self._reading(end, raw) - self._reading(start, raw))

    def median_factor(self) -> float:
        return float(np.median([f for _, _, f in self.segments]))


class Probe:
    """Operation accounting and output checks.

    Timed operations are kept as (start, end) and measured on the
    reference clock, which laps at the end of each, and about every 0.1 s
    in between (at collate and decode calls).

    A failed check marks the open operation as failed. A check that fails
    outside any operation (for example two sessions that should be equal
    and are not) counts as one failed operation of its own. Timings and
    path statistics are kept only in the ``run`` phase.
    """

    def __init__(self, timed_kind: str):
        self.timed_kind = timed_kind
        self.phase = SETUP
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.skipped_updates = 0
        # paths, fixations, stopped, live_slots, slots
        self.paths: Counter = Counter()
        self._kind: str | None = None
        self._start = 0.0
        self.op_spans: list[tuple[float, float]] = []
        self._bad = False
        self._last_collate = 0.0
        self._last_end = 0.0
        self.clock = RefClock()

    # -- operations ------------------------------------------------------

    def collate_started(self) -> None:
        self.clock.tick()
        self._last_collate = time.perf_counter()

    def begin(self, kind: str) -> None:
        """Open an operation; it started at the collate call feeding it."""
        if self.phase == SETUP:
            return
        if self._kind is not None:
            self.fail(f"{self._kind}_unfinished")
            self._close()
        now = time.perf_counter()
        self._kind = kind
        self._start = self._last_collate if self._last_collate > self._last_end else now
        self._bad = False

    def end(self, kind: str) -> None:
        if self.phase == SETUP or self._kind is None:
            return
        if self._kind != kind:
            self.fail(f"{self._kind}_ended_as_{kind}")
        elif self.phase == RUN and kind == self.timed_kind:
            self.op_spans.append((self._start, time.perf_counter()))
            self.clock.lap()
        self._close()

    def _close(self) -> None:
        self.attempted += 1
        self.failed += self._bad
        self._kind = None
        self._last_end = time.perf_counter()

    @contextmanager
    def operation(self, kind: str):
        self.begin(kind)
        yield
        self.end(kind)

    def abort(self, reason: str) -> None:
        """An exception ended the session; fail the open operation."""
        self.fail(reason)
        if self._kind is not None:
            self._close()

    @property
    def timed_ops(self) -> int:
        return len(self.op_spans)

    def op_ms(self, raw: bool = False) -> list[float]:
        return [self.clock.scaled(a, b, raw) * 1e3 for a, b in self.op_spans]

    # -- checks ----------------------------------------------------------

    def fail(self, reason: str) -> None:
        self.failures[reason] += 1
        if self._kind is None:
            self.attempted += 1
            self.failed += 1
        else:
            self._bad = True

    def check_loss(self, loss: Tensor) -> None:
        if not np.all(np.isfinite(loss.data)):
            self.fail("non_finite_loss")

    def check_logits(self, out, batch, n_out: int) -> None:
        if not isinstance(out, np.ndarray) or out.shape != (batch.size, n_out):
            self.fail("logits_shape")
        elif not np.all(np.isfinite(out)):
            self.fail("non_finite_logits")

    def check_paths(self, fixations, n_words, caps, stopped,
                    live_slots: int = 0, slots: int = 0) -> None:
        for path, n, cap in zip(fixations, n_words, caps):
            if len(path) > cap:
                self.fail("path_over_cap")
            if any(not 0 <= f < n for f in path):
                self.fail("fixation_out_of_range")
        if self.phase == RUN:
            self.paths.update(paths=len(fixations),
                              fixations=sum(len(p) for p in fixations),
                              stopped=int(np.sum(stopped)),
                              live_slots=live_slots, slots=slots)


class Tracer:
    """In-memory spans: (name, start, end, parent index, operation id, phase)."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cls_encoders: weakref.WeakSet = weakref.WeakSet()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        p = self.probe
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           p.attempted if p._kind is not None else -1, p.phase])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name, before=None):
        """``name`` is a string or a function of the call's arguments."""
        named = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            i = self.begin(name(*args) if named else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        return traced


# -- installation --------------------------------------------------------


# A later version of the program may remove a wrapped function or change
# its parameters; the wrappers then skip it (its metrics read 0) or find
# arguments by name, rather than stop the benchmark.


def _replace_function(module, attr: str, make) -> None:
    """Swap a function everywhere the gazenlu modules hold a reference."""
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapper = make(original)
    for mod in MODULES:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _replace_method(cls, attr: str, make) -> None:
    if hasattr(cls, attr):
        setattr(cls, attr, make(getattr(cls, attr)))


def _binder(fn):
    """(args, kwargs) -> the call's arguments by parameter name."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind_partial(*args, **kwargs).arguments


def graph_counts(loss: Tensor) -> Counter:
    """Op nodes reachable from ``loss`` the way backward walks them."""
    counts: Counter = Counter()
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op != "leaf":
            counts[node._op] += 1
        stack.extend(p for p in node._parents if p.requires_grad)
    return counts


def install_tracer(tracer: Tracer) -> None:
    """Spans at every layer boundary; install before the probe."""
    t = tracer
    for module, attr, name in (
        (textenc, "collate", "textenc.collate"),
        (textenc, "tokenize", "textenc.tokenize"),
        (corpus, "make_synthetic_suite", "corpus.make_synthetic"),
        (augmentor, "reorder", "augmentor.reorder"),
        (augmentor, "scanpath_encode", "augmentor.scanpath_encode"),
        (trainkit, "predict_instances", "trainkit.predict_instances"),
        (trainkit, "train_joint", "trainkit.train_joint"),
        (trainkit, "pretrain_generator", "trainkit.pretrain_generator"),
        (cli, "cmd_generate", "cli.generate"),
    ):
        _replace_function(module, attr, lambda fn, n=name: t.wrap(fn, n))

    gen = gazegen.ScanpathGenerator
    for cls, attr, name in (
        (gen, "encode_words_batch", "gazegen.encode_words"),
        (gen, "sample_gumbel_batch", "gazegen.sample_st"),
        (gen, "sample_gumbel", "gazegen.sample_soft"),
        (gen, "sample_hard", "gazegen.sample_hard"),
        (gen, "nll_batch", "gazegen.nll"),
        (gen, "decode_logits_batch", "gazegen.decode"),
        (gen, "history_step", "gazegen.history"),
        (augmentor.JointModel, "loss_pairs", "augmentor.loss_pairs"),
        (augmentor.JointModel, "predict_batch", "augmentor.predict_batch"),
        (trainkit.AdamW, "step", "trainkit.adamw"),
    ):
        _replace_method(cls, attr, lambda fn, n=name: t.wrap(fn, n))

    def encoder_name(enc, *args):
        return "textenc.cls_forward" if enc in t.cls_encoders else "textenc.gen_forward"

    _replace_method(textenc.TextEncoder, "forward_batch",
                    lambda fn: t.wrap(fn, encoder_name))

    def scan_gru(fn):
        arguments = _binder(fn)

        def count_steps(*args, **kwargs):
            if t.probe.phase == RUN:
                t.counts["augmentor.scan_steps"] += len(arguments(args, kwargs)["steps"])

        return t.wrap(fn, "augmentor.scan_gru", before=count_steps)

    _replace_method(augmentor.ScanpathEncoder, "run_steps", scan_gru)

    def count_graph(loss):
        if t.probe.phase != RUN:
            return
        for op, n in graph_counts(loss).items():
            t.counts["diffcore.graph_nodes"] += n
            t.counts[f"diffcore.graph_nodes.{op}"] += n

    _replace_method(Tensor, "backward",
                    lambda fn: t.wrap(fn, "diffcore.backward", before=count_graph))

    def joint_init(fn):
        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            t.cls_encoders.add(self.cls_encoder)
        return init

    _replace_method(augmentor.JointModel, "__init__", joint_init)


def install_probe(probe: Probe) -> None:
    """Operation boundaries and output checks, in every run."""
    p = probe

    def collate(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            p.collate_started()
            return fn(*args, **kwargs)
        return wrapped

    _replace_function(textenc, "collate", collate)

    def loss_pairs(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            p.begin("step")
            loss = fn(*args, **kwargs)
            p.check_loss(loss)
            return loss
        return wrapped

    _replace_method(augmentor.JointModel, "loss_pairs", loss_pairs)

    def batch_nll(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if is_grad_enabled():       # a training step, not the dev pass
                p.begin("step")
            out = fn(*args, **kwargs)
            p.check_loss(out[0])        # (loss, decisions)
            return out
        return wrapped

    _replace_method(trainkit.GazeModel, "batch_nll", batch_nll)

    def nll_batch(fn):
        arguments = _binder(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if p.phase == RUN:
                paths = arguments(args, kwargs)["paths"]
                p.paths.update(paths=len(paths),
                               fixations=sum(len(x) for x in paths),
                               stopped=len(paths))
            return out
        return wrapped

    _replace_method(gazegen.ScanpathGenerator, "nll_batch", nll_batch)

    def decode_logits_batch(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            p.clock.tick()
            return fn(*args, **kwargs)
        return wrapped

    _replace_method(gazegen.ScanpathGenerator, "decode_logits_batch",
                    decode_logits_batch)

    def adamw_step(fn):
        @functools.wraps(fn)
        def wrapped(self):
            if not any(t.grad is not None for _, t in self.slots):
                p.skipped_updates += 1
                p.fail("skipped_update")
            fn(self)
            p.end("step")
        return wrapped

    _replace_method(trainkit.AdamW, "step", adamw_step)

    def predict_batch(fn):
        arguments = _binder(fn)

        @functools.wraps(fn)
        def wrapped(self, *args, **kwargs):
            p.begin("predict")
            out = fn(self, *args, **kwargs)
            p.check_logits(out, arguments((self, *args), kwargs)["batch"],
                           self.head.n_out)
            p.end("predict")
            return out
        return wrapped

    _replace_method(augmentor.JointModel, "predict_batch", predict_batch)

    def sample_gumbel_batch(fn):
        arguments = _binder(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            a = arguments(args, kwargs)
            counts = a["counts"]
            caps = np.broadcast_to(np.asarray(a["max_fixations"]), (len(counts),))
            p.check_paths(out.fixations, counts, caps, out.stopped,
                          int(out.row_mask.sum()), out.row_mask.size)
            return out
        return wrapped

    _replace_method(gazegen.ScanpathGenerator, "sample_gumbel_batch",
                    sample_gumbel_batch)

    def single_path(fn, soft_only: bool):
        arguments = _binder(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sp = fn(*args, **kwargs)
            a = arguments(args, kwargs)
            # straight-through paths come from the batched sampler, which
            # is already checked; only soft-convolution paths are new here
            if not soft_only or a["cfg"].mode == gazegen.SOFT_CONVOLUTION:
                w = a["word_states"].shape[0]
                cap = a.get("max_fixations") or gazegen.default_max_fixations(w)
                p.check_paths([sp.fixations], [w], [cap], [sp.stopped])
            return sp
        return wrapped

    _replace_method(gazegen.ScanpathGenerator, "sample_gumbel",
                    lambda fn: single_path(fn, soft_only=True))
    _replace_method(gazegen.ScanpathGenerator, "sample_hard",
                    lambda fn: single_path(fn, soft_only=False))
