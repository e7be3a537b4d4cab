"""Two-phase training: scanpath pretraining, then joint fine-tuning.

Phase one fits the generator to recorded fixation sequences by
teacher-forced NLL. Phase two trains the full model on a labeled task,
optionally starting from (and optionally freezing) the pretrained
generator. Both phases early-stop on a dev signal and keep the best-dev
parameter snapshot. Runs are bit-reproducible from (seed, data,
config).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .augmentor import TEXT_ONLY, JointModel
from .corpus import GazeRecord, TextInstance
from .diffcore import Module, RngState, Tensor, no_grad
from .gazegen import GeneratorConfig, ScanpathGenerator
from .textenc import (Batch, EncodedText, TextEncoder, TextEncoderConfig,
                      Vocab, collate, tokenize, tokenize_whole)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
IMPROVE_TOL = 1e-6
# values per AdamW update block: the block's float32 moments and scratch
# stay in L2 (measured faster than 16,384 and no slower than 65,536)
UPDATE_BLOCK = 32768


@dataclass
class TrainConfig:
    """Both phases read batch_size, max_epochs, patience, seed and
    weight_decay; pretraining reads pretrain_lr, joint training the rest.
    Pretraining never reads lr, so it may stay None; joint training
    refuses to start without it."""

    lr: float | None = None
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    n_scanpaths_train: int = 3
    freeze_generator: bool = False
    pretrained_generator: bool = True
    seed: int = 42
    weight_decay: float = WEIGHT_DECAY
    pretrain_lr: float = 1e-3

    def __post_init__(self):
        for name in ("lr", "pretrain_lr"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name, low in (("batch_size", 1), ("max_epochs", 0), ("patience", 1),
                          ("n_scanpaths_train", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def load_config(path, overrides: dict | None = None) -> TrainConfig:
    """Flat key=value file; `overrides` (e.g. CLI flags) win over the file."""
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    raw: dict = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = _coerce(key, types[key], value.strip(), f"{path}:{lineno}")
    for key, value in (overrides or {}).items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        raw[key] = value if not isinstance(value, str) else _coerce(
            key, types[key], value, "override"
        )
    return TrainConfig(**raw)


def _coerce(key: str, typ: str, value: str, where: str):
    base = str(typ)
    if "bool" in base:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{where}: {key} expects true/false, got {value!r}")
    kind = int if "int" in base else float
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{where}: {key} expects {'an int' if kind is int else 'a number'}, "
                         f"got {value!r}") from None


# -- optimizer -----------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over a module's trainable parameters.

    The slots are fixed at construction, which also moves the slots'
    values into one flat buffer per dtype and rebinds each ``t.data`` to
    a view of it; the moments are flat arrays of that dtype beside it,
    so float32 parameters update in float32 and float64 ones in float64,
    as the published AdamW keeps its moments at the parameters' precision
    (Loshchilov & Hutter 2019, arXiv 1711.05101). A step
    updates those views in place, so a snapshot must be a copy, as
    ``state_dict`` makes. A parameter with no gradient on a step is left
    alone and its step count does not advance. A step changes nothing
    unless every gradient has its parameter's shape and dtype and is
    finite. A parameter whose ``.data`` was rebound since the last step
    (``load_state_dict`` does that) is copied back into the buffer first.
    """

    def __init__(self, model: Module, lr: float, weight_decay: float = WEIGHT_DECAY):
        self.slots = [(n, t) for n, t in model.named_parameters() if t.requires_grad]
        names = [n for n, _ in self.slots]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = lr
        self.weight_decay = weight_decay
        self._steps = [0] * len(self.slots)
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, (_, t) in enumerate(self.slots):
            by_dtype.setdefault(t.data.dtype, []).append(i)
        self._flats = [_Flat([self.slots[i][1] for i in index], index)
                       for index in by_dtype.values()]
        self._views = [t.data for _, t in self.slots]

    @property
    def n_params(self) -> int:
        return len(self.slots)

    def step(self) -> None:
        for (name, t), view in zip(self.slots, self._views):
            if t.data is not view:
                _check_like(name, "value", t.data, view)
                view[...] = t.data
                t.data = view
            if t.grad is not None:
                _check_like(name, "gradient", t.grad, view)
        runs = [run for f in self._flats for run in f.runs(self.slots, self._steps)]
        for f, j0, j1, _ in runs:
            np.concatenate([self.slots[i][1].grad for i in f.index[j0:j1]], axis=None,
                           out=f.grad[f.bounds[j0]:f.bounds[j1]])
        if not all(np.isfinite(f.grad[f.bounds[j0]:f.bounds[j1]]).all()
                   for f, j0, j1, _ in runs):
            name = next(n for n, t in self.slots
                        if t.grad is not None and not np.all(np.isfinite(t.grad)))
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        for f, j0, j1, k in runs:
            for at in range(f.bounds[j0], f.bounds[j1], UPDATE_BLOCK):
                self._update_block(f, slice(at, min(at + UPDATE_BLOCK, f.bounds[j1])), k)
            for i in f.index[j0:j1]:
                self._steps[i] = k

    def _update_block(self, f: "_Flat", block: slice, k: int) -> None:
        """The textbook update at step ``k`` over one block, in the
        block's own dtype:
            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd*p)
        Each value goes through the numpy calls a per-parameter loop in
        that dtype makes, so it is bit-identical to one; the block keeps
        its moments and scratch in cache."""
        b1, b2 = ADAM_BETAS
        m, v, p, g = f.m[block], f.v[block], f.data[block], f.grad[block]
        s, update = f.scratch[:, :p.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        np.multiply(g, 1.0 - b2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(v, 1.0 - b2 ** k, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, 1.0 - b1 ** k, out=update)
        update /= s
        update += np.multiply(p, self.weight_decay, out=s)
        update *= self.lr
        p -= update


class _Flat:
    """The values of some same-dtype slots laid end to end, in slot order,
    with a staging buffer for their gradients, their moments and one
    update block's scratch, all of that dtype.
    Construction rebinds each tensor's ``.data`` to its view of the buffer.
    ``index`` holds the slot numbers; slot ``index[j]`` owns values
    ``bounds[j]:bounds[j + 1]``."""

    def __init__(self, tensors: list[Tensor], index: list[int]):
        self.index = index
        self.bounds = [0, *itertools.accumulate(t.data.size for t in tensors)]
        self.data = np.concatenate([t.data for t in tensors], axis=None)
        self.grad = np.empty_like(self.data)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.scratch = np.empty((2, min(UPDATE_BLOCK, self.data.size)), self.data.dtype)
        for t, a, b in zip(tensors, self.bounds, self.bounds[1:]):
            t.data = self.data[a:b].reshape(t.data.shape)

    def runs(self, slots: list, steps: list[int]):
        """(self, j0, j1, k) for each maximal run of slots ``index[j0:j1]``
        that have a gradient and share the step count ``k - 1``."""
        at = 0
        for k, same in itertools.groupby(
                self.index, lambda i: None if slots[i][1].grad is None else steps[i]):
            j1 = at + sum(1 for _ in same)
            if k is not None:
                yield self, at, j1, k + 1
            at = j1


def _check_like(name: str, what: str, arr: np.ndarray, view: np.ndarray) -> None:
    if arr.shape != view.shape or arr.dtype != view.dtype:
        raise ValueError(
            f"{what} of parameter {name!r} is {arr.dtype} of shape {arr.shape}, "
            f"but its optimizer slot holds {view.dtype} of shape {view.shape}"
        )


class EarlyStopper:
    """Patience counter with strict improvement beyond a small tolerance."""

    def __init__(self, patience: int = 3, mode: str = "max"):
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be max|min, got {mode!r}")
        self.patience = patience
        self.mode = mode
        self.best_value = -np.inf if mode == "max" else np.inf
        self.best_epoch = 0
        self.bad_epochs = 0
        self.epoch = 0

    def update(self, value: float) -> bool:
        """Record one epoch's dev value; returns True on improvement."""
        self.epoch += 1
        if self.mode == "max":
            improved = value > self.best_value + IMPROVE_TOL
        else:
            improved = value < self.best_value - IMPROVE_TOL
        if improved:
            self.best_value = value
            self.best_epoch = self.epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return improved

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


# -- shared plumbing -----------------------------------------------------


def _batched(n: int, size: int):
    for at in range(0, n, size):
        yield range(at, min(at + size, n))


def _update(model: Module, opt: AdamW, loss: Tensor) -> None:
    """One optimizer step on ``loss``. A loss whose graph reaches none of
    the optimizer's trainable parameters would leave every gradient unset
    and the step a silent no-op, so it is an error."""
    model.zero_grad()
    loss.backward()
    if opt.n_params and all(t.grad is None for _, t in opt.slots):
        raise RuntimeError(
            f"training loss has no graph to any of the {opt.n_params} trainable "
            f"parameters; was it computed under no_grad or from frozen inputs?"
        )
    opt.step()


def _append_log(log_path, record: dict) -> None:
    if log_path is None:
        return
    with open(log_path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def _fit(model: Module, opt: AdamW, config: TrainConfig, root: RngState,
         items: list, step, dev_value, mode: str, log_path):
    """The epoch loop of both phases; returns (best state, stopper, history).

    Each epoch shuffles ``items`` with the epoch's "order" substream of
    ``root`` and hands them out in batches. ``step(rows, epoch, drop_rngs)``
    returns a batch's loss and its weight in the epoch's train loss, and
    the loss is applied. ``drop_rngs`` holds one dropout stream per row,
    keyed by the row's item and the epoch, so the masks an item draws do
    not depend on the batch it falls in. ``dev_value()`` then scores the
    epoch for early stopping in ``mode``. The model ends holding the best-dev parameters;
    with no epoch run, those are the ones it started with.
    """
    stopper = EarlyStopper(config.patience, mode)
    best_state = model.state_dict()
    history: list[dict] = []
    for epoch in range(1, config.max_epochs + 1):
        model.train()
        order = root.substream("order", epoch).shuffled(items)
        total, count = 0.0, 0
        for idx in _batched(len(order), config.batch_size):
            rows = [order[i] for i in idx]
            loss, n = step(rows, epoch,
                           root.substreams("drop", epoch, tails=[(r,) for r in rows]))
            _update(model, opt, loss)
            total += float(loss.data) * n
            count += n
        row = {"epoch": epoch, "train_loss": total / count,
               "dev_metric": dev_value()}
        history.append(row)
        _append_log(log_path, row)
        if stopper.update(row["dev_metric"]):
            best_state = model.state_dict()
        if stopper.should_stop:
            break
    model.load_state_dict(best_state)
    return best_state, stopper, history


def encode_instances(instances: list[TextInstance], vocab: Vocab,
                     max_len: int) -> list[EncodedText]:
    return [tokenize(i.text1, i.text2, vocab, max_len) for i in instances]


# -- phase one: generator pretraining ------------------------------------


class GazeModel(Module):
    """Text encoder feeding the scanpath generator, as one checkpoint unit.

    Submodule names match the joint model's generator-side names, so a
    pretrained state dict loads directly via load_generator_state.
    """

    def __init__(self, text_cfg: TextEncoderConfig, gen_hidden: int = 128,
                 l_max: int = 32, seed: int = 42, rng: RngState | None = None):
        """``rng`` draws the initialisation; by default the stream
        ``RngState(seed, 0)``."""
        super().__init__()
        root = RngState(seed, 0) if rng is None else rng
        self.gen_encoder = TextEncoder(text_cfg, root.substream("gen_enc"))
        self.generator = ScanpathGenerator(
            GeneratorConfig(text_cfg.d_model, gen_hidden, l_max),
            root.substream("generator"),
        )

    def word_states(self, batch: Batch, drop_rngs: list[RngState] | None) -> Tensor:
        _, _, words = self.gen_encoder.forward_batch(batch, drop_rngs)
        return self.generator.encode_words_batch(words, batch.word_counts)

    def batch_nll(self, batch: Batch, paths: list[list[int]],
                  drop_rngs: list[RngState] | None):
        """``drop_rngs`` holds one dropout stream per path, or is None."""
        ws = self.word_states(batch, drop_rngs)
        return self.generator.nll_batch(ws, batch.word_counts, paths)


def _corpus_nll(model: GazeModel, encs: list[EncodedText],
                paths: list[list[int]], batch_size: int) -> float:
    total, steps = 0.0, 0
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for idx in _batched(len(encs), batch_size):
                batch = collate([encs[i] for i in idx])
                loss, n = model.batch_nll(batch, [paths[i] for i in idx], None)
                total += float(loss.data) * n
                steps += n
    finally:
        model.train(was_training)
    return total / steps


def pretrain_generator(model: GazeModel, train_records: list[GazeRecord],
                       dev_records: list[GazeRecord], vocab: Vocab,
                       config: TrainConfig, log_path=None):
    """Teacher-forced NLL training; returns (best state dict, history).

    history rows mirror the JSONL log: {epoch, train_loss, dev_metric},
    where dev_metric is pooled dev NLL (lower is better). With
    max_epochs=0 the returned state is the untouched initialization.
    """
    if not train_records or not dev_records:
        raise ValueError("pretraining needs non-empty train and dev corpora")
    max_len = model.gen_encoder.cfg.max_len

    def name(r: GazeRecord) -> str:
        return f"gaze sentence {r.sentence_id} (reader {r.reader_id})"

    tr_encs = [tokenize_whole(r.text, vocab, max_len, name(r)) for r in train_records]
    dev_encs = [tokenize_whole(r.text, vocab, max_len, name(r)) for r in dev_records]
    for r, enc in zip(train_records + dev_records, tr_encs + dev_encs):
        model.generator.check_width(enc.n_words, name(r))
    tr_paths = [r.fixations for r in train_records]
    dev_paths = [r.fixations for r in dev_records]

    def step(rows, epoch, drop_rngs):
        batch = collate([tr_encs[i] for i in rows])
        return model.batch_nll(batch, [tr_paths[i] for i in rows], drop_rngs)

    opt = AdamW(model, config.pretrain_lr, weight_decay=config.weight_decay)
    best_state, stopper, history = _fit(
        model, opt, config, RngState(config.seed, 0).substream("pretrain"),
        list(range(len(tr_encs))), step,
        lambda: _corpus_nll(model, dev_encs, dev_paths, config.batch_size),
        "min", log_path,
    )
    return best_state, {
        "epochs": history,
        "best_epoch": stopper.best_epoch,
        "best_dev_nll": None if not history else stopper.best_value,
        "n_params": opt.n_params,
    }


# -- phase two: joint fine-tuning ----------------------------------------


def accuracy_from_logits(outputs: np.ndarray, labels: np.ndarray) -> float:
    return float((outputs.argmax(axis=1) == labels).mean())


def predict_instances(model: JointModel, encs: list[EncodedText],
                      sentence_ids: list, n_scanpaths: int, rng: RngState,
                      batch_size: int = 64) -> np.ndarray:
    """Averaged pre-softmax outputs for a list of encoded instances."""
    outs = []
    for idx in _batched(len(encs), batch_size):
        batch = collate([encs[i] for i in idx])
        outs.append(model.predict_batch(
            batch, [sentence_ids[i] for i in idx], n_scanpaths, rng
        ))
    return np.concatenate(outs, axis=0)


def train_joint(model: JointModel, train_instances: list[TextInstance],
                dev_instances: list[TextInstance], vocab: Vocab,
                config: TrainConfig, metric_fn=None,
                generator_state: dict | None = None, log_path=None):
    """Task fine-tuning over (instance, scanpath) pairs with early stopping.

    Returns (best state dict, history). The optimizer covers exactly the
    trainable parameters; freezing the generator removes its parameters
    from the update set before the first step.
    """
    if config.lr is None:
        raise ValueError("joint training needs config.lr")
    if metric_fn is None:
        metric_fn = accuracy_from_logits
    uses_gaze = model.cfg.model_kind != TEXT_ONLY
    if uses_gaze:
        if config.pretrained_generator:
            if generator_state is None:
                raise ValueError(
                    "config.pretrained_generator requires a generator state"
                )
            model.load_generator_state(generator_state)
        if config.freeze_generator:
            model.freeze_generator()

    max_len = model.cfg.text.max_len
    tr_encs = encode_instances(train_instances, vocab, max_len)
    dev_encs = encode_instances(dev_instances, vocab, max_len)
    if uses_gaze:
        for split, insts, encs in (("train", train_instances, tr_encs),
                                   ("dev", dev_instances, dev_encs)):
            for inst, enc in zip(insts, encs):
                model.generator.check_width(
                    enc.n_words, f"{split} instance {inst.instance_id}")
    tr_labels = np.array([i.label for i in train_instances])
    dev_labels = np.array([i.label for i in dev_instances])
    dev_ids = [i.instance_id for i in dev_instances]

    n_paths = config.n_scanpaths_train if uses_gaze else 1
    pairs = [(i, p) for i in range(len(tr_encs)) for p in range(n_paths)]

    root = RngState(config.seed, 0).substream("joint")
    dev_rng = root.substream("dev")

    def step(rows, epoch, drop_rngs):
        batch = collate([tr_encs[i] for i, _ in rows])
        pair_rngs = root.substreams(
            "gumbel", epoch, tails=[(train_instances[i].instance_id, p) for i, p in rows])
        loss = model.loss_pairs(batch, tr_labels[[i for i, _ in rows]],
                                pair_rngs, drop_rngs)
        return loss, len(rows)

    def dev_value():
        outputs = predict_instances(
            model, dev_encs, dev_ids, n_paths, dev_rng, config.batch_size
        )
        return metric_fn(outputs, dev_labels)

    opt = AdamW(model, config.lr, weight_decay=config.weight_decay)
    best_state, stopper, history = _fit(model, opt, config, root, pairs, step,
                                        dev_value, "max", log_path)
    return best_state, {
        "epochs": history,
        "best_epoch": stopper.best_epoch,
        "best_dev_metric": None if not history else stopper.best_value,
        "n_params": opt.n_params,
    }
