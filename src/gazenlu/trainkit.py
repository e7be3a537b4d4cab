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
    if "int" in base:
        return int(value)
    return float(value)


# -- optimizer -----------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over a module's trainable parameters.

    The slots are fixed at construction. Each keeps float64 moments and a
    scratch buffer, updated in place; a parameter with no gradient on a
    step is left alone and its step count does not advance. Every step
    assigns a fresh array to ``t.data``, so a snapshot taken earlier never
    changes.
    """

    def __init__(self, model: Module, lr: float, weight_decay: float = WEIGHT_DECAY):
        self.slots = [(n, t) for n, t in model.named_parameters() if t.requires_grad]
        names = [n for n, _ in self.slots]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = lr
        self.weight_decay = weight_decay
        self._buffers = [(np.zeros(t.data.shape), np.zeros(t.data.shape),
                          np.empty(t.data.shape)) for _, t in self.slots]
        self._steps = [0] * len(self.slots)

    @property
    def n_params(self) -> int:
        return len(self.slots)

    def step(self) -> None:
        b1, b2 = ADAM_BETAS
        for i, (name, t) in enumerate(self.slots):
            g = t.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            m, v, s = self._buffers[i]
            self._steps[i] += 1
            k = self._steps[i]
            # in float64 and in the order of the textbook update
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd*p)
            # so every value is bit-identical to it
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s, dtype=np.float64)
            v *= b2
            np.multiply(g, 1.0 - b2, out=s, dtype=np.float64)
            v += np.multiply(s, g, out=s, dtype=np.float64)
            np.divide(v, 1.0 - b2 ** k, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            update = np.divide(m, 1.0 - b1 ** k)
            update /= s
            p = t.data
            update += np.multiply(p, self.weight_decay, out=s)
            update *= self.lr
            t.data = np.subtract(p, update, out=update).astype(p.dtype)


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
    """One optimizer step on ``loss``. A loss without a graph while the
    optimizer holds trainable parameters would leave every gradient
    unset and the step a silent no-op, so it is an error."""
    if loss._backward is None and opt.n_params:
        raise RuntimeError(
            f"training loss has no graph but {opt.n_params} parameters are "
            f"trainable; was it computed under no_grad or from frozen inputs?"
        )
    model.zero_grad()
    loss.backward()
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
    ``root`` and hands them out in batches. ``step(rows, epoch, drop_rng)``
    returns a batch's loss and its weight in the epoch's train loss, and
    the loss is applied. ``dev_value()`` then scores the epoch for early
    stopping in ``mode``. The model ends holding the best-dev parameters;
    with no epoch run, those are the ones it started with.
    """
    stopper = EarlyStopper(config.patience, mode)
    best_state = model.state_dict()
    history: list[dict] = []
    for epoch in range(1, config.max_epochs + 1):
        model.train()
        order = root.substream("order", epoch).shuffled(items)
        total, count = 0.0, 0
        for bi, idx in enumerate(_batched(len(order), config.batch_size)):
            loss, n = step([order[i] for i in idx], epoch,
                           root.substream("drop", epoch, bi))
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
                 l_max: int = 32, seed: int = 42):
        super().__init__()
        root = RngState(seed, 0)
        self.gen_encoder = TextEncoder(text_cfg, root.substream("gen_enc"))
        self.generator = ScanpathGenerator(
            GeneratorConfig(text_cfg.d_model, gen_hidden, l_max),
            root.substream("generator"),
        )

    def word_states(self, batch: Batch, drop_rng: RngState | None) -> Tensor:
        _, _, words = self.gen_encoder.forward_batch(batch, drop_rng)
        return self.generator.encode_words_batch(words, batch.word_counts)

    def batch_nll(self, batch: Batch, paths: list[list[int]],
                  drop_rng: RngState | None):
        ws = self.word_states(batch, drop_rng)
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

    def step(rows, epoch, drop_rng):
        batch = collate([tr_encs[i] for i in rows])
        return model.batch_nll(batch, [tr_paths[i] for i in rows], drop_rng)

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

    def step(rows, epoch, drop_rng):
        batch = collate([tr_encs[i] for i, _ in rows])
        pair_rngs = [
            root.substream("gumbel", epoch, train_instances[i].instance_id, p)
            for i, p in rows
        ]
        loss = model.loss_pairs(batch, tr_labels[[i for i, _ in rows]],
                                pair_rngs, drop_rng)
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
        "n_trainable": opt.n_params,
    }
