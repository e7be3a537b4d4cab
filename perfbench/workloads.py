"""The benchmark's workloads: a set-up and one fixed-size session each.

The workload seed draws every input from a fixed synthetic suite (see
BASE_SEED). A session is a fixed amount of work through a public entry
point (``train_joint``, ``pretrain_generator``, ``predict_instances`` or
``gazenlu generate``), started from the same state each time, so every
session of a run does the same work and must return the same result.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from gazenlu import cli, corpus, textenc, trainkit
from gazenlu.augmentor import JointModel, ModelConfig
from gazenlu.diffcore import RngState, load_checkpoint
from gazenlu.gazegen import SOFT_CONVOLUTION, STRAIGHT_THROUGH, GumbelConfig

from instrument import Probe

N_PATHS = 3         # scanpaths per instance, in training and prediction
L_MAX = 32
MAX_LEN = 64
VOCAB_SIZE = 512
# from the BERT-style fine-tuning grid in trainkit; at 1e-3, soft-mode path
# lengths, and with them step times, varied 2x from one seed to another
JOINT_LR = 3e-5
PRETRAIN_LR = 1e-3
# One synthetic language for every seed: the suite (word pool, vocabulary,
# gaze corpus) comes from BASE_SEED, and so does every initialization,
# shuffle and noise stream, so each run's set-up pretrains the same
# generator. The workload seed draws the inputs fed to it: which
# instances and sentences, out of pools POOL times the size drawn.
BASE_SEED = 0
POOL = 2


@dataclass(frozen=True)
class Size:
    gaze_sentences: int       # pretrain corpus, two readers each
    gaze_dev: int
    setup_sentences: int      # the set-up pretrains on these, kept out of the pool
    keyword: tuple            # train, dev, eval instances
    pairs: tuple              # train, dev instances
    batch: int
    predict_batch: int
    generate_sentences: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    gen_hidden: int


FULL = Size(gaze_sentences=400, gaze_dev=64, setup_sentences=128,
            keyword=(128, 32, 256), pairs=(128, 16), batch=32, predict_batch=64,
            generate_sentences=128, d_model=64, n_layers=2, n_heads=4,
            d_ff=256, gen_hidden=64)
# for the benchmark's own smoke test: every path, seconds not minutes
TINY = Size(gaze_sentences=16, gaze_dev=8, setup_sentences=8,
            keyword=(8, 4, 8), pairs=(4, 4), batch=8, predict_batch=4,
            generate_sentences=4, d_model=16, n_layers=1, n_heads=2,
            d_ff=32, gen_hidden=16)
SIZES = {"full": FULL, "tiny": TINY}


def run_cli(argv: list[str]) -> int:
    """``gazenlu <argv>`` in this process, its stdout kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Prepared:
    inputs: dict[str, list]     # what the workload seed drew
    gaze_dev: list
    vocab: textenc.Vocab
    text_cfg: textenc.TextEncoderConfig
    gen_state: dict
    generator_dir: str


def prepare(seed: int, size: Size, workdir: str) -> Prepared:
    """Suite, vocabulary, a generator pretrained by ``gazenlu pretrain-gaze``
    and the inputs drawn with the workload seed."""
    suite = corpus.make_synthetic_suite(
        BASE_SEED, n_gaze_train=size.setup_sentences + POOL * size.gaze_sentences,
        n_gaze_dev=size.gaze_dev, readers=2,
        n_keyword=tuple(POOL * n for n in size.keyword),
        n_pairs=(POOL * size.pairs[0], POOL * size.pairs[1], 0),
    )
    vocab = textenc.build_vocab(suite.vocab_lines(), VOCAB_SIZE)
    sentences = [list(g) for _, g in
                 itertools.groupby(suite.gaze_train, key=lambda r: r.sentence_id)]
    draw = RngState(seed, 0).substream("inputs")

    def pick(name: str, items: list, n: int) -> list:
        return draw.substream(name).shuffled(items)[:n]

    inputs = {
        "keyword_train": pick("keyword_train", suite.keyword_train, size.keyword[0]),
        "keyword_dev": pick("keyword_dev", suite.keyword_dev, size.keyword[1]),
        "keyword_eval": pick("keyword_eval", suite.keyword_test, size.keyword[2]),
        "pairs_train": pick("pairs_train", suite.pairs_train, size.pairs[0]),
        "pairs_dev": pick("pairs_dev", suite.pairs_dev, size.pairs[1]),
        "gaze_train": [r for readers in pick("gaze_train",
                                             sentences[size.setup_sentences:],
                                             size.gaze_sentences)
                       for r in readers],
    }

    os.makedirs(workdir, exist_ok=True)
    train_tsv = os.path.join(workdir, "gaze_train.tsv")
    dev_tsv = os.path.join(workdir, "gaze_dev.tsv")
    vocab_txt = os.path.join(workdir, "vocab.txt")
    corpus.write_gaze_corpus(
        train_tsv, [r for readers in sentences[:size.setup_sentences] for r in readers])
    corpus.write_gaze_corpus(dev_tsv, suite.gaze_dev)
    vocab.save(vocab_txt)
    generator_dir = os.path.join(workdir, "generator")
    rc = run_cli([
        "pretrain-gaze", "--train", train_tsv, "--dev", dev_tsv,
        "--vocab", vocab_txt, "--d-model", str(size.d_model),
        "--n-layers", str(size.n_layers), "--n-heads", str(size.n_heads),
        "--d-ff", str(size.d_ff), "--max-len", str(MAX_LEN),
        "--gen-hidden", str(size.gen_hidden), "--l-max", str(L_MAX),
        "--max-epochs", "1", "--patience", "2",
        "--batch-size", str(size.batch), "--seed", str(BASE_SEED),
        "--out", generator_dir,
    ])
    if rc != 0:
        raise RuntimeError(f"gazenlu pretrain-gaze exited with {rc}")
    text_cfg = textenc.TextEncoderConfig(
        vocab_size=len(vocab.token_to_id), d_model=size.d_model,
        n_layers=size.n_layers, n_heads=size.n_heads, d_ff=size.d_ff,
        max_len=MAX_LEN,
    )
    gen_state = load_checkpoint(os.path.join(generator_dir, "generator.ckpt"))
    return Prepared(inputs, suite.gaze_dev, vocab, text_cfg, gen_state, generator_dir)


class Workload:
    """``setup`` (timed as set-up), then repeated ``session`` calls.

    ``session`` returns (items of work done, a value that must be equal
    for every session of the run). ``recheck`` runs after the timed
    window; ``info`` adds context to the printed results.
    """

    timed = "step"          # the operation step_ms_p50 times
    unit = ""               # what one item of throughput is

    def __init__(self, seed: int, size: Size, probe: Probe, workdir: str):
        self.seed = seed
        self.size = size
        self.probe = probe
        self.workdir = workdir

    def setup(self) -> None:
        self.prep = prepare(self.seed, self.size, self.workdir)
        self.ready()

    def ready(self) -> None:
        pass

    def session(self) -> tuple[int, object]:
        raise NotImplementedError

    def recheck(self) -> None:
        pass

    def info(self) -> dict:
        return {}

    def model_cfg(self, mode: str = STRAIGHT_THROUGH,
                  hard_eval: bool = False) -> ModelConfig:
        return ModelConfig(text=self.prep.text_cfg, gen_hidden=self.size.gen_hidden,
                           l_max=L_MAX,
                           gumbel=GumbelConfig(mode=mode, hard_eval=hard_eval))

    def predict_twice(self, model: JointModel, encs, ids) -> None:
        """Same batch, same RNG: equal outputs, and the model unchanged."""
        before = {k: v.copy() for k, v in model.state_dict().items()}
        training = model.training
        rng = RngState(BASE_SEED, 0).substream("recheck")
        n = self.size.predict_batch
        a = trainkit.predict_instances(model, encs[:n], ids[:n], N_PATHS, rng, n)
        b = trainkit.predict_instances(model, encs[:n], ids[:n], N_PATHS, rng, n)
        if not np.array_equal(a, b):
            self.probe.fail("predict_not_repeatable")
        after = model.state_dict()
        if model.training != training or any(
                not np.array_equal(before[k], after[k]) for k in before):
            self.probe.fail("predict_mutated_model")


class Train(Workload):
    """``train_joint`` from the set-up generator, dev pass every epoch."""

    unit = "pairs"

    def __init__(self, *args, mode: str, task: str, epochs: int):
        super().__init__(*args)
        self.mode, self.task, self.epochs = mode, task, epochs

    def ready(self) -> None:
        self.train = self.prep.inputs[f"{self.task}_train"]
        self.dev = self.prep.inputs[f"{self.task}_dev"]
        self.cfg = trainkit.TrainConfig(
            lr=JOINT_LR, batch_size=self.size.batch, max_epochs=self.epochs,
            patience=self.epochs + 1, n_scanpaths_train=N_PATHS, seed=BASE_SEED,
        )

    def session(self):
        model = JointModel(self.model_cfg(self.mode),
                           RngState(BASE_SEED, 0).substream("model"))
        _, hist = trainkit.train_joint(model, self.train, self.dev, self.prep.vocab,
                                       self.cfg, generator_state=self.prep.gen_state)
        self.model = model
        self.history = [(r["train_loss"], r["dev_metric"]) for r in hist["epochs"]]
        return len(self.train) * N_PATHS * self.epochs, self.history

    def recheck(self) -> None:
        encs = trainkit.encode_instances(self.dev, self.prep.vocab, MAX_LEN)
        self.predict_twice(self.model, encs, [i.instance_id for i in self.dev])

    def info(self) -> dict:
        return {"dev_accuracy": [acc for _, acc in self.history],
                "train_loss": [loss for loss, _ in self.history]}


class Pretrain(Workload):
    """Teacher-forced ``pretrain_generator`` from a fresh generator."""

    unit = "paths"
    epochs = 2

    def ready(self) -> None:
        self.cfg = trainkit.TrainConfig(
            lr=PRETRAIN_LR, pretrain_lr=PRETRAIN_LR, batch_size=self.size.batch,
            max_epochs=self.epochs, patience=self.epochs + 1, seed=BASE_SEED,
        )

    def session(self):
        p = self.prep
        model = trainkit.GazeModel(p.text_cfg, gen_hidden=self.size.gen_hidden,
                                   l_max=L_MAX, seed=BASE_SEED)
        train = p.inputs["gaze_train"]
        _, hist = trainkit.pretrain_generator(model, train, p.gaze_dev, p.vocab,
                                              self.cfg)
        self.dev_nll = hist["best_dev_nll"]
        if not math.isfinite(self.dev_nll):
            self.probe.fail("non_finite_dev_nll")
        rows = [(r["train_loss"], r["dev_metric"]) for r in hist["epochs"]]
        return len(train) * self.epochs, rows

    def info(self) -> dict:
        return {"pretrain_dev_nll": self.dev_nll}


class Predict(Workload):
    """``predict_instances`` over the eval set from the set-up generator."""

    timed = "predict"
    unit = "sentences"

    def __init__(self, *args, hard_eval: bool):
        super().__init__(*args)
        self.hard_eval = hard_eval

    def ready(self) -> None:
        p = self.prep
        self.model = JointModel(self.model_cfg(hard_eval=self.hard_eval),
                                RngState(BASE_SEED, 0).substream("model"))
        self.model.load_generator_state(p.gen_state)
        insts = p.inputs["keyword_eval"]
        self.encs = trainkit.encode_instances(insts, p.vocab, MAX_LEN)
        self.ids = [i.instance_id for i in insts]

    def session(self):
        out = trainkit.predict_instances(
            self.model, self.encs, self.ids, N_PATHS,
            RngState(BASE_SEED, 0).substream("predict"), self.size.predict_batch,
        )
        return len(self.encs), out.tobytes()

    def recheck(self) -> None:
        self.predict_twice(self.model, self.encs, self.ids)


class Generate(Workload):
    """``gazenlu generate`` on the set-up generator's run directory."""

    timed = "generate"
    unit = "paths"

    def ready(self) -> None:
        insts = self.prep.inputs["keyword_eval"][:self.size.generate_sentences]
        self.n_sentences = len(insts)
        self.input = os.path.join(self.workdir, "sentences.txt")
        self.output = os.path.join(self.workdir, "scanpaths.jsonl")
        with open(self.input, "w", encoding="utf-8") as f:
            f.writelines(i.text1 + "\n" for i in insts)

    def session(self):
        with self.probe.operation("generate"):
            rc = run_cli([
                "generate", "--model", self.prep.generator_dir,
                "--input", self.input, "--n-paths", str(N_PATHS),
                "--seed", str(BASE_SEED), "--out", self.output,
            ])
            if rc != 0:
                self.probe.fail("generate_exit_code")
            with open(self.output, encoding="utf-8") as f:
                lines = f.readlines()
            if len(lines) != self.n_sentences * N_PATHS:
                self.probe.fail("generate_line_count")
        return len(lines), "".join(lines)


# name -> (class, keyword arguments)
WORKLOADS = {
    "train_st": (Train, {"mode": STRAIGHT_THROUGH, "task": "keyword", "epochs": 2}),
    "train_soft": (Train, {"mode": SOFT_CONVOLUTION, "task": "pairs", "epochs": 1}),
    "pretrain": (Pretrain, {}),
    "predict": (Predict, {"hard_eval": False}),
    "predict_hard": (Predict, {"hard_eval": True}),
    "generate": (Generate, {}),
}
