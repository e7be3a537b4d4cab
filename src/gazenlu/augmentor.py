"""Gaze-augmented classifier: fixation-ordered embeddings into a GRU.

Word embeddings are rearranged in the order words are fixated: every
sampled step contributes one row, its position weights applied to the
word-pooled embedding matrix (a one-hot row picks one word's vector),
in training and prediction alike. A GRU whose initial state comes from
the [CLS] vector reads the rearranged rows; the last step's output
feeds the task head. Predictions across several sampled scanpaths
combine by averaging pre-softmax outputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .diffcore import (
    GRUCell,
    Linear,
    Module,
    RngState,
    Tensor,
    blend,
    cross_entropy,
    dropout,
    matmul,
    mse_loss,
    no_grad,
    reshape,
    take_rows,
)
from .gazegen import (
    GeneratorConfig,
    GumbelConfig,
    STRAIGHT_THROUGH,
    ScanpathGenerator,
    default_max_fixations,
    path_rows,
)
from .textenc import Batch, TextEncoder, TextEncoderConfig

GAZE = "gaze"
TEXT_ONLY = "text_only"
CLASSIFICATION = "classification"
REGRESSION = "regression"
SCAN_DROPOUT = 0.1


def average_logits(per_path: list[np.ndarray]) -> np.ndarray:
    """Mean of pre-softmax outputs across paths.

    Computed as first + mean(out_i - first): n identical paths average to
    the single-path output bit-exactly.
    """
    if not per_path:
        raise ValueError("no outputs to average")
    first = per_path[0]
    acc = np.zeros_like(first)
    for out in per_path[1:]:
        acc += out - first
    return first + acc / len(per_path)


def fixation_steps(rows: list[Tensor], words: Tensor) -> list[Tensor]:
    """GRU inputs in fixation order: each step's (B, W) position weights
    applied to the (B, W, d) word vectors; a one-hot row picks one word."""
    B = words.shape[0]
    return [reshape(matmul(reshape(r, (B, 1, -1)), words), (B, -1)) for r in rows]


class ScanpathEncoder(Module):
    """Single-direction GRU over fixation-ordered rows, h0 from [CLS]."""

    def __init__(self, d_in: int, d_hidden: int, rng: RngState):
        super().__init__()
        self.d_hidden = d_hidden
        self.gru = GRUCell(d_in, d_hidden, rng.substream("gru"))
        if d_in != d_hidden:
            self.cls_proj = Linear(d_in, d_hidden, rng.substream("cls_proj"))
        else:
            object.__setattr__(self, "cls_proj", None)

    def init_state(self, cls: Tensor) -> Tensor:
        return self.cls_proj(cls) if self.cls_proj is not None else cls

    def run_steps(self, steps: list[Tensor], step_mask: np.ndarray, cls: Tensor,
                  rng: RngState | None = None) -> Tensor:
        """steps[t] is (B, d); mask freezes rows past their last fixation."""
        if not steps:
            raise ValueError("scanpath encoder needs at least one step")
        h = self.init_state(cls)
        train = self.training and rng is not None
        for t, x in enumerate(steps):
            if train:
                x = dropout(x, SCAN_DROPOUT, rng.substream("drop", t), True)
            h = blend(step_mask[:, t].reshape(-1, 1), self.gru(x, h), h)
        return h


class TaskHead(Module):
    def __init__(self, kind: str, d_hidden: int, n_classes: int, rng: RngState):
        super().__init__()
        if kind not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown head kind {kind!r}")
        self.kind = kind
        self.n_out = n_classes if kind == CLASSIFICATION else 1
        self.lin = Linear(d_hidden, self.n_out, rng.substream("lin"))

    def __call__(self, feature: Tensor) -> Tensor:
        return self.lin(feature)


@dataclass
class ModelConfig:
    text: TextEncoderConfig
    gen_hidden: int = 128
    l_max: int = 32
    scan_hidden: int | None = None          # defaults to text.d_model
    task_kind: str = CLASSIFICATION
    n_classes: int = 2
    share_text_encoder: bool = False
    model_kind: str = GAZE
    gumbel: GumbelConfig = field(default_factory=GumbelConfig)

    @property
    def d_scan(self) -> int:
        return self.scan_hidden if self.scan_hidden is not None else self.text.d_model


class JointModel(Module):
    """Text encoder + scanpath generator + scanpath encoder + task head.

    ``model_kind="text_only"`` drops the generator and reads the content
    tokens in their original order, as the no-gaze baseline.
    """

    def __init__(self, cfg: ModelConfig, rng: RngState):
        super().__init__()
        self.cfg = cfg
        self.cls_encoder = TextEncoder(cfg.text, rng.substream("cls_enc"))
        if cfg.model_kind == GAZE:
            if cfg.share_text_encoder:
                object.__setattr__(self, "gen_encoder", self.cls_encoder)
            else:
                self.gen_encoder = TextEncoder(cfg.text, rng.substream("gen_enc"))
            self.generator = ScanpathGenerator(
                GeneratorConfig(cfg.text.d_model, cfg.gen_hidden, cfg.l_max),
                rng.substream("generator"),
            )
        elif cfg.model_kind != TEXT_ONLY:
            raise ValueError(f"unknown model kind {cfg.model_kind!r}")
        self.scan = ScanpathEncoder(cfg.text.d_model, cfg.d_scan, rng.substream("scan"))
        self.head = TaskHead(cfg.task_kind, cfg.d_scan, cfg.n_classes, rng.substream("head"))

    # -- generator checkpoint unit --------------------------------------

    def generator_prefixes(self) -> tuple[str, ...]:
        if self.cfg.model_kind != GAZE:
            return ()
        if self.cfg.share_text_encoder:
            return ("generator.",)
        return ("generator.", "gen_encoder.")

    def generator_state(self) -> dict[str, np.ndarray]:
        pref = self.generator_prefixes()
        return {
            name: p.data.copy()
            for name, p in self.named_parameters()
            if name.startswith(pref)
        }

    def load_generator_state(self, state: dict[str, np.ndarray]) -> None:
        own = {
            name: p
            for name, p in self.named_parameters()
            if name.startswith(self.generator_prefixes())
        }
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise KeyError(f"generator state mismatch, missing={missing}, unexpected={extra}")
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(f"{name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)

    def freeze_generator(self, flag: bool = True) -> None:
        pref = self.generator_prefixes()
        for name, p in self.named_parameters():
            if name.startswith(pref):
                p.requires_grad = not flag

    # -- fixation-ordered steps ------------------------------------------

    def _word_states(self, batch: Batch, words: Tensor, rng: RngState | None) -> Tensor:
        """Generator word states; ``words`` serve when the encoder is shared."""
        if not self.cfg.share_text_encoder:
            _, _, words = self.gen_encoder.forward_batch(batch, rng)
        return self.generator.encode_words_batch(words, batch.word_counts)

    def _scan_steps(self, counts: np.ndarray, words: Tensor, word_states: Tensor,
                    pair_rngs: list[RngState], gumbel: GumbelConfig):
        """One sampled path per row, as GRU steps over the classifier's
        word vectors, and the step mask."""
        # per-sentence caps: a row's path length never depends on how long
        # the other sentences in its batch happen to be
        caps = np.array([default_max_fixations(int(c)) for c in counts])
        sampled = self.generator.sample_gumbel_batch(
            word_states, counts, pair_rngs, gumbel, caps
        )
        return fixation_steps(sampled.rows, words), sampled.row_mask

    # -- training loss ---------------------------------------------------

    def loss_pairs(self, batch: Batch, labels: np.ndarray,
                   pair_rngs: list[RngState], drop_rng: RngState | None):
        """Mean loss over (instance, scanpath) pairs; batch rows are pairs."""
        B = batch.size
        rng = drop_rng if self.training else None
        tokens, cls, words = self.cls_encoder.forward_batch(
            batch, rng.substream("cls_enc") if rng else None
        )
        if self.cfg.model_kind == TEXT_ONLY:
            steps, mask = self._content_steps(batch, tokens)
        else:
            ws = self._word_states(batch, words,
                                   rng.substream("gen_enc") if rng else None)
            steps, mask = self._scan_steps(batch.word_counts, words, ws,
                                           pair_rngs, self.cfg.gumbel)
        feature = self.scan.run_steps(
            steps, mask, cls, rng.substream("scan") if rng else None
        )
        out = self.head(feature)
        if self.head.kind == CLASSIFICATION:
            loss = cross_entropy(out, labels.astype(np.int64))
        else:
            loss = mse_loss(out, labels.astype(out.dtype).reshape(B, 1))
        return loss

    def _content_steps(self, batch: Batch, tokens: Tensor):
        """Original-order content tokens as GRU steps, for the baseline."""
        B, T, d = tokens.shape
        lengths = (batch.span_ends - batch.span_starts)
        lengths[batch.pool.sum(axis=2) == 0] = 0
        total = lengths.sum(axis=1)
        L = int(total.max(initial=1))
        scat = np.zeros((B, L, T), dtype=np.float32)
        mask = np.zeros((B, L), dtype=np.float32)
        for b in range(B):
            r = 0
            for w in range(batch.word_counts[b]):
                for t in range(batch.span_starts[b, w], batch.span_ends[b, w]):
                    scat[b, r, t] = 1.0
                    mask[b, r] = 1.0
                    r += 1
        content = matmul(Tensor(scat.astype(tokens.dtype)), tokens)
        steps = [content[:, t, :] for t in range(L)]
        return steps, mask

    # -- prediction ------------------------------------------------------

    def predict_batch(self, batch: Batch, sentence_ids, n_scanpaths: int,
                      rng: RngState) -> np.ndarray:
        """Averaged pre-softmax outputs, (B, n_out); eval mode, no graph.

        Path p of a sentence draws from ``rng.substream(sentence_id, p)``.
        Every path of the batch is sampled and read in one pass, one row
        per (sentence, path) pair; a row's path and output do not depend
        on the other rows. With ``hard_eval`` the paths are hard
        Gumbel-max draws whatever the training relaxation.
        """
        if n_scanpaths < 1:
            raise ValueError("n_scanpaths must be >= 1")
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                tokens, cls, words = self.cls_encoder.forward_batch(batch)
                if self.cfg.model_kind == TEXT_ONLY:
                    steps, mask = self._content_steps(batch, tokens)
                    return self.head(self.scan.run_steps(steps, mask, cls)).data.copy()
                gumbel = self.cfg.gumbel
                if gumbel.hard_eval:
                    gumbel = dataclasses.replace(gumbel, mode=STRAIGHT_THROUGH)
                ws = self._word_states(batch, words, None)
                pick, pair_rngs = path_rows(sentence_ids, n_scanpaths, rng)
                steps, mask = self._scan_steps(
                    batch.word_counts[pick], take_rows(words, pick),
                    take_rows(ws, pick), pair_rngs, gumbel)
                out = self.head(self.scan.run_steps(steps, mask, take_rows(cls, pick)))
                per_path = out.data.reshape(batch.size, n_scanpaths, -1)
                return average_logits([per_path[:, p] for p in range(n_scanpaths)])
        finally:
            self.train(was_training)
