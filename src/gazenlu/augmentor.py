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
    concat,
    cross_entropy,
    dropout,
    load_parameters,
    mix_rows,
    mse_loss,
    no_grad,
    stream_uniforms,
    take_rows,
)
from .gazegen import (
    GeneratorConfig,
    GumbelConfig,
    STRAIGHT_THROUGH,
    ScanpathGenerator,
    default_max_fixations,
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


class ScanpathEncoder(Module):
    """Single-direction GRU over fixation-ordered rows, as wide as the
    text encoder, so its initial state is the [CLS] vector itself."""

    def __init__(self, d: int, rng: RngState):
        super().__init__()
        self.gru = GRUCell(d, d, rng.substream("gru"))

    def run_steps(self, steps: list[Tensor], step_mask: np.ndarray, words: Tensor,
                  cls: Tensor, rng: RngState | None = None) -> Tensor:
        """The GRU's last state per row, started from ``cls``; (B, d).

        ``step_mask`` (B, T) marks each row's steps, a prefix of them.
        ``steps[t]`` holds (n_t, W) position weights for the n_t rows that
        step t marks, in batch order, and the GRU reads them in fixation
        order: each row's weights applied to its own (W, d) rows of
        ``words``, so a one-hot row picks one word. Only the rows still
        reading are stepped: on a step where a row finishes, its state is
        set aside and the others' states and words are gathered; the kept
        states are put back in row order at the end. A row with no steps
        reads out ``cls``. In training, step t's dropout mask is drawn for
        the whole (B, d) step from ``rng.substream("drop", t)`` and its
        live rows applied; every step's uniforms come from one
        ``stream_uniforms`` call, each stream's own draws.
        """
        if not steps:
            raise ValueError("scanpath encoder needs at least one step")
        if (np.diff(step_mask, axis=1) > 0).any():
            raise ValueError("step mask must mark a prefix of each row's steps")
        lengths = step_mask.sum(axis=1)
        B, d = cls.shape
        drops = None
        if self.training and rng is not None:
            streams = rng.substreams("drop", tails=[(t,) for t in range(len(steps))])
            drops = stream_uniforms(streams, [B * d] * len(steps)).reshape(-1, B, d)
        ids = np.arange(B)
        h = cls
        parts: list[tuple[np.ndarray, Tensor]] = []   # finished rows, their states
        for t, w in enumerate(steps):
            live = lengths[ids] > t
            if w.shape[0] != live.sum():
                raise ValueError(f"step {t} has {w.shape[0]} rows for the "
                                 f"{live.sum()} rows its mask marks")
            if not live.all():
                parts.append((ids[~live], take_rows(h, np.flatnonzero(~live))))
                ids = ids[live]
                if not len(ids):
                    break
                keep = np.flatnonzero(live)
                h, words = take_rows(h, keep), take_rows(words, keep)
            x = mix_rows(w, words)
            if drops is not None:
                x = dropout(x, SCAN_DROPOUT, drops[t], lengths > t)
            h = self.gru(x, h)
        if len(ids):
            parts.append((ids, h))
        if len(parts) == 1:
            return parts[0][1]
        order = np.argsort(np.concatenate([i for i, _ in parts]))
        return take_rows(concat([state for _, state in parts], axis=0), order)


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
    task_kind: str = CLASSIFICATION
    n_classes: int = 2
    model_kind: str = GAZE
    gumbel: GumbelConfig = field(default_factory=GumbelConfig)

    def __post_init__(self):
        # the generator's range rules hold for every model kind, so a
        # text-only run never records a size no gaze model could have
        self.generator_config()

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(self.text.d_model, self.gen_hidden, self.l_max)


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
            self.gen_encoder = TextEncoder(cfg.text, rng.substream("gen_enc"))
            self.generator = ScanpathGenerator(cfg.generator_config(),
                                               rng.substream("generator"))
        elif cfg.model_kind != TEXT_ONLY:
            raise ValueError(f"unknown model kind {cfg.model_kind!r}")
        self.scan = ScanpathEncoder(cfg.text.d_model, rng.substream("scan"))
        self.head = TaskHead(cfg.task_kind, cfg.text.d_model, cfg.n_classes,
                             rng.substream("head"))

    # -- generator checkpoint unit --------------------------------------

    def generator_prefixes(self) -> tuple[str, ...]:
        return ("generator.", "gen_encoder.") if self.cfg.model_kind == GAZE else ()

    def _generator_params(self) -> dict[str, Tensor]:
        pref = self.generator_prefixes()
        return {name: p for name, p in self.named_parameters() if name.startswith(pref)}

    def generator_state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._generator_params().items()}

    def load_generator_state(self, state: dict[str, np.ndarray]) -> None:
        load_parameters(self._generator_params(), state)

    def freeze_generator(self, flag: bool = True) -> None:
        for p in self._generator_params().values():
            p.requires_grad = not flag

    # -- fixation-ordered steps ------------------------------------------

    def _word_states(self, batch: Batch, rng: RngState | None) -> Tensor:
        _, _, words = self.gen_encoder.forward_batch(batch, rng)
        return self.generator.encode_words_batch(words, batch.word_counts)

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
            steps, mask = self._content_steps(batch, tokens.dtype)
            words = tokens
        else:
            ws = self._word_states(batch, rng.substream("gen_enc") if rng else None)
            # per-sentence caps: a row's path length never depends on how
            # long the other sentences in its batch happen to be
            counts = batch.word_counts
            sampled = self.generator.sample_gumbel_batch(
                ws, counts, pair_rngs, self.cfg.gumbel,
                np.array([default_max_fixations(int(c)) for c in counts]))
            steps, mask = sampled.rows, sampled.row_mask
        feature = self.scan.run_steps(
            steps, mask, words, cls, rng.substream("scan") if rng else None
        )
        out = self.head(feature)
        if self.head.kind == CLASSIFICATION:
            loss = cross_entropy(out, labels.astype(np.int64))
        else:
            loss = mse_loss(out, labels.astype(out.dtype).reshape(B, 1))
        return loss

    def _content_steps(self, batch: Batch, dtype):
        """Original-order content tokens as GRU steps, for the baseline:
        one-hot rows over the token positions, and the step mask.

        A token is content when its pool column is non-zero; its step is
        the number of content tokens before it in its row.
        """
        content = batch.pool.any(axis=1)                # (B, T)
        b, t = np.nonzero(content)
        step = (np.cumsum(content, axis=1) - 1)[b, t]
        L = int(content.sum(axis=1).max(initial=1))
        mask = np.zeros((batch.size, L), dtype=np.float32)
        mask[b, step] = 1.0
        eye = np.eye(content.shape[1], dtype=dtype)
        return [Tensor(eye[t[step == i]]) for i in range(L)], mask

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
                    steps, mask = self._content_steps(batch, tokens.dtype)
                    return self.head(self.scan.run_steps(steps, mask, tokens,
                                                         cls)).data.copy()
                gumbel = self.cfg.gumbel
                if gumbel.hard_eval:
                    gumbel = dataclasses.replace(gumbel, mode=STRAIGHT_THROUGH)
                ws = self._word_states(batch, None)
                pick, sampled = self.generator.sample_paths(
                    ws, batch.word_counts, sentence_ids, n_scanpaths, rng, gumbel)
                out = self.head(self.scan.run_steps(
                    sampled.rows, sampled.row_mask, take_rows(words, pick),
                    take_rows(cls, pick)))
                per_path = out.data.reshape(batch.size, n_scanpaths, -1)
                return average_logits([per_path[:, p] for p in range(n_scanpaths)])
        finally:
            self.train(was_training)
