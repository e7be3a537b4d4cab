"""Gaze-augmented classifier: fixation-ordered embeddings into a GRU.

Word embeddings are rearranged in the order words are fixated: every
sampled step contributes one row, its position weights applied to the
word-pooled embedding matrix (a one-hot row picks one word's vector),
in training and prediction alike. A GRU whose initial state comes from
the [CLS] vector reads the rearranged rows; the last step's output
feeds the task head. The GRU is one ``scan`` graph node over the
sampler's packed rows: its step loop runs on plain arrays, and its
backward is BPTT written by hand. Predictions across several sampled
scanpaths combine by averaging pre-softmax outputs.
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
    cross_entropy,
    dropout_keep,
    gru_bwd,
    gru_gates,
    is_grad_enabled,
    linear_bwd,
    load_parameters,
    mix_rows_bwd_w,
    mix_rows_fwd,
    mse_loss,
    no_grad,
    op_result,
    rows_matmul,
    stream_words,
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

    def run_steps(self, steps, step_mask: np.ndarray, rows: Tensor, words: Tensor,
                  cls: Tensor, rngs: list[RngState] | None = None) -> Tensor:
        """The GRU's last state per row, started from ``cls``; (B, d).

        ``step_mask`` (B, S) marks each row's steps, a prefix of them, and
        ``steps`` (S,) counts each step's rows. ``rows`` packs the (W,)
        position weights of each marked (row, step), step after step, a
        step's rows in batch order, as the sampler emits them; each reads
        its row's (W, d) ``words``, so a one-hot row picks one word. A row
        with no steps reads out ``cls``. In training, ``rngs`` holds one
        dropout stream per batch row, and one ``stream_words`` call draws
        the masks of the marked cells only: row b's stream gives d words
        for each of its steps in turn, so a row's masks depend on its
        stream and its step count alone, never on the rest of its batch.

        One ``scan`` node, on plain arrays: the words are gathered only on
        steps where a row finishes, one GEMM projects every step's input,
        and the recurrence steps only the live rows, in place, so a
        finished row keeps its state. The backward is BPTT over the same
        steps (``gru_bwd``); each weight's gradient is one GEMM or sum,
        and the input gradients, collected per batch row in a (B, S, d)
        buffer, give the words' and the rows' in one batched matmul each.
        """
        steps = np.asarray(steps, dtype=np.int64)
        if not len(steps):
            raise ValueError("scanpath encoder needs at least one step")
        if (np.diff(step_mask, axis=1) > 0).any():
            raise ValueError("step mask must mark a prefix of each row's steps")
        marked = np.count_nonzero(step_mask, axis=0)
        if len(marked) != len(steps):
            raise ValueError(f"{len(steps)} steps for a mask of {len(marked)}")
        for t in np.flatnonzero(steps != marked)[:1]:
            raise ValueError(f"step {t} has {steps[t]} rows for the "
                             f"{marked[t]} rows its mask marks")
        if rows.shape[0] != marked.sum():
            raise ValueError(f"{rows.shape[0]} packed rows for the {marked.sum()} its mask marks")
        g = self.gru
        parents = (rows, words, cls, g.w_ih, g.w_hh, g.b_ih, g.b_hh)
        record = is_grad_enabled() and any(p.requires_grad for p in parents)
        (B, d), S, dt = cls.shape, len(steps), words.dtype
        cell_t, cell_b = np.nonzero(step_mask.T)      # each packed row's step and row
        ends = np.cumsum(steps).tolist()
        cuts = list(zip([0] + ends[:-1], ends))
        x = np.empty((len(cell_b), d), dtype=dt)
        ws = words.data
        for a, b in cuts:
            if b - a < len(ws):
                ws = words.data[cell_b[a:b]]
            x[a:b] = mix_rows_fwd(rows.data[a:b], ws)
        keep = None
        if self.training and rngs is not None:
            n_cells = np.count_nonzero(step_mask, axis=1)
            drops = stream_words(rngs, n_cells * d).reshape(-1, d)
            first = np.cumsum(n_cells) - n_cells         # each row's first cell
            keep = dropout_keep(drops[first[cell_b] + cell_t], SCAN_DROPOUT, dt)
            x *= keep
        gi = rows_matmul(x, g.w_ih.data) + g.b_ih.data
        h = cls.data.astype(dt, copy=True)
        saved = np.empty((5,) + x.shape, dtype=dt) if record else None  # h, r, z, n, ghn
        for a, b in cuts:
            at = cell_b[a:b]
            hp = h[at]
            h[at], gates = gru_gates(gi[a:b], rows_matmul(hp, g.w_hh.data) + g.b_hh.data, hp)
            if record:
                for k, v in enumerate((hp, *gates)):
                    saved[k, a:b] = v

        def bptt(grad):
            need = [p.requires_grad for p in parents]
            dh = grad.copy()
            dgi, dgh = np.empty((2, len(x), 3 * d), dtype=dt)
            for a, b in reversed(cuts):
                at = cell_b[a:b]
                dgi[a:b], dgh[a:b], dh[at] = gru_bwd(dh[at], saved[0, a:b], saved[1:, a:b],
                                                     g.w_hh.data)
            dx, gw_ih, gb_ih = linear_bwd(x, g.w_ih.data, dgi, (need[0] or need[1], *need[3::2]))
            _, gw_hh, gb_hh = linear_bwd(saved[0], g.w_hh.data, dgh, (False, *need[4::2]))
            d_rows = d_words = None
            if dx is not None:
                if keep is not None:
                    dx *= keep
                q = np.zeros((B, S, d), dtype=dt)
                q[cell_b, cell_t] = dx
                if need[0]:
                    d_rows = mix_rows_bwd_w(q, words.data)[cell_b, cell_t]
                if need[1]:
                    p = np.zeros((B, S, words.shape[1]), dtype=dt)
                    p[cell_b, cell_t] = rows.data
                    d_words = np.matmul(p.transpose(0, 2, 1), q)
            return (d_rows, d_words, dh if need[2] else None, gw_ih, gw_hh, gb_ih, gb_hh)

        return op_result(h, parents, bptt, "scan")


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

    def _word_states(self, batch: Batch, rngs: list[RngState] | None) -> Tensor:
        _, _, words = self.gen_encoder.forward_batch(batch, rngs)
        return self.generator.encode_words_batch(words, batch.word_counts)

    # -- training loss ---------------------------------------------------

    def loss_pairs(self, batch: Batch, labels: np.ndarray,
                   pair_rngs: list[RngState], drop_rngs: list[RngState] | None):
        """Mean loss over (instance, scanpath) pairs; batch rows are pairs.

        ``drop_rngs`` holds one dropout stream per pair, or is None for no
        dropout. Its substreams "cls_enc", "gen_enc" and "scan" draw the
        classifier's encoder's, the generator's encoder's and the scan
        GRU's masks, so a pair's masks do not depend on its batch.
        """
        B = batch.size
        rngs = drop_rngs if self.training else None

        def drops(name: str) -> list[RngState] | None:
            return None if rngs is None else [r.substream(name) for r in rngs]

        tokens, cls, words = self.cls_encoder.forward_batch(batch, drops("cls_enc"))
        if self.cfg.model_kind == TEXT_ONLY:
            rows, mask = self._content_steps(batch, tokens.dtype)
            words = tokens
        else:
            ws = self._word_states(batch, drops("gen_enc"))
            # per-sentence caps: a row's path length never depends on how
            # long the other sentences in its batch happen to be
            counts = batch.word_counts
            sampled = self.generator.sample_gumbel_batch(
                ws, counts, pair_rngs, self.cfg.gumbel,
                np.array([default_max_fixations(int(c)) for c in counts]))
            rows, mask = sampled.rows, sampled.row_mask
        feature = self.scan.run_steps(
            np.count_nonzero(mask, axis=0), mask, rows, words, cls, drops("scan"))
        out = self.head(feature)
        if self.head.kind == CLASSIFICATION:
            loss = cross_entropy(out, labels.astype(np.int64))
        else:
            loss = mse_loss(out, labels.astype(out.dtype).reshape(B, 1))
        return loss

    def _content_steps(self, batch: Batch, dtype):
        """Original-order content tokens as GRU steps, for the baseline:
        one-hot rows over the token positions, packed step by step as the
        sampler packs its rows, and the step mask.

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
        return Tensor(eye[t[np.lexsort((b, step))]]), mask

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
                    rows, mask = self._content_steps(batch, tokens.dtype)
                    return self.head(self.scan.run_steps(
                        np.count_nonzero(mask, axis=0), mask, rows, tokens, cls)).data.copy()
                gumbel = self.cfg.gumbel
                if gumbel.hard_eval:
                    gumbel = dataclasses.replace(gumbel, mode=STRAIGHT_THROUGH)
                ws = self._word_states(batch, None)
                pick, sampled = self.generator.sample_paths(
                    ws, batch.word_counts, sentence_ids, n_scanpaths, rng, gumbel)
                mask = sampled.row_mask
                out = self.head(self.scan.run_steps(
                    np.count_nonzero(mask, axis=0), mask, sampled.rows,
                    take_rows(words, pick), take_rows(cls, pick)))
                per_path = out.data.reshape(batch.size, n_scanpaths, -1)
                return average_logits([per_path[:, p] for p in range(n_scanpaths)])
        finally:
            self.train(was_training)
