"""Scanpath generator: dual encoders, cross-attention, saccade decoder.

A bidirectional GRU encodes the word sequence; a unidirectional GRU
encodes the fixation history; single-head scaled dot-product attention
aligns the two; a linear head scores saccade offset classes
{-(L_max-1) .. +(L_max-1)} plus STOP (last class). Reading starts at a
virtual position -1, so the first decision is an entry saccade and STOP
is invalid until at least one word has been fixated.

One batched Gumbel-softmax sampler draws every path, in either of two
relaxations: straight-through (hard one-hot rows forward, relaxed
gradient backward; under ``no_grad`` these are exact Gumbel-max draws)
and a soft convolution that transports a whole position distribution
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import (
    Embedding,
    GRUCell,
    Linear,
    Module,
    NEG_INF,
    RngState,
    Tensor,
    add,
    blend,
    concat,
    cross_entropy,
    matmul,
    mul,
    reshape,
    select_steps,
    softmax,
    stack,
    take_rows,
    transpose,
)

STRAIGHT_THROUGH = "straight_through"
SOFT_CONVOLUTION = "soft_convolution"
# a soft path ends once the expected probability of having stopped
# crosses this mass
SOFT_STOP_MASS = 0.5


@dataclass(frozen=True)
class GumbelConfig:
    """Sampler settings; ``hard_eval`` makes prediction use hard Gumbel-max
    paths whatever the training relaxation."""

    temperature: float = 0.5
    mode: str = STRAIGHT_THROUGH
    hard_eval: bool = False

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.mode not in (STRAIGHT_THROUGH, SOFT_CONVOLUTION):
            raise ValueError(f"unknown gumbel mode {self.mode!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    d_word: int
    d_hidden: int = 128
    l_max: int = 32

    def __post_init__(self):
        if self.d_hidden < 2 or self.d_hidden % 2:
            raise ValueError(f"d_hidden must be even (split across directions) "
                             f"and >= 2, got {self.d_hidden}")
        if self.l_max < 2:
            raise ValueError(f"l_max must be >= 2, got {self.l_max}")

    @property
    def n_classes(self) -> int:
        return 2 * self.l_max

    @property
    def stop_class(self) -> int:
        return 2 * self.l_max - 1

    def offset_to_class(self, offset: int) -> int:
        return offset + self.l_max - 1


@dataclass
class SampledBatch:
    """One sampled path per batch row, step-major, for the training loop."""

    rows: list[Tensor]          # per step, (B, W) position weights
    row_mask: np.ndarray        # (B, S) 1 where row b fixates at step s;
                                # rows where it is 0 carry no meaning
    fixations: list[list[int]]
    stopped: np.ndarray         # (B,) bool


def default_max_fixations(n_words: int) -> int:
    return min(2 * n_words, 64)


def path_rows(sentence_ids, n_paths: int, rng: RngState):
    """Sampler rows for ``n_paths`` paths of each sentence, sentence-major.

    Returns (sentence index of each row, noise stream of each row): row
    ``b * n_paths + p`` is path p of sentence b and draws from
    ``rng.substream(sentence_ids[b], p)``.
    """
    pick = np.repeat(np.arange(len(sentence_ids)), n_paths)
    rngs = [rng.substream(sid, p) for sid in sentence_ids for p in range(n_paths)]
    return pick, rngs


class ScanpathGenerator(Module):
    def __init__(self, cfg: GeneratorConfig, rng: RngState):
        super().__init__()
        self.cfg = cfg
        d, h, L = cfg.d_word, cfg.d_hidden, cfg.l_max
        self.word_pos = Embedding(L, d, rng.substream("word_pos"))
        self.word_proj = Linear(d, h, rng.substream("word_proj"))
        self.gru_fwd = GRUCell(d, h // 2, rng.substream("gru_fwd"))
        self.gru_bwd = GRUCell(d, h // 2, rng.substream("gru_bwd"))
        self.fix_pos = Embedding(L, h, rng.substream("fix_pos"))
        self.hist_proj = Linear(2 * h, h, rng.substream("hist_proj"))
        self.gru_hist = GRUCell(2 * h, h, rng.substream("gru_hist"))
        self.start = Tensor(
            (rng.substream("start").normal((h,)) * 0.02).astype(np.float32),
            requires_grad=True,
        )
        self.head = Linear(2 * h, cfg.n_classes, rng.substream("head"))

    # -- word encoder ----------------------------------------------------

    def check_width(self, n_words: int, what: str = "sentence"):
        """The generator reads at most l_max-1 words; ``what`` names the
        input in the error."""
        if n_words < 1:
            raise ValueError(f"{what} must contain at least one word")
        if n_words > self.cfg.l_max - 1:
            raise ValueError(
                f"{what}: {n_words} words exceeds generator span "
                f"l_max-1={self.cfg.l_max - 1}"
            )

    def encode_words_batch(self, words: Tensor, counts: np.ndarray) -> Tensor:
        """(B, W, d_word) pooled word vectors to (B, W, h) word states."""
        B, W, _ = words.shape
        self.check_width(int(counts.max(initial=1)))
        x = add(words, self.word_pos(np.arange(W)))
        half = self.cfg.d_hidden // 2
        dt = words.dtype
        active = (np.arange(W)[:, None] < counts).reshape(W, B, 1)
        hf = Tensor(np.zeros((B, half), dtype=dt))
        fwd = []
        for t in range(W):
            hf = blend(active[t], self.gru_fwd(x[:, t, :], hf), hf)
            fwd.append(hf)
        hb = Tensor(np.zeros((B, half), dtype=dt))
        bwd = [None] * W
        for t in range(W - 1, -1, -1):
            hb = blend(active[t], self.gru_bwd(x[:, t, :], hb), hb)
            bwd[t] = hb
        gru_out = concat([stack(fwd, axis=1), stack(bwd, axis=1)], axis=2)
        return add(self.word_proj(x), gru_out)

    # -- history encoder -------------------------------------------------

    def start_state(self, batch: int, dtype=np.float32) -> Tensor:
        return add(Tensor(np.zeros((batch, self.cfg.d_hidden), dtype=dtype)), self.start)

    def history_step(self, word_row: Tensor, pos_emb: Tensor, h_prev: Tensor):
        """One recurrence step; returns (residual output, new hidden)."""
        inp = concat([word_row, pos_emb], axis=1)
        h_new = self.gru_hist(inp, h_prev)
        return add(self.hist_proj(inp), h_new), h_new

    # -- decoder ---------------------------------------------------------

    def _landings(self, positions: np.ndarray, counts: np.ndarray):
        """(B, C-1) landing word of each move class from each row's
        position, and whether it falls inside the row's words."""
        offs = np.arange(self.cfg.n_classes - 1) - (self.cfg.l_max - 1)
        landing = positions[:, None] + offs
        return landing, (landing >= 0) & (landing < counts[:, None])

    def _additive_masks(self, positions: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(B, C): 0 for a valid decision, NEG_INF otherwise. A move must
        land on one of the row's words; STOP needs a fixation first."""
        _, ok = self._landings(positions, counts)
        valid = np.concatenate([ok, positions[:, None] >= 0], axis=1)
        return np.where(valid, 0.0, NEG_INF).astype(np.float32)

    def decode_logits_batch(self, state: Tensor, word_states: Tensor,
                            counts: np.ndarray) -> Tensor:
        """Cross-attention readout; (B, h) x (B, W, h) -> (B, n_classes)."""
        B, W, h = word_states.shape
        q = reshape(state, (B, 1, h))
        scores = mul(matmul(q, transpose(word_states, (0, 2, 1))), 1.0 / math.sqrt(h))
        pad = (np.arange(W)[None, :] >= counts[:, None])
        key_mask = (pad * NEG_INF).astype(np.float32).reshape(B, 1, W)
        attn = softmax(scores, mask=key_mask)
        ctx = reshape(matmul(attn, word_states), (B, h))
        return self.head(concat([ctx, state], axis=1))

    # -- teacher forcing -------------------------------------------------

    def nll_batch(self, word_states: Tensor, counts: np.ndarray,
                  paths: list[list[int]]):
        """Pooled mean step NLL over all (F_b + 1) decisions in the batch.

        Returns (loss tensor, total step count). Gold offsets outside the
        class range raise, naming the step.
        """
        B, W, h = word_states.shape
        cfg = self.cfg
        targets: list[list[int]] = []
        for b, path in enumerate(paths):
            if not path:
                raise ValueError(f"path {b} is empty")
            tgt = []
            prev = -1
            for i, f in enumerate(path):
                if not 0 <= f < counts[b]:
                    raise ValueError(
                        f"path {b} step {i}: fixation {f} out of range for {counts[b]} words"
                    )
                off = f - prev
                if abs(off) > cfg.l_max - 1:
                    raise ValueError(
                        f"path {b} step {i}: offset {off} outside class range "
                        f"+-{cfg.l_max - 1}"
                    )
                tgt.append(cfg.offset_to_class(off))
                prev = f
            tgt.append(cfg.stop_class)
            targets.append(tgt)

        max_steps = max(len(t) for t in targets)
        state = self.start_state(B, word_states.dtype)
        hid = Tensor(np.zeros((B, h), dtype=word_states.dtype))
        positions = np.full(B, -1, dtype=np.int64)
        total = None
        n_terms = 0
        for t in range(max_steps):
            active = np.array([b for b in range(B) if t < len(targets[b])])
            logits = self.decode_logits_batch(state, word_states, counts)
            masks = self._additive_masks(positions, counts)
            masked = add(logits, Tensor(masks))
            sub = take_rows(masked, active) if len(active) < B else masked
            step_t = np.array([targets[b][t] for b in active])
            term = mul(cross_entropy(sub, step_t), float(len(active)))
            total = term if total is None else add(total, term)
            n_terms += len(active)
            feeders = np.array([b for b in range(B) if t < len(paths[b])])
            if len(feeders) == 0:
                continue
            feed = np.zeros(B, dtype=np.int64)
            feed[feeders] = [paths[b][t] for b in feeders]
            rows = select_steps(word_states, feed)
            pe = self.fix_pos(feed)
            out, hn = self.history_step(rows, pe, hid)
            m = np.zeros((B, 1))
            m[feeders] = 1.0
            state = blend(m, out, state)
            hid = blend(m, hn, hid)
            positions[feeders] = feed[feeders]
        return mul(total, 1.0 / n_terms), n_terms

    # -- sampling --------------------------------------------------------

    def _landing_scatter(self, positions: np.ndarray, counts: np.ndarray,
                         rows: np.ndarray, W: int, dtype) -> np.ndarray:
        """(B, C, W) class -> landing word for the given rows' positions."""
        landing, ok = self._landings(positions, counts)
        b, c = np.nonzero(ok & rows[:, None])
        scatter = np.zeros((len(positions), self.cfg.n_classes, W), dtype=dtype)
        scatter[b, c, landing[b, c]] = 1.0
        return scatter

    def _spread_kernel(self, counts: np.ndarray, W: int, dtype) -> np.ndarray:
        """(B, W*W, C): mass moved i -> j by each offset class.

        Each row's landings clamp to its own last word, so no mass ever
        reaches the padding. STOP moves nothing.
        """
        C = self.cfg.n_classes
        offs = np.arange(C - 1) - (self.cfg.l_max - 1)
        kernel = np.zeros((len(counts), W, W, C), dtype=dtype)
        for b, n in enumerate(counts):
            src = np.arange(n)[:, None]
            dst = np.clip(src + offs, 0, n - 1)
            kernel[b, np.broadcast_to(src, dst.shape), dst, np.arange(C - 1)] = 1.0
        return kernel.reshape(len(counts), W * W, C)

    def sample_gumbel_batch(
        self,
        word_states: Tensor,
        counts: np.ndarray,
        rngs: list[RngState],
        cfg: GumbelConfig,
        max_fixations,
        surrogate: bool = False,
    ) -> SampledBatch:
        """Gumbel-softmax sampling for a batch, one path per row.

        ``max_fixations`` is a scalar cap or one per row; a row's draws
        and path depend only on its own word count, cap and noise stream,
        never on which other rows share the batch. Row b's noise is drawn
        from ``rngs[b]`` in one block of ``(caps[b], n_classes)`` Gumbel
        values, step s reading row s: the same values as one draw per live
        step, since a stream's draws come in sequence. A stream is used up
        by the sampler, so each call takes fresh streams.

        ``straight_through``: each step fixates the argmax of logits plus
        noise (the Gumbel-max draw) and emits its one-hot row, carrying
        the relaxed softmax's gradient. ``surrogate=True`` keeps the
        relaxed rows as the forward values (positions still advance by
        the hard offsets); the analytic gradient of the straight-through
        rows is exactly the gradient of this surrogate forward, which is
        what finite differences can see.

        ``soft_convolution``: each row carries a distribution over its
        words, moved every step by the relaxed offset distribution, with
        landings clamped to the row's word range. The row is emitted as
        is and its argmax reported as the fixation; the path ends once
        the expected probability of having stopped reaches
        SOFT_STOP_MASS.

        A live row whose logits are not finite raises FloatingPointError
        naming the step.
        """
        B, W, h = word_states.shape
        gc = self.cfg
        C = gc.n_classes
        dt = word_states.dtype
        soft = cfg.mode == SOFT_CONVOLUTION
        inv_tau = 1.0 / cfg.temperature
        caps = np.broadcast_to(
            np.asarray(max_fixations, dtype=np.int64), (B,)
        )
        if (caps < 1).any():
            raise ValueError("max_fixations must be >= 1")
        state = self.start_state(B, dt)
        hid = Tensor(np.zeros((B, h), dtype=dt))
        positions = np.full(B, -1, dtype=np.int64)
        alive = np.ones(B, dtype=bool)
        stopped = np.zeros(B, dtype=bool)
        n_fix = np.zeros(B, dtype=np.int64)
        fixations: list[list[int]] = [[] for _ in range(B)]
        rows: list[Tensor] = []
        row_mask: list[np.ndarray] = []
        dist = None     # soft: (B, W) position distribution after entry
        if soft:
            kernel = Tensor(self._spread_kernel(counts, W, dt))
            reach = np.abs(np.arange(C) - (gc.l_max - 1))[None, :] < counts[:, None]
            reach[:, gc.stop_class] = False
            move_mask = np.where(reach, 0.0, NEG_INF).astype(np.float32)
            stop_mask = move_mask.copy()
            stop_mask[:, gc.stop_class] = 0.0
            stop_mass = np.zeros(B)
        noise = np.zeros((B, int(caps.max()), C), dtype=dt)
        for b in range(B):
            noise[b, :caps[b]] = rngs[b].gumbel((int(caps[b]), C))
        for step in range(int(caps.max())):
            if not alive.any():
                break
            logits = self.decode_logits_batch(state, word_states, counts)
            g = np.where(alive[:, None], noise[:, step], 0.0)
            z = mul(add(logits, Tensor(g)), inv_tau)
            if not np.isfinite(z.data[alive]).all():
                # a NaN row would argmax to class 0, a move off the sentence
                raise FloatingPointError(
                    f"sampler step {step}: a live row's logits are not finite "
                    f"(non-finite generator parameters or temperature)")
            if dist is None:
                # a hard step from the current positions; for a soft
                # path, the entry saccade
                y = softmax(z, mask=self._additive_masks(positions, counts))
                hard = y.data.argmax(axis=1)
                live = alive & (hard != gc.stop_class)
                stopped |= alive & ~live
                if not live.any():
                    break
                scatter = self._landing_scatter(positions, counts, live, W, dt)
                y_words = reshape(matmul(reshape(y, (B, 1, C)), Tensor(scatter)), (B, W))
                if soft:
                    dist = y_words
            else:
                live = alive
                p_stop = softmax(z, mask=stop_mask).data[:, gc.stop_class]
                q = softmax(z, mask=move_mask)
                spread = reshape(matmul(kernel, reshape(q, (B, C, 1))), (B, W, W))
                dist = reshape(matmul(reshape(dist, (B, 1, W)), spread), (B, W))
                stop_mass[live] += (1.0 - stop_mass[live]) * p_stop[live]
            if soft:
                row = dist
                fix = dist.data.argmax(axis=1)
                pe = matmul(dist, self.fix_pos.w[0:W, :])
                stopped |= live & (stop_mass >= SOFT_STOP_MASS)
            else:
                fix = np.where(live, positions + hard - (gc.l_max - 1), positions)
                if surrogate:
                    row = y_words
                else:
                    onehot = np.zeros((B, W), dtype=dt)
                    onehot[live, fix[live]] = 1.0
                    row = add(y_words, Tensor(onehot - y_words.data))
                pe = self.fix_pos(np.maximum(fix, 0))
                positions = fix
            rows.append(row)
            row_mask.append(live.astype(np.float32))
            for b in np.flatnonzero(live):
                fixations[b].append(int(fix[b]))
            n_fix[live] += 1
            moving = live & ~stopped
            alive = moving & (n_fix < caps)
            if not alive.any():
                break
            word_row = reshape(matmul(reshape(row, (B, 1, W)), word_states), (B, h))
            out, hn = self.history_step(word_row, pe, hid)
            m = moving.reshape(B, 1)
            state = blend(m, out, state)
            hid = blend(m, hn, hid)
        mask_arr = (
            np.stack(row_mask, axis=1) if row_mask else np.zeros((B, 0), dtype=np.float32)
        )
        return SampledBatch(rows, mask_arr, fixations, stopped)
