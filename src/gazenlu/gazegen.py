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
per step. The sampler runs its step loop on plain arrays and records
one graph node for the whole call, whose backward is a hand-written
reverse pass over the steps.
"""

from __future__ import annotations

import itertools
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
    concat,
    cross_entropy,
    gru_bwd,
    gru_step,
    gumbel_of,
    is_grad_enabled,
    linear_bwd,
    linear_fwd,
    mix_rows,
    mix_rows_bwd_w,
    mix_rows_fwd,
    mul,
    op_result,
    reshape,
    rows_matmul,
    shift_mass_bwd,
    shift_mass_fwd,
    softmax,
    softmax_bwd,
    softmax_fwd,
    stream_uniforms,
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
    """One sampled path per batch row, its rows packed step-major: step s
    holds a row for each batch row that fixates at s and no other, so the
    scan GRU reads the rows as they come."""

    rows: Tensor                # (N, W) position weights, step by step: the
                                # n_s rows that fixate at step s, in batch order
    row_mask: np.ndarray        # (B, S) 1 where row b fixates at step s;
                                # n_s = row_mask[:, s].sum(), N = row_mask.sum()
    fixations: list[list[int]]
    stopped: np.ndarray         # (B,) bool


def default_max_fixations(n_words: int) -> int:
    return min(2 * n_words, 64)


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
        h0 = Tensor(np.zeros((B, self.cfg.d_hidden // 2), dtype=words.dtype))
        gru_out = concat([self.gru_fwd.seq(x, counts, h0),
                          self.gru_bwd.seq(x, counts, h0, reverse=True)], axis=2)
        return add(self.word_proj(x), gru_out)

    # -- history encoder -------------------------------------------------

    def start_state(self, batch: int, dtype=np.float32) -> Tensor:
        return add(Tensor(np.zeros((batch, self.cfg.d_hidden), dtype=dtype)), self.start)

    def history_step(self, word_row: np.ndarray, pos_emb: np.ndarray, h_prev: np.ndarray):
        """One recurrence step on plain arrays, recording nothing: returns
        (residual output, new hidden, cache), the cache being the step's
        input and GRU gates, which the sampler's reverse pass reads."""
        inp = np.concatenate([word_row, pos_emb], axis=1)
        g, p = self.gru_hist, self.hist_proj
        h_new, gates = gru_step(inp, h_prev, g.w_ih.data, g.w_hh.data,
                                g.b_ih.data, g.b_hh.data)
        return linear_fwd(inp, p.w.data, p.b.data) + h_new, h_new, (inp, gates)

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

    def decode_logits_batch(self, state, word_states, counts: np.ndarray):
        """Cross-attention readout of (B, h) states, one per row, or
        (B, S, h), S per row, over (B, W, h) word states; (B, n_classes)
        or (B, S, n_classes).

        On plain arrays, (B, h) states only, it records nothing and
        returns (logits, (attention weights, head input)), which the
        sampler's reverse pass reads; the values are the Tensor path's,
        through the same numpy calls."""
        B, W, h = word_states.shape
        pad = (np.arange(W)[None, :] >= counts[:, None])
        pad = (pad.reshape((B,) + (1,) * (state.ndim - 2) + (W,)) * NEG_INF).astype(np.float32)
        if not isinstance(state, Tensor):
            scale = np.asarray(1.0 / math.sqrt(h), dtype=word_states.dtype)
            scores = mix_rows_fwd(state, word_states.transpose(0, 2, 1)) * scale
            attn = softmax_fwd(scores, pad)
            x_head = np.concatenate([mix_rows_fwd(attn, word_states), state], axis=1)
            return linear_fwd(x_head, self.head.w.data, self.head.b.data), (attn, x_head)
        scores = mul(mix_rows(state, transpose(word_states, (0, 2, 1))), 1.0 / math.sqrt(h))
        attn = softmax(scores, mask=pad)
        ctx = mix_rows(attn, word_states)
        return self.head(concat([ctx, state], axis=-1))

    # -- teacher forcing -------------------------------------------------

    def nll_batch(self, word_states: Tensor, counts: np.ndarray,
                  paths: list[list[int]]):
        """Pooled mean step NLL over all (F_b + 1) decisions in the batch.

        Returns (loss tensor, total step count). An empty path, a fixation
        outside its row's words and a gold offset outside the class range
        raise, naming the first bad path and step.

        Under teacher forcing every input of the history GRU is known, so
        there is no loop over steps: one gather takes the gold words, one
        ``gru_seq`` node runs the history over all steps, and one decode
        reads out every decision, S = max F_b + 1 per row. Decision s of
        row b reads the start state (s = 0) or the history after fixation
        s - 1; one ``cross_entropy`` covers the decisions that exist.
        """
        B, W, h = word_states.shape
        cfg = self.cfg
        lengths = np.array([len(p) for p in paths], dtype=np.int64)
        T = int(lengths.max())
        fed = np.arange(T) < lengths[:, None]                  # (B, T)
        fix = np.zeros((B, T), dtype=np.int64)
        fix[fed] = np.fromiter(itertools.chain.from_iterable(paths), np.int64,
                               int(lengths.sum()))
        positions = np.concatenate([np.full((B, 1), -1), fix], axis=1)    # (B, T + 1)
        offsets = fix - positions[:, :-1]
        self._check_paths(lengths, fed, fix, offsets, counts)

        decided = np.arange(T + 1) < (lengths + 1)[:, None]    # (B, T + 1)
        targets = np.full((B, T + 1), cfg.stop_class, dtype=np.int64)
        targets[:, :T][fed] = cfg.offset_to_class(offsets[fed])
        dt = word_states.dtype
        flat = reshape(word_states, (B * W, h))
        rows = take_rows(flat, np.arange(B)[:, None] * W + fix)          # (B, T, h)
        inp = concat([rows, self.fix_pos(fix)], axis=2)
        hid = self.gru_hist.seq(inp, lengths, Tensor(np.zeros((B, h), dtype=dt)))
        start = reshape(self.start_state(B, dt), (B, 1, h))
        states = concat([start, add(self.hist_proj(inp), hid)], axis=1)   # (B, T + 1, h)
        logits = self.decode_logits_batch(states, word_states, counts)
        cells = np.flatnonzero(decided)
        picked = take_rows(reshape(logits, (B * (T + 1), cfg.n_classes)), cells)
        masks = self._additive_masks(positions[decided], np.repeat(counts, lengths + 1))
        loss = cross_entropy(add(picked, Tensor(masks)), targets[decided])
        return loss, len(cells)

    def _check_paths(self, lengths, fed, fix, offsets, counts):
        """Raise for the first bad gold path, naming it and its first bad
        step: an empty path, a fixation outside the row's words, or an
        offset outside the class range (checked in that order per step)."""
        out_of_range = fed & ((fix < 0) | (fix >= counts[:, None]))
        too_far = fed & (np.abs(offsets) > self.cfg.l_max - 1)
        bad = out_of_range | too_far
        wrong = (lengths == 0) | bad.any(axis=1)
        if not wrong.any():
            return
        b = int(np.argmax(wrong))
        if lengths[b] == 0:
            raise ValueError(f"path {b} is empty")
        i = int(np.argmax(bad[b]))
        if out_of_range[b, i]:
            raise ValueError(f"path {b} step {i}: fixation {fix[b, i]} out of range "
                             f"for {counts[b]} words")
        raise ValueError(f"path {b} step {i}: offset {offsets[b, i]} outside class "
                         f"range +-{self.cfg.l_max - 1}")

    # -- sampling --------------------------------------------------------

    def sample_paths(self, word_states: Tensor, counts: np.ndarray, sentence_ids,
                     n_paths: int, rng: RngState, cfg: GumbelConfig):
        """``n_paths`` paths of each sentence in one sampler call.

        Returns (the sentence index of each row, the SampledBatch). Rows are
        sentence-major: row ``b * n_paths + p`` is path p of sentence b,
        draws from ``rng.substream(sentence_ids[b], p)`` and is capped at
        ``default_max_fixations`` of its own word count, so its path never
        depends on the other sentences of the batch.
        """
        pick = np.repeat(np.arange(len(sentence_ids)), n_paths)
        rngs = rng.substreams(tails=[(sid, p) for sid in sentence_ids for p in range(n_paths)])
        counts = counts[pick]
        return pick, self.sample_gumbel_batch(
            take_rows(word_states, pick), counts, rngs, cfg,
            [default_max_fixations(int(c)) for c in counts])

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
        never on which other rows share the batch. Row b's noise comes from
        the first ``caps[b] * n_classes`` uniforms of ``rngs[b]``, drawn for
        the whole batch in one ``stream_uniforms`` call, step s reading
        the s-th run of ``n_classes``: the same values as one draw per live
        step, since a stream's draws come in sequence. Each stream is read
        from its start, so each call takes fresh streams. A step turns
        into Gumbel noise only the working set's uniforms at the classes
        its mask leaves open, and gives a masked class noise 0: the mask
        sends that class's softmax entry, and so its gradient, to exactly
        0 whatever its value.

        ``straight_through``: each step fixates the argmax of logits plus
        noise (the Gumbel-max draw) and emits its one-hot row, carrying
        the gradient of the relaxed row: the step's softmax gathered at
        the words its move classes land on. ``surrogate=True`` keeps the
        relaxed rows as the forward values (positions still advance by
        the hard offsets); the analytic gradient of the straight-through
        rows is exactly the gradient of this surrogate forward, which is
        what finite differences can see.

        ``soft_convolution``: each row carries a distribution over its
        words, moved every step by the relaxed offset distribution with
        landings clamped to the row's word range (``shift_mass_fwd``). The
        row is emitted as is and its argmax reported as the fixation; the
        path ends once the expected probability of having stopped
        reaches SOFT_STOP_MASS.

        Only the rows still reading are stepped. A row leaves the working
        set when it stops or reaches its cap and never returns, so the set
        only shrinks: on the steps where it does, the rows that stay are
        gathered, and decoding (``decode_logits_batch``), the masks, the
        history step (``history_step``) and the bookkeeping then run on
        them alone. Step s emits the working set's rows that fixate
        there, (n_s, W) in batch order, so a row that chooses STOP is
        dropped at that step; ``row_mask`` (B, S) says which rows those
        are.

        The loop runs on plain arrays. When a gradient is wanted (grad
        mode on, and the word states or a generator parameter the loop
        reads require one), each step keeps what the reverse pass reads
        and the packed rows are one recorded ``sampler`` node, which the
        scan GRU reads whole. That node's backward (``_reverse_pass``)
        walks the steps in reverse. Otherwise nothing is kept and the
        rows are a plain tensor.

        A live row whose logits are not finite raises FloatingPointError
        naming the step.
        """
        B, W, h = word_states.shape
        gc = self.cfg
        C = gc.n_classes
        dt = word_states.dtype
        soft = cfg.mode == SOFT_CONVOLUTION
        inv_tau = np.asarray(1.0 / cfg.temperature, dtype=dt)
        caps = np.broadcast_to(
            np.asarray(max_fixations, dtype=np.int64), (B,)
        )
        if (caps < 1).any():
            raise ValueError("max_fixations must be >= 1")
        uniforms = stream_uniforms(rngs, caps * C).reshape(B, int(caps.max()), C)
        offsets = np.arange(C - 1) - (gc.l_max - 1)
        parents = (word_states, *self._sampler_params())
        tape: list[_Step] | None = (
            [] if is_grad_enabled() and any(p.requires_grad for p in parents) else None)
        fix_w = self.fix_pos.w.data
        stopped = np.zeros(B, dtype=bool)
        fix_rows: list[np.ndarray] = []     # each step's fixating rows
        fix_at: list[np.ndarray] = []       # and their fixations
        rows: list[np.ndarray] = []
        row_mask: list[np.ndarray] = []
        # the working set: the batch rows still reading, and their state
        ids = np.arange(B)
        ws, n_words = word_states.data, counts
        state = np.zeros((B, h), dtype=dt) + self.start.data
        hid = np.zeros((B, h), dtype=dt)
        positions = np.full(B, -1, dtype=np.int64)
        dist = None     # soft: (n, W) position distribution after entry
        stop_mass = np.zeros(B)
        for step in range(int(caps.max())):
            n = len(ids)
            logits, (attn, x_head) = self.decode_logits_batch(state, ws, n_words)
            if dist is None:
                mask = self._additive_masks(positions, n_words)
            else:
                # a soft step moves by any offset shorter than its row, or stops
                valid = np.concatenate([np.abs(offsets) < n_words[:, None],
                                        np.ones((n, 1), dtype=bool)], axis=1)
                mask = np.where(valid, 0.0, NEG_INF).astype(np.float32)
            # noise on the open classes only; a masked class's is never read
            r, c = np.nonzero(mask == 0)
            noise = np.zeros((n, C), dtype=dt)
            noise[r, c] = gumbel_of(uniforms[ids[r], step, c])
            z = (logits + noise) * inv_tau
            if not np.isfinite(z).all():
                # a NaN row would argmax to class 0, a move off the sentence
                raise FloatingPointError(
                    f"sampler step {step}: a live row's logits are not finite "
                    f"(non-finite generator parameters or temperature)")
            moved = relax = None
            if dist is None:
                # a hard step from the current positions; for a soft
                # path, the entry saccade
                probs = softmax_fwd(z, mask)
                hard = probs.argmax(axis=1)
                live = hard != gc.stop_class
                stopped[ids[~live]] = True
                if not live.any():
                    break
                if soft or surrogate or tape is not None:
                    # the relaxed row: each (row, move class) that lands on
                    # a word puts its probability there; no two classes of
                    # a row land on the same word
                    landing, ok = self._landings(positions, n_words)
                    lr, lc = np.nonzero(ok & live[:, None])
                    relax = (lr, lc, landing[lr, lc])
                if soft or surrogate:
                    y_words = np.zeros((n, W), dtype=dt)
                    y_words[lr, relax[2]] = probs[lr, lc]
                if soft:
                    dist = y_words
            else:
                live = np.ones(n, dtype=bool)
                p_stop = softmax_fwd(z, mask)[:, gc.stop_class]
                probs = softmax_fwd(z[:, :C - 1], mask[:, :C - 1])
                moved = (dist, n_words)
                dist = shift_mass_fwd(dist, probs, offsets, n_words)
                stop_mass += (1.0 - stop_mass) * p_stop
            if soft:
                row = dist
                fix = dist.argmax(axis=1)
                stopped[ids[stop_mass >= SOFT_STOP_MASS]] = True
            else:
                fix = positions + hard - (gc.l_max - 1)
                if surrogate:
                    row = y_words
                else:
                    row = np.zeros((n, W), dtype=dt)
                    row[live, fix[live]] = 1.0
            rows.append(row if live.all() else row[live])
            row_mask.append(np.zeros(B, dtype=np.float32))
            row_mask[-1][ids[live]] = 1.0
            fix_rows.append(ids[live])
            fix_at.append(fix[live])
            if tape is not None:
                tape.append(_Step(ids, ws, attn, x_head, probs, live, relax, moved))
            # every row of the working set has fixated at each step so far
            keep = live & ~stopped[ids] & (step + 1 < caps[ids])
            if not keep.any():
                break
            if not keep.all():
                sel = np.flatnonzero(keep)
                ids, n_words, fix = ids[sel], n_words[sel], fix[sel]
                ws, hid, row = ws[sel], hid[sel], row[sel]
                if soft:
                    dist, stop_mass = row, stop_mass[sel]
            pe = rows_matmul(dist, fix_w[0:W, :]) if soft else fix_w[fix]
            h_prev = hid
            state, hid, (inp, gates) = self.history_step(mix_rows_fwd(row, ws), pe, hid)
            if tape is not None:
                tape[-1].history = (np.flatnonzero(keep), ids, ws, row,
                                    dist if soft else fix, h_prev, inp, gates)
            positions = fix
        mask_arr = (
            np.stack(row_mask, axis=1) if row_mask else np.zeros((B, 0), dtype=np.float32)
        )
        packed = np.concatenate(rows) if rows else np.zeros((0, W), dtype=dt)
        # each row's fixations in step order: one stable sort by row, one split
        by_row = np.concatenate([np.zeros(0, np.int64), *fix_rows])
        order = np.argsort(by_row, kind="stable")
        fix_sorted = np.concatenate([np.zeros(0, np.int64), *fix_at])[order].tolist()
        cuts = np.cumsum(np.bincount(by_row, minlength=B)).tolist()
        fixations = [fix_sorted[a:b] for a, b in zip([0] + cuts, cuts)]
        if tape is None:
            return SampledBatch(Tensor(packed), mask_arr, fixations, stopped)
        ends = np.cumsum([len(r) for r in rows]).tolist()
        for st, a, b in zip(tape, [0] + ends, ends):
            st.out = slice(a, b)
        node = op_result(
            packed, parents,
            lambda g: self._reverse_pass(g, tape, parents, soft, inv_tau, offsets),
            "sampler")
        return SampledBatch(node, mask_arr, fixations, stopped)

    def _sampler_params(self) -> tuple[Tensor, ...]:
        """The parameters the sampler's loop reads, in its node's order
        after the word states."""
        g, p = self.gru_hist, self.hist_proj
        return (self.start, self.fix_pos.w, g.w_ih, g.w_hh, g.b_ih, g.b_hh,
                p.w, p.b, self.head.w, self.head.b)

    def _reverse_pass(self, g: np.ndarray, tape: list["_Step"], parents: tuple,
                      soft: bool, inv_tau: np.ndarray, offsets: np.ndarray) -> tuple:
        """The sampler node's backward: ``g`` (N, W) is the gradient of its
        packed rows; one gradient or None per parent.

        Only the recurrence is sequential. Walking the steps in reverse,
        each step's state and hidden gradients flow back through its
        history GRU, its word read, its row (the relaxed row for a hard or
        entry step, ``shift_mass_bwd`` for a soft walk step), the decision
        softmax, the head and the attention into the previous working
        set, scattered by index. Word-state gradients collect as outer
        products in two (B, 3S, W) and (B, 3S, h) buffers, summed by one
        batched matmul; each weight's and bias's gradient is one GEMM or
        one sum over all the steps' stacked terms.
        """
        need = [p.requires_grad for p in parents]
        B, W, h = parents[0].shape
        C = self.cfg.n_classes
        dt = g.dtype
        S = len(tape)
        head_w, proj_w, fix_w = self.head.w.data, self.hist_proj.w.data, self.fix_pos.w.data
        w_ih, w_hh = self.gru_hist.w_ih.data, self.gru_hist.w_hh.data
        scale = np.asarray(1.0 / math.sqrt(h), dtype=dt)
        if need[0]:
            # per step s: slot 3s the context read, 3s + 1 the attention
            # scores, 3s + 2 the history's word read
            P = np.zeros((B, 3 * S, W), dtype=dt)
            Q = np.zeros((B, 3 * S, h), dtype=dt)
        heads, hists = [], []       # (input, output gradient) per step
        d_state = d_hid = d_moved = None
        for s in range(S - 1, -1, -1):
            st = tape[s]
            n = len(st.ids)
            d_row = np.zeros((n, W), dtype=dt)
            d_row[st.live] = g[st.out]
            d_hid_n = None
            if d_state is not None:
                # the history step after this one fed the next step's decode
                keep, ids_k, ws_k, row_k, at, h_prev, inp, gates = st.history
                d_new = d_state if d_hid is None else d_state + d_hid
                dgi, dgh, d_h = gru_bwd(d_new, h_prev, gates, w_hh)
                d_inp = np.matmul(d_state, proj_w.T) + np.matmul(dgi, w_ih.T)
                d_read, d_pe = d_inp[:, :h], d_inp[:, h:]
                d_keep = mix_rows_bwd_w(d_read, ws_k)
                if soft:
                    d_keep += np.matmul(d_pe, fix_w[0:W, :].T) + d_moved
                d_row[keep] += d_keep
                if len(keep) == n:
                    d_hid_n = d_h
                else:
                    d_hid_n = np.zeros((n, h), dtype=dt)
                    d_hid_n[keep] = d_h
                hists.append((inp, d_state, dgi, dgh, h_prev, at, d_pe))
                if need[0]:
                    P[ids_k, 3 * s + 2], Q[ids_k, 3 * s + 2] = row_k, d_read
            if st.relax is not None:
                lr, lc, land = st.relax
                d_probs = np.zeros((n, C), dtype=dt)
                d_probs[lr, lc] = d_row[lr, land]
                d_z = softmax_bwd(st.probs, d_probs)
            else:
                dist_in, n_words = st.moved
                d_moved, d_q = shift_mass_bwd(d_row, dist_in, st.probs, offsets, n_words)
                d_z = np.zeros((n, C), dtype=dt)
                d_z[:, :C - 1] = softmax_bwd(st.probs, d_q)
            d_logits = d_z * inv_tau
            heads.append((st.x_head, d_logits))
            d_x = np.matmul(d_logits, head_w.T)
            d_ctx = d_x[:, :h]
            d_scores = softmax_bwd(st.attn, mix_rows_bwd_w(d_ctx, st.ws)) * scale
            d_state = d_x[:, h:] + mix_rows_bwd_w(d_scores, st.ws.transpose(0, 2, 1))
            d_hid = d_hid_n
            if need[0]:
                P[st.ids, 3 * s], Q[st.ids, 3 * s] = st.attn, d_ctx
                P[st.ids, 3 * s + 1], Q[st.ids, 3 * s + 1] = d_scores, st.x_head[:, h:]
        grads = [None] * len(parents)
        if need[0]:
            grads[0] = np.matmul(P.transpose(0, 2, 1), Q)
        if need[1]:
            grads[1] = d_state.sum(axis=0)
        if any(need[9:]):
            x_head, d_logits = (np.concatenate(t) for t in zip(*heads))
            _, grads[9], grads[10] = linear_bwd(x_head, head_w, d_logits, (False, *need[9:]))
        if hists and any(need[2:9]):
            inp, d_out, dgi, dgh, h_prev, at, d_pe = (np.concatenate(t) for t in zip(*hists))
            _, grads[7], grads[8] = linear_bwd(inp, proj_w, d_out, (False, *need[7:9]))
            _, grads[3], grads[5] = linear_bwd(inp, w_ih, dgi, (False, need[3], need[5]))
            _, grads[4], grads[6] = linear_bwd(h_prev, w_hh, dgh, (False, need[4], need[6]))
            if need[2]:
                grads[2] = np.zeros_like(fix_w)
                if soft:
                    grads[2][0:W] = np.matmul(at.T, d_pe)
                else:
                    np.add.at(grads[2], at, d_pe)
        return tuple(grads)


@dataclass(eq=False)
class _Step:
    """What the sampler's reverse pass reads of one step that emitted rows."""

    ids: np.ndarray         # (n,) batch rows of the working set
    ws: np.ndarray          # (n, W, h) their word states
    attn: np.ndarray        # (n, W) attention weights
    x_head: np.ndarray      # (n, 2h) head input: context, then state
    probs: np.ndarray       # (n, C) decision softmax, or a soft walk's (n, C-1) moves
    live: np.ndarray        # (n,) the rows that fixate
    relax: tuple | None     # hard or entry step: (row, class, word) of each landing
    moved: tuple | None     # soft walk step: the distribution moved, word counts
    out: slice | None = None    # the rows it emitted, in the node's packed rows
    # the history step after it: which rows it kept, their batch rows, word
    # states, rows, fixations (soft: distributions), previous hidden, input
    # and gates; None if the loop ended here
    history: tuple | None = None
