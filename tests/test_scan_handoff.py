"""The sampler-to-scan-GRU handoff against the full-batch handoff it
replaced.

The oracle is a test-local copy of the earlier design: every step's rows
are scattered back to all B rows (zero for the rows that do not fixate),
each step is read against all B rows of the word vectors, and the scan
GRU, one reference ``gru_cell`` node per step, gathers the live rows of
the read again. The text-only baseline built its steps with one
(B, L, T) one-hot matmul over the tokens and L slices of it. The packed
handoff, read by one ``scan`` node, must give the same forward values bit
for bit, and the same gradients up to the order of the node's sums over
the steps.
"""

from contextlib import nullcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gru, row_streams, scan_words, step_slices

from gazenlu.augmentor import (CLASSIFICATION, GAZE, SCAN_DROPOUT, TEXT_ONLY,
                               JointModel, ModelConfig, ScanpathEncoder)
from gazenlu.diffcore import (RngState, Tensor, backward, concat, cross_entropy,
                              dropout, matmul, mix_rows, mse_loss, mul, no_grad,
                              take_rows, tsum)
from gazenlu.diffcore.tensor import ShapeError, op_result
from gazenlu.gazegen import (SOFT_CONVOLUTION, STRAIGHT_THROUGH, GumbelConfig,
                             default_max_fixations)
from gazenlu.textenc import TextEncoderConfig, build_vocab, collate, tokenize

# -- the full-batch handoff, as it was ------------------------------------


def _scatter_rows(x: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """Rows of ``x`` placed at the distinct rows ``idx`` of ``n`` zero rows;
    the backward is the gradient's rows ``idx``."""
    idx = np.asarray(idx)
    if idx.shape != x.shape[:1]:
        raise ShapeError(f"scatter_rows: {idx.shape} indices for {x.shape[0]} rows")
    data = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    data[idx] = x.data

    return op_result(data, (x,), lambda g: (g[idx],), "scatter_rows")


def _fixation_steps(rows, words):
    return [mix_rows(r, words) for r in rows]


def _full_batch_run_steps(enc, steps, step_mask, cls, rngs=None):
    """The scan GRU over (B, d) steps, gathering each step's live rows.
    Dropout reads each row's words of ``scan_words``."""
    lengths = step_mask.sum(axis=1)
    train = enc.training and rngs is not None
    if train:
        grid = scan_words(rngs, step_mask, cls.shape[1])
    ids = np.arange(cls.shape[0])
    h = cls
    parts = []
    for t, x in enumerate(steps):
        live = lengths[ids] > t
        if not live.all():
            parts.append((ids[~live], take_rows(h, np.flatnonzero(~live))))
            ids = ids[live]
            if not len(ids):
                break
            h = take_rows(h, np.flatnonzero(live))
        if train:
            x = dropout(x, SCAN_DROPOUT, grid[:, t])
        if len(ids) < x.shape[0]:
            x = take_rows(x, ids)
        h = gru(enc.gru, x, h)
    if len(ids):
        parts.append((ids, h))
    if len(parts) == 1:
        return parts[0][1]
    order = np.argsort(np.concatenate([i for i, _ in parts]))
    return take_rows(concat([state for _, state in parts], axis=0), order)


def _full_batch_handoff(enc, rows, step_mask, words, cls, rngs=None):
    """Packed steps scattered back to all rows, read, then gathered."""
    B = cls.shape[0]
    full = [_scatter_rows(s, np.flatnonzero(step_mask[:, t]), B)
            for t, s in enumerate(step_slices(rows, step_mask))]
    return _full_batch_run_steps(enc, _fixation_steps(full, words), step_mask, cls, rngs)


def _full_batch_content_steps(batch, tokens):
    B, T, _ = tokens.shape
    content = batch.pool.any(axis=1)
    b, t = np.nonzero(content)
    step = (np.cumsum(content, axis=1) - 1)[b, t]
    L = int(content.sum(axis=1).max(initial=1))
    scat = np.zeros((B, L, T), dtype=tokens.dtype)
    scat[b, step, t] = 1.0
    mask = np.zeros((B, L), dtype=np.float32)
    mask[b, step] = 1.0
    rows = matmul(Tensor(scat), tokens)
    return [rows[:, i, :] for i in range(L)], mask


def _full_batch_loss(model, batch, labels, pair_rngs, drop_rngs):
    """``JointModel.loss_pairs`` through the full-batch handoff."""
    rngs = drop_rngs if model.training else None

    def drops(name):
        return None if rngs is None else [r.substream(name) for r in rngs]

    tokens, cls, words = model.cls_encoder.forward_batch(batch, drops("cls_enc"))
    if model.cfg.model_kind == TEXT_ONLY:
        steps, mask = _full_batch_content_steps(batch, tokens)
    else:
        ws = model._word_states(batch, drops("gen_enc"))
        counts = batch.word_counts
        caps = np.array([default_max_fixations(int(c)) for c in counts])
        sampled = model.generator.sample_gumbel_batch(ws, counts, pair_rngs,
                                                      model.cfg.gumbel, caps)
        mask = sampled.row_mask
        full = [_scatter_rows(r, np.flatnonzero(mask[:, t]), batch.size)
                for t, r in enumerate(step_slices(sampled.rows, mask))]
        steps = _fixation_steps(full, words)
    feature = _full_batch_run_steps(model.scan, steps, mask, cls, drops("scan"))
    out = model.head(feature)
    if model.head.kind == CLASSIFICATION:
        return cross_entropy(out, labels.astype(np.int64))
    return mse_loss(out, labels.astype(out.dtype).reshape(batch.size, 1))


def _assert_grads_close(got, want, what):
    """Gradients within 1e-6 (float32) or 1e-12 (float64) times
    max(1, max|g|), max|g| over all the oracle's gradients: the scan node
    sums its weights' per-step terms in one GEMM. A leaf the oracle gives
    no gradient, or only zeros, gets none or only zeros."""
    scale = max(1.0, *(np.abs(w).max() for _, w in want if w is not None and w.size))
    for (name, g), (_, w) in zip(got, want):
        if w is None or not w.any():
            assert g is None or not g.any(), (what, name)
        else:
            tol = (1e-6 if w.dtype == np.float32 else 1e-12) * scale
            assert g.dtype == w.dtype and np.abs(g - w).max() <= tol, (what, name)


# -- the scan GRU alone ---------------------------------------------------


@st.composite
def _ragged_steps(draw):
    """(lengths, W, dtype, seed): ragged rows, with rows of no steps and
    rows of every step among them."""
    B = draw(st.integers(1, 6))
    T = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.sampled_from([0, T, *range(T + 1)]),
                            min_size=B, max_size=B))
    return (np.array(lengths), T, draw(st.integers(1, 5)),
            draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**16)))


@given(case=_ragged_steps(), training=st.booleans(), one_hot=st.booleans())
@settings(max_examples=80, deadline=None)
def test_run_steps_matches_the_full_batch_handoff(case, training, one_hot):
    """Packed rows read by the scan GRU against the same rows scattered
    to the whole batch, read and gathered again: the forward is bit-equal
    with or without a graph, and every gradient (rows, words, [CLS] and
    the GRU's weights) agrees up to summation order, in eval and in
    training with dropout."""
    lengths, T, W, dtype, seed = case
    B, d = len(lengths), 16
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float32)
    r = RngState(seed, 2)
    enc = ScanpathEncoder(d, r.substream("enc"))
    for _, p in enc.named_parameters():
        p.data = p.data.astype(dtype)
    enc.train(training)
    steps = []
    for t in range(T):
        n = int(mask[:, t].sum())
        if one_hot:
            steps.append(np.eye(W, dtype=dtype)[r.substream("at", t).integers(0, W, (n,))])
        else:
            steps.append(r.substream("w", t).uniform((n, W)).astype(dtype))
    rows = Tensor(np.concatenate(steps), requires_grad=True)
    words = Tensor(r.substream("x").normal((B, W, d)).astype(dtype), requires_grad=True)
    cls = Tensor(r.substream("cls").normal((B, d)).astype(dtype), requires_grad=True)
    readout = Tensor(r.substream("readout").normal((B, d)).astype(dtype))
    drop = row_streams(r.substream("drop"), B) if training else None
    leaves = [("rows", rows), ("words", words), ("cls", cls)] + list(enc.named_parameters())

    def scan(enc, rows, mask, words, cls, drop):
        return enc.run_steps(np.count_nonzero(mask, axis=0), mask, rows, words, cls, drop)

    def run(fn, graph):
        for _, p in leaves:
            p.grad = None
        with nullcontext() if graph else no_grad():
            out = fn(enc, rows, mask, words, cls, drop)
            if graph:
                backward(tsum(mul(out, readout)))
        return out.data, [(name, p.grad) for name, p in leaves]

    for graph in (False, True):
        got, got_grads = run(scan, graph)
        want, want_grads = run(_full_batch_handoff, graph)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want), graph
    _assert_grads_close(got_grads, want_grads, "run_steps")


# -- both model kinds, end to end -----------------------------------------

_VOCAB = build_vocab(["aa ab ba b a abba bb", "ab aa a b"] * 3, 32)
_WORDS = ["aa", "ab", "ba", "b", "a", "abba", "bb"]


def _model(kind, mode, dtype):
    text = TextEncoderConfig(vocab_size=len(_VOCAB.token_to_id), d_model=16,
                             n_layers=1, n_heads=2, d_ff=32, max_len=32)
    cfg = ModelConfig(text=text, gen_hidden=16, l_max=8, model_kind=kind,
                      gumbel=GumbelConfig(mode=mode))
    model = JointModel(cfg, RngState(70, 0))
    for _, p in model.named_parameters():
        p.data = p.data.astype(dtype)
    return model


_MODELS = {(kind, mode, np.dtype(dt)): _model(kind, mode, dt)
           for kind, mode in ((GAZE, STRAIGHT_THROUGH), (GAZE, SOFT_CONVOLUTION),
                              (TEXT_ONLY, STRAIGHT_THROUGH))
           for dt in (np.float32, np.float64)}


def _text(draw, most):
    return " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=most)))


@st.composite
def _sentences(draw):
    """1-6 instances of 1-7 words (the generator's span), some in two
    texts; 1- and 2-word rows reach their cap of 2 or 4 fixations often,
    so rows leave the scan at many steps, and a second text puts each
    row's content tokens at its own positions."""
    return [(_text(draw, 4), _text(draw, 3) if draw(st.booleans()) else None)
            for _ in range(draw(st.integers(1, 6)))]


@given(texts=_sentences(),
       model_key=st.sampled_from(sorted(_MODELS, key=str)),
       training=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_loss_matches_the_full_batch_handoff(texts, model_key, training, seed):
    """``loss_pairs`` of a gaze model (both relaxations) and of the
    text-only baseline equals, bit for bit, the loss through the
    full-batch handoff, and every parameter gradient agrees up to the
    scan node's summation order, in float32 and float64, in eval and in
    training with dropout."""
    model = _MODELS[model_key]
    dtype = model_key[2]
    model.train(training)
    batch = collate([tokenize(t1, t2, _VOCAB, 32) for t1, t2 in texts])
    labels = RngState(seed, 1).integers(0, 2, (batch.size,))
    params = list(model.named_parameters())

    def run(loss_fn):
        model.zero_grad()
        rngs = [RngState(seed, 2).substream("path", b) for b in range(batch.size)]
        loss = loss_fn(model, batch, labels, rngs, row_streams(RngState(seed, 3), batch.size))
        backward(loss)
        return loss.data, [(name, p.grad) for name, p in params]

    got, got_grads = run(JointModel.loss_pairs)
    want, want_grads = run(_full_batch_loss)
    model.zero_grad()
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)
    _assert_grads_close(got_grads, want_grads, model_key)


def test_sampled_steps_hold_the_rows_their_mask_marks():
    """The sampler's packed rows hold one row per (row, step) its mask
    marks, in every relaxation, under a graph and without one."""
    model = _MODELS[(GAZE, STRAIGHT_THROUGH, np.dtype(np.float32))]
    texts = ["aa", "ab ba", "abba bb a b aa ab", "b a", "ba ba ba"]
    batch = collate([tokenize(t, None, _VOCAB, 32) for t in texts])
    counts = batch.word_counts
    caps = np.array([default_max_fixations(int(c)) for c in counts])
    with no_grad():
        ws = model._word_states(batch, None)
    for mode in (STRAIGHT_THROUGH, SOFT_CONVOLUTION):
        for graph in (False, True):
            for k in range(5):
                rngs = [RngState(71, k).substream(b) for b in range(batch.size)]
                with nullcontext() if graph else no_grad():
                    sb = model.generator.sample_gumbel_batch(
                        ws, counts, rngs, GumbelConfig(mode=mode), caps)
                assert sb.rows.shape == (sb.row_mask.sum(), ws.shape[1])
                assert [len(f) for f in sb.fixations] == list(sb.row_mask.sum(axis=1))
