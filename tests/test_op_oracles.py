"""The GRU step, the GRU op, the row gather, the lazily built backward
closures and the packed text encoder against the forms they replaced.

The oracles are test-local copies of the earlier ``gru_cell``,
``gru_seq``, ``embedding``, ``relu``, ``concat`` and ``transpose``. Each
wrapped its backward closure in a factory that ``_result`` called only
for a recorded node, and the GRU gate algebra was written out in both GRU
ops. The ops must give the same forward values and the same gradients,
bit for bit, in float32 and float64. ``gru_cell`` has left the core: its
step and backward kernels, which the sampler and the scan GRU run, are
checked through the reference ``conftest.gru_cell`` built from them.

The text encoder's oracle is its earlier padded form, which ran every
layer on all B x T slots and built attention from per-op nodes. The
packed encoder must give the same token, CLS and word states, bit for
bit, and the same parameter gradients up to summation order.
"""

import inspect
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gru_cell, own_words, row_streams

from gazenlu import diffcore
from gazenlu.augmentor import TEXT_ONLY, JointModel, ModelConfig
from gazenlu.diffcore import (FLOAT32_H, FLOAT32_TOL, FLOAT64_H, FLOAT64_TOL,
                              NEG_INF, Embedding, RngState, Tensor, add,
                              backward, concat, dropout, grad_check, gru_seq,
                              matmul, mul, no_grad, relu, reshape, softmax,
                              standard_op_checks, take_rows, transpose, tsum)
from gazenlu.diffcore.tensor import (ShapeError, _record, _row_sums, _wrap,
                                     rows_matmul)
from gazenlu.gazegen import SOFT_CONVOLUTION, GumbelConfig
from gazenlu.textenc import (DROPOUT, TextEncoder, TextEncoderConfig,
                             build_vocab, collate, tokenize)
from gazenlu.trainkit import GazeModel

# -- the ops as they were -------------------------------------------------


def _old_result(data, parents, bwd_factory, op) -> Tensor:
    """bwd_factory is called only when the node is recorded."""
    if _record(parents):
        return Tensor._node(data, parents, bwd_factory(), op)
    return Tensor._leaf(data)


def _old_gru_cell(x, h, w_ih, w_hh, b_ih, b_hh) -> Tensor:
    x, h = _wrap(x), _wrap(h)
    H = h.shape[1]
    gi = rows_matmul(x.data, w_ih.data) + b_ih.data
    gh = rows_matmul(h.data, w_hh.data) + b_hh.data
    r = 0.5 * (np.tanh(0.5 * (gi[:, 0:H] + gh[:, 0:H])) + 1.0)
    z = 0.5 * (np.tanh(0.5 * (gi[:, H:2 * H] + gh[:, H:2 * H])) + 1.0)
    ghn = gh[:, 2 * H:3 * H]
    n = np.tanh(gi[:, 2 * H:3 * H] + r * ghn)
    data = n + z * (h.data + n * -1.0)

    def bwd():
        def fn(g):
            dz = g * (h.data - n) * z * (1.0 - z)
            da_n = g * (1.0 - z) * (1.0 - n * n)
            dr = da_n * ghn * r * (1.0 - r)
            dgi = np.concatenate([dr, dz, da_n], axis=1)
            dgh = np.concatenate([dr, dz, da_n * r], axis=1)
            return (
                np.matmul(dgi, w_ih.data.T) if x.requires_grad else None,
                np.matmul(dgh, w_hh.data.T) + g * z if h.requires_grad else None,
                np.matmul(x.data.T, dgi) if w_ih.requires_grad else None,
                np.matmul(h.data.T, dgh) if w_hh.requires_grad else None,
                dgi.sum(axis=0) if b_ih.requires_grad else None,
                dgh.sum(axis=0) if b_hh.requires_grad else None,
            )
        return fn

    return _old_result(data, (x, h, w_ih, w_hh, b_ih, b_hh), bwd, "gru_cell")


def _old_gru_seq(x, lengths, h0, w_ih, w_hh, b_ih, b_hh, reverse=False) -> Tensor:
    x, h0 = _wrap(x), _wrap(h0)
    lengths = np.asarray(lengths, dtype=np.int64)
    B, T, d = x.shape
    H = h0.shape[1]
    parents = (x, h0, w_ih, w_hh, b_ih, b_hh)
    order = np.argsort(-lengths, kind="stable")
    times = np.arange(T)[::-1] if reverse else np.arange(T)
    step, pos = np.nonzero(lengths[order][None, :] > times[:, None])
    live = np.bincount(step, minlength=T).tolist()
    starts = np.concatenate([[0], np.cumsum(live)]).astype(np.int64).tolist()
    cell_rows, cell_times = order[pos], times[step]
    xs = x.data[cell_rows, cell_times]
    gi_all = rows_matmul(xs, w_ih.data) + b_ih.data
    N = len(cell_rows)
    dt = gi_all.dtype
    record = _record(parents)
    saved = {k: np.empty((N, H), dtype=dt) for k in ("h", "r", "z", "n", "ghn")}
    h = h0.data[order].astype(dt, copy=False)
    out = np.empty((B, T, H), dtype=dt)
    for k, t in enumerate(times):
        n, c = live[k], slice(starts[k], starts[k + 1])
        if n:
            hp = h[:n]
            gi = gi_all[c]
            gh = rows_matmul(hp, w_hh.data) + b_hh.data
            r = 0.5 * (np.tanh(0.5 * (gi[:, 0:H] + gh[:, 0:H])) + 1.0)
            z = 0.5 * (np.tanh(0.5 * (gi[:, H:2 * H] + gh[:, H:2 * H])) + 1.0)
            ghn = gh[:, 2 * H:3 * H]
            ng = np.tanh(gi[:, 2 * H:3 * H] + r * ghn)
            if record:
                for key, val in (("h", hp), ("r", r), ("z", z), ("n", ng), ("ghn", ghn)):
                    saved[key][c] = val
            h[:n] = ng + z * (hp + ng * -1.0)
        out[order, t] = h

    def bwd():
        def fn(g):
            gs = g[order]
            dh = np.zeros((B, H), dtype=dt)
            dgi = np.empty((N, 3 * H), dtype=dt)
            dgh = np.empty((N, 3 * H), dtype=dt)
            for k in range(T - 1, -1, -1):
                t, n, c = times[k], live[k], slice(starts[k], starts[k + 1])
                dh += gs[:, t]
                if not n:
                    continue
                gn = dh[:n]
                r, z, ng = saved["r"][c], saved["z"][c], saved["n"][c]
                dz = gn * (saved["h"][c] - ng) * z * (1.0 - z)
                da_n = gn * (1.0 - z) * (1.0 - ng * ng)
                dr = da_n * saved["ghn"][c] * r * (1.0 - r)
                dgi[c] = np.concatenate([dr, dz, da_n], axis=1)
                dgh[c] = np.concatenate([dr, dz, da_n * r], axis=1)
                dh[:n] = np.matmul(dgh[c], w_hh.data.T) + gn * z
            gx = gh0 = None
            if x.requires_grad:
                gx = np.zeros_like(x.data)
                gx[cell_rows, cell_times] = np.matmul(dgi, w_ih.data.T)
            if h0.requires_grad:
                gh0 = np.empty_like(dh)
                gh0[order] = dh
            return (
                gx, gh0,
                np.matmul(xs.T, dgi) if w_ih.requires_grad else None,
                np.matmul(saved["h"].T, dgh) if w_hh.requires_grad else None,
                dgi.sum(axis=0) if b_ih.requires_grad else None,
                dgh.sum(axis=0) if b_hh.requires_grad else None,
            )
        return fn

    return _old_result(out, parents, bwd, "gru_seq")


def _old_embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding: ids out of range for table {table.shape}")
    data = table.data[ids]

    def bwd():
        def fn(g):
            return (_row_sums(ids, g, table.data),)
        return fn

    return _old_result(data, (table,), bwd, "embedding")


def _old_relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def bwd():
        pos = x.data > 0

        def fn(g):
            return (g * pos,)
        return fn

    return _old_result(data, (x,), bwd, "relu")


def _old_concat(tensors, axis=0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd():
        sizes = [t.data.shape[axis] for t in tensors]
        cuts = np.cumsum(sizes)[:-1]

        def fn(g):
            return tuple(part if t.requires_grad else None
                         for t, part in zip(tensors, np.split(g, cuts, axis=axis)))
        return fn

    return _old_result(data, tuple(tensors), bwd, "concat")


def _old_transpose(x: Tensor, axes) -> Tensor:
    data = x.data.transpose(axes)

    def bwd():
        inv = np.argsort(axes)

        def fn(g):
            return (g.transpose(inv),)
        return fn

    return _old_result(data, (x,), bwd, "transpose")


def _old_attention(attn, x: Tensor, key_mask: np.ndarray) -> Tensor:
    B, T, d = x.shape
    h = attn.n_heads
    dh = d // h

    def heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (B, T, h, dh)), (0, 2, 1, 3))

    q, k, v = heads(attn.wq(x)), heads(attn.wk(x)), heads(attn.wv(x))
    scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    weights = softmax(scores, mask=key_mask.reshape(B, 1, 1, T))
    mixed = transpose(matmul(weights, v), (0, 2, 1, 3))
    return attn.wo(reshape(mixed, (B, T, d)))


def _padded_drop_words(enc: TextEncoder, batch, rngs) -> np.ndarray:
    """The encoder's dropout words laid out padded, (B, T, sites, d): row
    b's stream gives each of its tokens in turn d words per site (the
    embedding, then each block's attention and feed-forward); pad slots
    hold zeros."""
    live = batch.attention_mask > 0
    sites, d = 1 + 2 * len(enc.blocks), enc.cfg.d_model
    grid = np.zeros(live.shape + (sites, d), dtype=np.uint32)
    for b, s in enumerate(rngs):
        n = int(live[b].sum())
        grid[b, live[b]] = own_words(s, n * sites * d).reshape(n, sites, d)
    return grid


def _old_encoder(enc: TextEncoder, batch, rngs=None):
    """``enc.forward_batch`` as it was: every layer on the padded (B, T)
    slots, pad tokens included, and attention through reshape, transpose,
    matmul, mul and softmax nodes. Returns (tokens, cls, words)."""
    B, T = batch.token_ids.shape
    positions = np.broadcast_to(np.arange(T), (B, T))
    x = add(add(enc.tok(batch.token_ids), enc.pos(positions)), enc.seg(batch.segment_ids))
    train = enc.training and rngs is not None
    if train:
        drops = _padded_drop_words(enc, batch, rngs)
        x = dropout(x, DROPOUT, drops[:, :, 0])
    key_mask = ((1.0 - batch.attention_mask.astype(x.dtype)) * NEG_INF).astype(x.dtype)
    for i, block in enumerate(enc.blocks):
        a = _old_attention(block.attn, block.ln1(x), key_mask)
        if train:
            a = dropout(a, DROPOUT, drops[:, :, 1 + 2 * i])
        x = add(x, a)
        f = block.ff2(relu(block.ff1(block.ln2(x))))
        if train:
            f = dropout(f, DROPOUT, drops[:, :, 2 + 2 * i])
        x = add(x, f)
    tokens = enc.final_ln(x)
    return tokens, tokens[:, 0, :], matmul(Tensor(batch.pool.astype(tokens.dtype)), tokens)


# -- comparison ------------------------------------------------------------


def _same_node(new: Tensor, old: Tensor, g: np.ndarray) -> None:
    """Equal forward values and, for one upstream gradient ``g``, equal
    gradients for each parent (None for the same parents), bit for bit."""
    assert new.data.dtype == old.data.dtype
    assert np.array_equal(new.data, old.data)
    assert new._parents == old._parents
    for a, b in zip(new._backward(g), old._backward(g), strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


DTYPES = st.sampled_from([np.float32, np.float64])


def _param(rng: RngState, key, shape, dtype, grad=True) -> Tensor:
    return Tensor((0.7 * rng.substream(key).normal(shape)).astype(dtype),
                  requires_grad=grad)


def _gru_params(rng, d, H, dtype):
    return [_param(rng, k, shape, dtype) for k, shape in (
        ("w_ih", (d, 3 * H)), ("w_hh", (H, 3 * H)), ("b_ih", (3 * H,)),
        ("b_hh", (3 * H,)))]


@st.composite
def _cell_cases(draw):
    """(B, d, H, dtype, h requires grad, seed); B = 1 is the one-row GEMM."""
    return (draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6)),
            draw(DTYPES), draw(st.booleans()), draw(st.integers(0, 2**16)))


@given(case=_cell_cases())
@example(case=(1, 3, 4, np.float32, False, 0))
@example(case=(1, 3, 4, np.float64, True, 1))
@settings(max_examples=60, deadline=None)
def test_gru_cell_matches_its_earlier_form(case):
    B, d, H, dtype, h_grad, seed = case
    r = RngState(seed, 31)
    x = _param(r, "x", (B, d), dtype)
    h = _param(r, "h", (B, H), dtype, grad=h_grad)
    weights = _gru_params(r, d, H, dtype)
    g = r.substream("g").normal((B, H)).astype(dtype)
    _same_node(gru_cell(x, h, *weights), _old_gru_cell(x, h, *weights), g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reference_gru_cell_gradchecks(dtype):
    """The reference step passes the gradcheck its ``standard_op_checks``
    entry ran, at half-scale inputs: at float32's step of 1e-2, the central
    difference of the gates' tanh at unit-scale pre-activations is off by
    ~1e-4, the size of the tolerance."""
    r = RngState(2024, 1).substream("gru")
    p = {k: Tensor((0.5 * r.substream(k).normal(shape)).astype(dtype), requires_grad=True)
         for k, shape in (("x", (2, 3)), ("h", (2, 4)), ("w_ih", (3, 12)),
                          ("w_hh", (4, 12)), ("b_ih", (12,)), ("b_hh", (12,)))}
    w = RngState(2024, 99).substream("gru").normal((2, 4)).astype(dtype)
    h, tol = (FLOAT64_H, FLOAT64_TOL) if dtype == np.float64 else (FLOAT32_H, FLOAT32_TOL)
    report = grad_check(lambda: tsum(mul(gru_cell(**p), Tensor(w))), p, h=h, tol=tol)
    assert report.ok, report.failures


@st.composite
def _seq_cases(draw):
    """(lengths, T, d, H, dtype, reverse, h0 requires grad, seed): ragged
    rows, each of 0 to T steps, from one row up."""
    T = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.one_of(st.sampled_from([0, T]), st.integers(0, T)),
                            min_size=1, max_size=5))
    return (np.array(lengths), T, draw(st.integers(1, 4)), draw(st.integers(1, 6)),
            draw(DTYPES), draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2**16)))


@given(case=_seq_cases())
@example(case=(np.array([3]), 3, 2, 4, np.float32, False, True, 0))
@example(case=(np.array([0]), 2, 2, 4, np.float64, True, False, 1))
@example(case=(np.array([0, 4, 2, 4, 1]), 4, 3, 5, np.float32, True, True, 2))
@example(case=(np.array([0, 4, 2, 4, 1]), 4, 3, 5, np.float64, False, False, 3))
@settings(max_examples=60, deadline=None)
def test_gru_seq_matches_its_earlier_form(case):
    lengths, T, d, H, dtype, reverse, h_grad, seed = case
    B = len(lengths)
    r = RngState(seed, 32)
    x = _param(r, "x", (B, T, d), dtype)
    h0 = _param(r, "h0", (B, H), dtype, grad=h_grad)
    weights = _gru_params(r, d, H, dtype)
    g = r.substream("g").normal((B, T, H)).astype(dtype)
    _same_node(gru_seq(x, lengths, h0, *weights, reverse=reverse),
               _old_gru_seq(x, lengths, h0, *weights, reverse=reverse), g)


@given(n=st.integers(1, 6), shape=st.sampled_from([(4,), (2, 3), (1,), (0,)]),
       dtype=DTYPES, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_embedding_lookup_is_the_row_gather_it_was(n, shape, dtype, seed):
    """``Embedding`` reads its table through ``take_rows``, with the values
    and the duplicate-summing gradient of the earlier ``embedding``."""
    r = RngState(seed, 33)
    emb = Embedding(n, 3, r.substream("emb"))
    emb.w = Tensor(emb.w.data.astype(dtype), requires_grad=True)
    ids = r.substream("ids").integers(0, n, shape)
    new = emb(ids)
    assert new._op == "take_rows"
    g = r.substream("g").normal(shape + (3,)).astype(dtype)
    _same_node(new, _old_embedding(emb.w, ids), g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_concat_transpose_match_their_earlier_backward(dtype):
    r = RngState(7, 34)
    x = _param(r, "x", (3, 4, 2), dtype)
    x.data[0, 0, 0] = 0.0                       # the kink takes no gradient
    _same_node(relu(x), _old_relu(x), r.substream("g1").normal((3, 4, 2)).astype(dtype))

    parts = [_param(r, "a", (3, 1, 2), dtype), Tensor(np.ones((3, 2, 2), dtype)),
             _param(r, "b", (3, 3, 2), dtype)]
    g = r.substream("g2").normal((3, 6, 2)).astype(dtype)
    _same_node(concat(parts, axis=1), _old_concat(parts, axis=1), g)

    for axes in ((2, 0, 1), (1, 2, 0), (0, 2, 1)):
        g = r.substream("g3", *axes).normal(x.data.transpose(axes).shape).astype(dtype)
        _same_node(transpose(x, axes), _old_transpose(x, axes), g)


_WORDS = ["the", "cat", "sat", "on", "mat", "zqab", "reading", "eyes", "a", "b"]
_VOCAB = build_vocab([" ".join(_WORDS)] * 2 + ["the cat", "reading eyes"], 40)


@st.composite
def _encoder_cases(draw):
    """(first texts, second texts or None, d_model, heads, layers, dtype,
    seed): 1-6 sentences of 1-7 words, with one or two segments each.
    ``d_model`` and ``d_ff`` are multiples of 16, the widths at which a
    GEMM row rounds alike whatever the row count, as the padded and the
    packed forms run their linears over B x T and N rows."""
    n = draw(st.integers(1, 6))
    sentence = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=7).map(" ".join)
    first = draw(st.lists(sentence, min_size=n, max_size=n))
    second = draw(st.none() | st.lists(sentence, min_size=n, max_size=n))
    return (first, second, draw(st.sampled_from([16, 32])), draw(st.sampled_from([1, 2, 4])),
            draw(st.integers(1, 2)), draw(DTYPES), draw(st.integers(0, 2**16)))


def _readout(outs, weights) -> Tensor:
    """The sum of each output weighted by its own fixed array."""
    tok, cls, words = (tsum(mul(o, Tensor(w))) for o, w in zip(outs, weights))
    return add(add(tok, cls), words)


@given(case=_encoder_cases())
@example(case=(["the cat sat", "a"], None, 32, 4, 2, np.float32, 0))
@example(case=(["reading", "the cat sat on the mat", "b a"], ["eyes", "a", "zqab on the mat"],
               16, 2, 1, np.float64, 1))
@settings(max_examples=40, deadline=None)
def test_packed_encoder_matches_the_padded_one(case):
    """Eval mode: the CLS and word states and the real tokens' states are
    the padded encoder's, bit for bit. Training mode, with one dropout
    stream per row: the same forward, and every parameter's gradient within
    1e-6 * max(1, max|g|) in float32 and 1e-12 * max(1, max|g|) in
    float64, max|g| taken over all the encoder's gradients as in
    ``grad_check``: the weight and layer-norm gradients now sum over the
    real rows only, so they differ in the last bits, and a sum's rounding
    scales with its terms, not with the (possibly cancelled) result. The
    attention key bias, whose true gradient is zero, holds only noise."""
    first, second, d_model, n_heads, n_layers, dtype, seed = case
    cfg = TextEncoderConfig(vocab_size=len(_VOCAB), d_model=d_model, n_layers=n_layers,
                            n_heads=n_heads, d_ff=2 * d_model, max_len=64)
    enc = TextEncoder(cfg, RngState(seed, 40))
    for _, p in enc.named_parameters():
        p.data = p.data.astype(dtype)
    batch = collate([tokenize(a, None if second is None else second[i], _VOCAB, 64)
                     for i, a in enumerate(first)])
    real = batch.attention_mask > 0

    def same(new, old):
        assert np.array_equal(new[0].data[real], old[0].data[real])
        assert not new[0].data[~real].any()
        for a, b in zip(new[1:], old[1:]):
            assert a.data.dtype == b.data.dtype == dtype and np.array_equal(a.data, b.data)

    enc.eval()
    with no_grad():
        same(enc.forward_batch(batch), _old_encoder(enc, batch))

    enc.train()
    r = RngState(seed, 41)
    mask = real[..., None].astype(dtype)
    weights = [r.substream("tok").normal(real.shape + (d_model,)).astype(dtype) * mask,
               r.substream("cls").normal((batch.size, d_model)).astype(dtype),
               r.substream("words").normal(batch.pool.shape[:2] + (d_model,)).astype(dtype)]
    runs = []
    for forward in (enc.forward_batch, lambda b, rng: _old_encoder(enc, b, rng)):
        outs = forward(batch, row_streams(RngState(seed, 42), batch.size))
        backward(_readout(outs, weights))
        runs.append((outs, {n: p.grad for n, p in enc.named_parameters()}))
        enc.zero_grad()
    (new, g_new), (old, g_old) = runs
    same(new, old)
    tol = (1e-6 if dtype == np.float32 else 1e-12) * max(
        1.0, *(np.abs(g).max() for g in g_old.values()))
    for name, g in g_old.items():
        assert np.abs(g_new[name] - g).max() <= tol, name


# -- nothing for a backward that never runs ---------------------------------


class _Logged(np.ndarray):
    """An array that records the name of every ufunc applied to it."""

    calls: list[str] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Logged.calls.append(ufunc.__name__)
        plain = [a.view(np.ndarray) if isinstance(a, _Logged) else a for a in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_Logged) if isinstance(out, np.ndarray) else out


def test_ops_under_no_grad_record_nothing(monkeypatch):
    """Under ``no_grad`` every gradchecked op returns a leaf and builds no
    node, so no backward closure is kept; with grad on, the same builds do."""
    built = []
    node = Tensor._node
    monkeypatch.setattr(Tensor, "_node", staticmethod(
        lambda data, parents, fn, op: built.append(op) or node(data, parents, fn, op)))
    with no_grad():
        for name, build, _ in standard_op_checks(np.float64):
            assert build()._op == "leaf", name
    assert built == []
    for _, build, _ in standard_op_checks(np.float64):
        build()
    assert {"scan", "gru_seq", "relu", "take_rows"} <= set(built)


def test_relu_mask_is_computed_only_by_its_backward():
    x = Tensor(np.zeros(3), requires_grad=True)
    x.data = np.array([-1.0, 0.0, 2.0]).view(_Logged)     # Tensor() drops the subclass
    _Logged.calls.clear()
    with no_grad():
        relu(x)
    assert _Logged.calls == ["maximum"]
    out = relu(x)
    assert _Logged.calls == ["maximum", "maximum"]
    (grad,) = out._backward(np.ones(3))
    assert "greater" in _Logged.calls
    assert np.array_equal(grad, [0.0, 0.0, 1.0])


# -- every graph op is gradchecked ------------------------------------------


def _graph_ops(loss: Tensor) -> set[str]:
    ops, seen, stack = set(), set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            ops.add(t._op)
            stack.extend(t._parents)
    return ops - {"leaf"}


def test_every_training_graph_op_has_a_gradcheck():
    """Each op in the graphs training builds (the joint loss with either
    relaxation and for the text-only model, and the teacher-forced
    generator NLL), dropout on, has a ``standard_op_checks`` entry."""
    checked = {name for name, _, _ in standard_op_checks(np.float64)}
    vocab = build_vocab(["aa aa ab ba ba b a"] * 3, 32)
    text = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=16,
                             n_layers=1, n_heads=2, d_ff=32, max_len=32)
    batch = collate([tokenize("aa ab", None, vocab, 32),
                     tokenize("ab ba aa", None, vocab, 32)])
    graphs = {}
    for name, kw in (("straight_through", {}),
                     ("soft_convolution", {"gumbel": GumbelConfig(mode=SOFT_CONVOLUTION)}),
                     ("text_only", {"model_kind": TEXT_ONLY})):
        model = JointModel(ModelConfig(text=text, gen_hidden=16, l_max=8, **kw),
                           RngState(50, 0))
        graphs[name] = _graph_ops(model.loss_pairs(
            batch, np.array([0, 1]), [RngState(1, 0), RngState(1, 1)],
            row_streams(RngState(2, 0), 2)))
    gaze = GazeModel(text, gen_hidden=16, l_max=8, seed=0)
    graphs["batch_nll"] = _graph_ops(
        gaze.batch_nll(batch, [[0, 1], [2, 0, 1]], row_streams(RngState(3, 0), 2))[0])
    assert {"gru_seq", "scan", "sampler", "dropout"} <= set().union(*graphs.values())
    for name, ops in graphs.items():
        assert not ops - checked, (name, sorted(ops - checked))


def test_every_exported_op_has_a_gradcheck():
    """Each function ``diffcore`` exports that builds graph nodes names its
    op in a ``standard_op_checks`` entry."""
    checked = {name for name, _, _ in standard_op_checks(np.float64)}
    ops = set()
    for name in diffcore.__all__:
        fn = getattr(diffcore, name)
        if inspect.isfunction(fn) and fn.__module__ == "gazenlu.diffcore.tensor":
            ops.update(re.findall(r'_result\([^\n]*"(\w+)"\)', inspect.getsource(fn)))
    assert len(ops) >= 20
    assert not ops - checked, sorted(ops - checked)
