"""Autodiff core: op gradients, backward contracts, modules, checkpoints."""

import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gru

from gazenlu.diffcore import (NEG_INF, GRUCell, Embedding, LayerNorm, Linear, Module,
                              ModuleList, RngState, ShapeError, Tensor, add,
                              atomic_write, backward, checkpoint_hash, concat,
                              cross_entropy, dropout, grad_check, gru_step,
                              is_grad_enabled, layer_norm, linear,
                              load_checkpoint, matmul, mix_rows, mse_loss, mul,
                              no_grad, relu, reshape, run_standard_checks,
                              save_checkpoint, softmax, softmax_fwd, stream_words,
                              take_rows, transpose, tsum)
from gazenlu.diffcore.tensor import _row_max


# -- gradients -----------------------------------------------------------


def test_standard_op_gradchecks_float64():
    reports = run_standard_checks(np.float64)
    bad = {k: r.max_rel_err for k, r in reports.items() if not r.ok}
    assert not bad, bad


def test_standard_op_gradchecks_float32():
    reports = run_standard_checks(np.float32)
    bad = {k: r.max_rel_err for k, r in reports.items() if not r.ok}
    assert not bad, bad


def test_gradcheck_flags_wrong_gradient():
    w = Tensor(np.ones((3,), dtype=np.float64), requires_grad=True)
    report = grad_check(lambda: tsum(mul(w, w)), {"w": w})
    assert report.ok  # sanity: correct graph passes

    # a deliberately wrong derivative: claims d(x^2)/dx = 1
    v = Tensor(np.full((3,), 1.5, dtype=np.float64), requires_grad=True)

    def lie():
        return Tensor._node(
            np.asarray((v.data * v.data).sum()), (v,),
            lambda g: (np.ones_like(v.data) * g,), "lie",
        )

    report = grad_check(lie, {"v": v})
    assert not report.ok


# -- backward contracts --------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        add(x, x).backward()


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = add(mul(x, x), mul(x, 3.0))  # x^2 + 3x, dy/dx = 2x + 3 = 7
    tsum(y).backward()
    assert np.allclose(x.grad, [7.0])


def test_grad_accumulates_across_separate_graphs():
    x = Tensor(np.array([2.0]), requires_grad=True)
    tsum(mul(x, x)).backward()
    tsum(mul(x, 3.0)).backward()
    assert np.allclose(x.grad, [7.0])


def test_backward_frees_interior_nodes_while_the_loss_lives():
    """Each node drops its parents and closure once its gradient is out,
    so an interior node the caller does not hold is freed by backward."""
    x = Tensor(np.ones(3), requires_grad=True)
    h = relu(mul(x, x))
    ref = weakref.ref(h)
    loss = tsum(h)
    del h
    assert ref() is not None
    loss.backward()
    assert ref() is None
    assert loss._parents == () and float(loss.data) == 3.0
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_second_backward_through_a_graph_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    h = mul(x, x)
    loss = tsum(h)
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    # a consumed interior node must not pass as a leaf and take a .grad
    with pytest.raises(RuntimeError, match="consumed"):
        tsum(mul(h, 2.0)).backward()
    assert h.grad is None
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        y = mul(x, x)
    tsum(mul(x, 2.0)).backward()
    assert np.allclose(x.grad, [2.0, 2.0, 2.0])
    assert y._parents == ()


def test_backward_deterministic():
    rng = RngState(3, 0)
    w = Tensor(rng.normal((4, 4)), requires_grad=True)

    def run():
        w.grad = None
        loss = tsum(mul(matmul(w, w), softmax(w)))
        loss.backward()
        return w.grad.copy()

    assert np.array_equal(run(), run())


@given(st.sampled_from([((3, 1), (3, 4)), ((1,), (5,)), ((2, 1, 3), (2, 4, 3)),
                        ((), (3, 2))]))
@settings(max_examples=20, deadline=None)
def test_broadcast_gradient_shapes(shapes):
    sa, sb = shapes
    a = Tensor(np.ones(sa, dtype=np.float64), requires_grad=True)
    b = Tensor(np.ones(sb, dtype=np.float64), requires_grad=True)
    tsum(mul(add(a, b), 2.0)).backward()
    assert a.grad.shape == sa
    assert b.grad.shape == sb
    # each broadcast copy contributes: grad of a sums over expanded axes
    assert np.allclose(a.grad, 2.0 * np.prod(sb) / np.prod(sa))
    assert np.allclose(b.grad, 2.0)


def test_softmax_rows_and_mask():
    x = Tensor(np.array([[2.0, 0.0, -1.0]]))
    p = softmax(x).data
    assert np.allclose(p.sum(axis=-1), 1.0)
    exp = np.exp([2.0, 0.0, -1.0])
    assert np.allclose(p[0], exp / exp.sum())
    mask = np.array([[0.0, -1e9, 0.0]])
    pm = softmax(x, mask=mask).data
    assert pm[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(pm.sum(axis=-1), 1.0)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, NEG_INF, 1.0, -1.0]


def _bits_or_nan_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and dtype, NaN where the other is NaN, same bits elsewhere."""
    nan = np.isnan(a)
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint8), b[~nan].view(np.uint8)))


@settings(max_examples=200, deadline=None)
@given(lead=st.sampled_from([(), (1,), (5,), (63,), (64,), (3, 40), (160,), (2, 2, 50)]),
       width=st.integers(1, 12), dtype=st.sampled_from([np.float32, np.float64]),
       data=st.data())
def test_row_max_is_max_and_softmax_keeps_its_bits(lead, width, dtype, data):
    """``_row_max`` over shapes that take each of its rules: the value of
    ``max`` in every row, bit for bit where it is not zero, NaN where it
    is NaN, with NaN, ±0, ±inf, ``NEG_INF``-masked and width-1 rows; and
    ``softmax_fwd``, which subtracts it, keeps the bits of the softmax
    that subtracts ``max``, whatever sign a zero maximum takes."""
    shape = (*lead, width)
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    special = gen.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    x = np.where(special, gen.choice(SPECIAL, shape), gen.normal(0, 100, shape)).astype(dtype)
    masked = gen.random(shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    mask = np.where(masked, NEG_INF, 0.0).astype(dtype)
    with np.errstate(all="ignore"):
        for z in (x, x + mask, mask):
            got, want = _row_max(z), z.max(axis=-1, keepdims=True)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
            nonzero = want != 0
            assert _bits_or_nan_equal(got[nonzero], want[nonzero])
        ref = np.exp(x + mask - (x + mask).max(axis=-1, keepdims=True))
        ref /= ref.sum(axis=-1, keepdims=True)
        assert _bits_or_nan_equal(softmax_fwd(x, mask), ref)


def test_cross_entropy_matches_manual():
    logits = Tensor(np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]]))
    targets = np.array([1, 2])
    got = cross_entropy(logits, targets).data
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -(logp[0, 1] + logp[1, 2]) / 2
    assert got == pytest.approx(want, rel=1e-12)


def test_mse_loss_fixture():
    pred = Tensor(np.array([[1.0], [3.0]]))
    assert mse_loss(pred, np.array([[0.0], [1.0]])).data == pytest.approx(2.5)


def test_dropout_contract():
    rng = RngState(0, 0)
    x = Tensor(np.ones((200, 50)))
    words = stream_words([rng.substream("d")], [x.size]).reshape(x.shape)
    out = dropout(x, 0.3, words).data
    kept = out != 0
    assert 0.6 < kept.mean() < 0.8
    assert np.allclose(out[kept], 1.0 / 0.7)
    assert np.array_equal(kept, words >= np.ceil(0.3 * 2**32))
    same = dropout(x, 0.3, stream_words([rng.substream("d")], [x.size]).reshape(x.shape)).data
    assert np.array_equal(out, same)


def test_layer_norm_normalizes():
    x = Tensor(np.random.default_rng(0).normal(3.0, 2.0, (4, 16)))
    y = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    w, b = Tensor(np.ones((3, 2))), Tensor(np.ones(2))
    for x, bias in ((np.ones(3), b), (np.ones((2, 4)), b), (np.ones((2, 3)), Tensor(np.ones(3)))):
        with pytest.raises(ShapeError):
            linear(Tensor(x), w, bias)
    for wts, rows in (((2, 3), (2, 4, 5)), ((2, 3), (2, 3)), ((3,), (1, 3, 2))):
        with pytest.raises(ShapeError):
            mix_rows(Tensor(np.ones(wts)), Tensor(np.ones(rows)))


# -- modules -------------------------------------------------------------


def test_module_registration_and_state_dict():
    class Block(Module):
        def __init__(self):
            super().__init__()
            self.lin = Linear(4, 3, RngState(1, 0))
            self.norm = LayerNorm(3)
            self.extra = Tensor(np.zeros(2), requires_grad=True)

    class Net(Module):
        def __init__(self):
            super().__init__()
            self.blocks = ModuleList([Block(), Block()])
            self.emb = Embedding(10, 4, RngState(2, 0))

    net = Net()
    names = [n for n, _ in net.named_parameters()]
    assert names[0].startswith("blocks.0.")
    assert "emb" in names[-1] or any("emb" in n for n in names)
    assert len(names) == len(set(names))
    state = net.state_dict()
    assert set(state) == set(names)

    net2 = Net()
    for _, t in net2.named_parameters():
        t.data = t.data + 1.0
    assert not all(np.array_equal(state[k], net2.state_dict()[k]) for k in state)
    net2.load_state_dict(state)
    for k, v in net2.state_dict().items():
        assert np.array_equal(v, state[k])
    with pytest.raises(KeyError):
        net2.load_state_dict({k: v for k, v in state.items() if "lin" not in k})


def test_module_freeze_and_modes():
    lin = Linear(3, 2, RngState(0, 0))
    assert all(t.requires_grad for _, t in lin.named_parameters())
    assert lin.training
    lin.eval()
    assert not lin.training
    lin.train()
    assert lin.training


def test_linear_init_bounds():
    lin = Linear(100, 50, RngState(7, 0))
    bound = 1.0 / np.sqrt(100)
    assert np.abs(lin.w.data).max() <= bound
    assert np.abs(lin.b.data).max() <= bound


def _cast(module, dtype):
    """``module`` with its float32 parameters cast to ``dtype`` in place."""
    for _, t in module.named_parameters():
        t.data = t.data.astype(dtype)
    return module


def test_gru_zero_state_fixed_point_with_zero_params():
    cell = GRUCell(4, 4, RngState(0, 0))
    for _, t in cell.named_parameters():
        t.data = np.zeros_like(t.data)
    h = np.zeros((2, 4), dtype=np.float32)
    x = np.ones((2, 4), dtype=np.float32)
    h1, _ = gru_step(x, h, *(p.data for _, p in cell.named_parameters()))
    assert np.allclose(h1, 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_cell_forward_matches_unfused_composition(dtype):
    """The fused step kernel is bit-identical to the unfused cell,
    written out here in numpy as the graph of small ops computed it."""
    cell = _cast(GRUCell(5, 4, RngState(2, 0)), dtype)
    rng = RngState(2, 1)
    x = rng.substream("x").normal((3, 5)).astype(dtype)
    h = rng.substream("h").normal((3, 4)).astype(dtype)
    H = 4

    def sigmoid(a):
        return 0.5 * (np.tanh(0.5 * a) + 1.0)

    gi = x @ cell.w_ih.data + cell.b_ih.data
    gh = h @ cell.w_hh.data + cell.b_hh.data
    r = sigmoid(gi[:, 0:H] + gh[:, 0:H])
    z = sigmoid(gi[:, H:2 * H] + gh[:, H:2 * H])
    n = np.tanh(gi[:, 2 * H:3 * H] + r * gh[:, 2 * H:3 * H])
    unfused = n + z * (h + n * -1.0)
    fused, _ = gru_step(x, h, cell.w_ih.data, cell.w_hh.data, cell.b_ih.data,
                        cell.b_hh.data)
    assert fused.dtype == unfused.dtype == dtype
    assert np.array_equal(fused, unfused)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_forward_matches_matmul_plus_bias(dtype):
    """One linear node computes ``add(matmul(x, w), b)`` bit for bit, for
    one row, many rows and a (B, T, d) batch."""
    lin = _cast(Linear(16, 24, RngState(5, 0)), dtype)
    lin.b.data = RngState(5, 1).normal((24,)).astype(dtype)
    rng = RngState(5, 2)
    for shape in ((1, 16), (7, 16), (3, 5, 16), (2, 9, 16)):
        x = Tensor(rng.substream(shape).normal(shape).astype(dtype))
        out = lin(x)
        ref = add(matmul(x, lin.w), lin.b)
        assert out._op == "linear" and out.dtype == dtype
        assert out.shape == shape[:-1] + (24,)
        assert np.array_equal(out.data, ref.data), shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mix_rows_forward_matches_reshape_matmul(dtype):
    """One mix_rows node computes the three-node weighted read bit for
    bit, also over a transposed operand (the decoder's scores); with
    (B, S, W) weights it is the batched matmul."""
    rng = RngState(6, 0)
    w = Tensor(rng.substream("w").normal((4, 5)).astype(dtype), requires_grad=True)
    X = Tensor(rng.substream("X").normal((4, 5, 3)).astype(dtype))
    ref = reshape(matmul(reshape(w, (4, 1, 5)), X), (4, 3))
    out = mix_rows(w, X)
    assert out._op == "mix_rows" and out.dtype == dtype
    assert np.array_equal(out.data, ref.data)
    q = Tensor(rng.substream("q").normal((4, 3)).astype(dtype))
    Xt = transpose(X, (0, 2, 1))
    ref = reshape(matmul(reshape(q, (4, 1, 3)), Xt), (4, 5))
    assert np.array_equal(mix_rows(q, Xt).data, ref.data)
    w3 = Tensor(rng.substream("w3").normal((4, 2, 5)).astype(dtype))
    assert np.array_equal(mix_rows(w3, X).data, matmul(w3, X).data)
    with pytest.raises(ShapeError):
        mix_rows(w3, Xt)


@pytest.mark.parametrize("width", [16, 64, 128])
def test_linear_rows_do_not_depend_on_row_count(width):
    """A row's float32 output is the same bits whether its GEMM has 1, 2,
    3, 17 or 96 rows, or the rows come as 3-d batches of any leading
    shape. These are the model's widths at the CLI defaults and in the
    benchmark; the sampler's shrinking working set (its history projection
    and head are linear layers) and the README's row-independence claim
    rest on this."""
    rng = RngState(8, width)
    for d_in in (width, 2 * width):
        lin = Linear(d_in, width, rng.substream("lin", d_in))
        lin.b.data = rng.substream("b", d_in).normal((width,)).astype(np.float32)
        x = rng.substream("x", d_in).normal((96, d_in)).astype(np.float32)
        ref = lin(Tensor(x)).data
        for n in (1, 2, 3, 17):
            assert np.array_equal(lin(Tensor(x[:n])).data, ref[:n]), (d_in, n)
        for lead in ((4, 24), (2, 48), (1, 96), (96, 1), (3, 32), (12, 8)):
            out = lin(Tensor(x.reshape(lead + (d_in,)))).data
            assert np.array_equal(out.reshape(96, width), ref), (d_in, lead)


def test_distinct_row_gradients_are_copies():
    """A gather of distinct rows (every working-set gather) returns the
    gradient rows copied into place, negative indices wrapped; repeated
    rows still sum."""
    x = Tensor(np.zeros((6, 2)), requires_grad=True)
    g = np.arange(8.0).reshape(4, 2)
    out = take_rows(x, np.array([4, -1, 0, 2]))
    gx = out._backward(g)[0]
    ref = np.zeros((6, 2))
    ref[[4, 5, 0, 2]] = g
    assert np.array_equal(gx, ref)
    gx = take_rows(x, np.array([1, 3, 1, -5]))._backward(g)[0]
    ref = np.zeros((6, 2))
    ref[1], ref[3] = g[0] + g[2] + g[3], g[1]
    assert np.array_equal(gx, ref)


def _gru_steps(x, lengths, h0, cell, reverse):
    """Oracle for ``gru_seq``: one reference ``gru_cell`` node per step
    over all B rows, a row past its length keeping its state by a masked
    update written out in add and mul nodes."""
    T = x.shape[1]
    h = h0
    states = [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        m = (t < lengths).astype(x.dtype).reshape(-1, 1)
        h = add(mul(gru(cell, x[:, t, :], h), Tensor(m)), mul(h, Tensor(1.0 - m)))
        states[t] = reshape(h, (h.shape[0], 1, h.shape[1]))
    return concat(states, axis=1)


@st.composite
def _gru_batches(draw):
    """(lengths, T, H, seed): ragged rows with zero-length and full rows."""
    B = draw(st.integers(1, 6))
    T = draw(st.integers(1, 6))
    lengths = [0, T] + draw(st.lists(st.integers(0, T), min_size=B, max_size=B))
    return np.array(lengths), T, draw(st.sampled_from([16, 32])), draw(st.integers(0, 2**16))


@given(batch=_gru_batches(), reverse=st.booleans())
@settings(max_examples=40, deadline=None)
def test_gru_seq_matches_per_step_cells(batch, reverse):
    """One gru_seq node against the per-step gru_cell composition, both
    directions: float64 gradients of x, h0 and every weight agree within
    1e-10, and the float32 forward is bit-equal (3H is 48 or 96, widths
    at which OpenBLAS's GEMM rounds a row the same for any row count)."""
    lengths, T, H, seed = batch
    B, d = len(lengths), 5
    r = RngState(seed, 2)
    cell = GRUCell(d, H, r.substream("cell"))
    x = r.substream("x").normal((B, T, d)).astype(np.float32)
    h0 = r.substream("h0").normal((B, H)).astype(np.float32)
    with no_grad():
        got = cell.seq(Tensor(x), lengths, Tensor(h0), reverse=reverse)
        want = _gru_steps(Tensor(x), lengths, Tensor(h0), cell, reverse)
    assert got._op == "leaf" and np.array_equal(got.data, want.data)

    _cast(cell, np.float64)
    leaves = [Tensor(x.astype(np.float64), requires_grad=True),
              Tensor(h0.astype(np.float64), requires_grad=True)]
    weights = [p for _, p in cell.named_parameters()]
    readout = Tensor(r.substream("readout").normal((B, T, H)))
    grads = []
    for fn in (lambda: cell.seq(leaves[0], lengths, leaves[1], reverse=reverse),
               lambda: _gru_steps(leaves[0], lengths, leaves[1], cell, reverse)):
        for p in leaves + weights:
            p.grad = None
        out = fn()
        backward(tsum(mul(out, readout)))
        grads.append([out.data] + [p.grad for p in leaves + weights])
    for g, w in zip(*grads):
        assert np.abs(g - w).max() <= 1e-10


def test_gru_seq_node_and_shape_errors():
    """A GRU over a sequence is one node; lengths outside 0..T and
    non-conforming shapes raise."""
    cell = GRUCell(3, 2, RngState(0, 1))
    x = Tensor(np.ones((2, 4, 3), dtype=np.float32))
    h0 = Tensor(np.zeros((2, 2), dtype=np.float32))
    out = cell.seq(x, [4, 0], h0)
    assert out._op == "gru_seq" and out.shape == (2, 4, 2)
    assert np.array_equal(out.data[1], np.zeros((4, 2)))
    for lengths in ([5, 1], [-1, 1], [1, 1, 1]):
        with pytest.raises(ShapeError):
            cell.seq(x, lengths, h0)
    with pytest.raises(ShapeError):
        cell.seq(x[:, 0, :], [1, 1], h0)
    with pytest.raises(ShapeError):
        cell.seq(x, [1, 1], Tensor(np.zeros((3, 2), dtype=np.float32)))


def test_constants_take_the_tensor_dtype():
    t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    for out in (mul(t, np.float64(0.5)), mul(np.float64(0.5), t), add(t, 1.0),
                add(np.float64(1.0), t), mul(t, 1.0 / np.sqrt(2.0))):
        assert out.dtype == np.float32
    assert mul(Tensor(np.ones(3)), np.float32(0.5)).dtype == np.float64


def test_gradients_skip_constant_operands():
    """Only parents that require grad receive one; a constant matrix in a
    matmul, a constant term or factor in
    add and mul, a constant input or initial state of a GRU sequence,
    constant parts of a concat, a constant input or bias of a
    linear layer and either constant operand of a mix_rows get none
    computed."""
    w = Tensor(np.ones((4, 2)), requires_grad=True)
    c = Tensor(np.ones((3, 5, 4)))
    out = matmul(c, w)
    got = out._backward(np.ones(out.shape))
    assert got[0] is None and np.array_equal(got[1], np.full((4, 2), 15.0))
    cell = _cast(GRUCell(3, 2, RngState(0, 0)), np.float64)
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    k = Tensor(np.full((2, 3), 2.0))
    for op in (add, mul):
        for args, live in (((t, k), 0), ((k, t), 1)):
            out = op(*args)
            got = out._backward(np.ones(out.shape))
            assert got[1 - live] is None and got[live].shape == (2, 3), op
    out = cell.seq(Tensor(np.ones((2, 4, 3))), [4, 1], Tensor(np.zeros((2, 2))))
    x_grad, h_grad, *weight_grads = out._backward(np.ones(out.shape))
    assert x_grad is None and h_grad is None
    assert all(g is not None for g in weight_grads)
    out = concat([k, t, k], axis=1)
    got = out._backward(np.ones(out.shape))
    assert got[0] is None and got[2] is None and got[1].shape == (2, 3)
    x = Tensor(np.ones((2, 5, 4)))
    out = linear(x, w, Tensor(np.ones(2)))
    got = out._backward(np.ones(out.shape))
    assert got[0] is None and got[2] is None
    assert np.array_equal(got[1], np.full((4, 2), 10.0))
    rows = Tensor(np.ones((2, 3, 4)))
    out = mix_rows(t, rows)
    got = out._backward(np.ones(out.shape))
    assert got[1] is None and np.array_equal(got[0], np.full((2, 3), 4.0))
    out = mix_rows(k, Tensor(np.ones((2, 3, 4)), requires_grad=True))
    got = out._backward(np.ones(out.shape))
    assert got[0] is None and np.array_equal(got[1], np.full((2, 3, 4), 2.0))


def test_gru_gradients_flow():
    cell = _cast(GRUCell(3, 5, RngState(1, 0)), np.float64)
    h = cell.seq(Tensor(np.ones((1, 3, 3))), [3], Tensor(np.zeros((1, 5))))
    tsum(h).backward()
    for name, t in cell.named_parameters():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


# -- checkpoints ---------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    state = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(7,)).astype(np.float32),
        "scalar": np.float32(3.25),
        "zero_d": np.array(1.5, dtype=np.float32),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert set(back) == set(state)
    for k in state:
        assert np.asarray(state[k]).shape == back[k].shape, k
        assert np.array_equal(np.asarray(state[k], dtype=np.float32), back[k]), k


def test_checkpoint_resave_identical_bytes(tmp_path):
    state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, state)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()
    assert checkpoint_hash(p1) == checkpoint_hash(p2)


def test_checkpoint_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOT-A-CHECKPOINT\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_hash_tracks_content(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.zeros(3, dtype=np.float32)})
    h1 = checkpoint_hash(p)
    save_checkpoint(p, {"w": np.ones(3, dtype=np.float32)})
    assert checkpoint_hash(p) != h1


def test_atomic_write_failure_keeps_old_file(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.zeros(3, dtype=np.float32)})
    old = p.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(p, "wb") as f:
            f.write(b"half a new checkpoint")
            raise RuntimeError("writer died")
    assert p.read_bytes() == old
    assert os.listdir(tmp_path) == ["m.ckpt"]
    with atomic_write(p, "wb") as f:
        f.write(b"new")
    assert p.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["m.ckpt"]


# -- misc op semantics ---------------------------------------------------


def test_concat_transpose_reshape():
    a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    c = concat([a, b], axis=1)
    assert c.shape == (2, 6)
    t = transpose(a, (1, 0))
    assert t.shape == (3, 2)
    r = reshape(a, (3, 2))
    assert r.shape == (3, 2)
    tsum(add(tsum(c), add(tsum(t), tsum(r)))).backward()
    assert a.grad.shape == (2, 3)
    assert np.allclose(a.grad, 3.0)  # used three times, each with unit gradient


def test_activation_values():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    assert np.allclose(relu(x).data, [0.0, 0.0, 2.0])
    assert tsum(x).data == pytest.approx(1.0)
