"""Autodiff core: op gradients, backward contracts, modules, checkpoints."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazenlu.diffcore import (GRUCell, Embedding, LayerNorm, Linear, Module,
                              ModuleList, RngState, ShapeError, Tensor, add,
                              atomic_write, blend, checkpoint_hash, concat,
                              cross_entropy, dropout, grad_check,
                              is_grad_enabled, layer_norm, load_checkpoint,
                              matmul, mse_loss, mul, no_grad, relu, reshape,
                              run_standard_checks, save_checkpoint, softmax,
                              stack, transpose, tsum)


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
    out = dropout(x, 0.3, rng.substream("d")).data
    kept = out != 0
    assert 0.6 < kept.mean() < 0.8
    assert np.allclose(out[kept], 1.0 / 0.7)
    same = dropout(x, 0.3, rng.substream("d")).data
    assert np.array_equal(out, same)


def test_layer_norm_normalizes():
    x = Tensor(np.random.default_rng(0).normal(3.0, 2.0, (4, 16)))
    y = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


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
    h = Tensor(np.zeros((2, 4), dtype=np.float32))
    x = Tensor(np.ones((2, 4), dtype=np.float32))
    h1 = cell(x, h)
    assert np.allclose(h1.data, 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_cell_forward_matches_unfused_composition(dtype):
    """The fused step is bit-identical to the unfused cell, written out
    here in numpy as the graph of small ops computed it."""
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
    fused = cell(Tensor(x), Tensor(h))
    assert fused.dtype == unfused.dtype == dtype
    assert np.array_equal(fused.data, unfused)
    assert fused._op == "gru_cell"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blend_forward_matches_masked_update(dtype):
    """One blend node computes the four-node masked update bit for bit."""
    rng = RngState(4, 0)
    new = Tensor(rng.substream("new").normal((5, 3)).astype(dtype), requires_grad=True)
    old = Tensor(rng.substream("old").normal((5, 3)).astype(dtype), requires_grad=True)
    m = np.array([1, 0, 0, 1, 1], dtype=dtype).reshape(5, 1)
    out = blend(m, new, old)
    ref = add(mul(new, Tensor(m)), mul(old, Tensor(1.0 - m)))
    assert out.dtype == dtype and out._op == "blend"
    assert np.array_equal(out.data, ref.data)
    assert np.array_equal(blend(m.astype(bool), new, old).data, ref.data)
    with pytest.raises(ShapeError):
        blend(m.reshape(5), new, old)


def test_gru_cell_takes_2d_inputs_only():
    cell = GRUCell(3, 2, RngState(0, 0))
    h = Tensor(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        cell(Tensor(np.ones((1, 2, 3), dtype=np.float32)), h)
    with pytest.raises(ShapeError):
        cell(Tensor(np.ones((2, 4), dtype=np.float32)), h)


def test_constants_take_the_tensor_dtype():
    t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    for out in (mul(t, np.float64(0.5)), mul(np.float64(0.5), t), add(t, 1.0),
                add(np.float64(1.0), t), mul(t, 1.0 / np.sqrt(2.0))):
        assert out.dtype == np.float32
    assert mul(Tensor(np.ones(3)), np.float32(0.5)).dtype == np.float64


def test_gradients_skip_constant_operands():
    """Only parents that require grad receive one; a constant matrix in a
    matmul, a constant state in a GRU step, a constant term or factor in
    add and mul, and a constant side of a blend get none computed."""
    w = Tensor(np.ones((4, 2)), requires_grad=True)
    c = Tensor(np.ones((3, 5, 4)))
    out = matmul(c, w)
    got = out._backward(np.ones(out.shape))
    assert got[0] is None and np.array_equal(got[1], np.full((4, 2), 15.0))
    cell = _cast(GRUCell(3, 2, RngState(0, 0)), np.float64)
    h = cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2))))
    x_grad, h_grad, *weight_grads = h._backward(np.ones(h.shape))
    assert x_grad is None and h_grad is None
    assert all(g is not None for g in weight_grads)
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    k = Tensor(np.full((2, 3), 2.0))
    for op in (add, mul):
        for args, live in (((t, k), 0), ((k, t), 1)):
            out = op(*args)
            got = out._backward(np.ones(out.shape))
            assert got[1 - live] is None and got[live].shape == (2, 3), op
    out = blend(np.ones((2, 1)), k, t)
    assert out._backward(np.ones(out.shape))[0] is None


def test_gru_gradients_flow():
    cell = _cast(GRUCell(3, 5, RngState(1, 0)), np.float64)
    h = Tensor(np.zeros((1, 5)))
    x = Tensor(np.ones((1, 3), dtype=np.float64))
    for _ in range(3):
        h = cell(x, h)
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


def test_concat_stack_transpose_reshape():
    a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    c = concat([a, b], axis=1)
    assert c.shape == (2, 6)
    s = stack([a, b])
    assert s.shape == (2, 2, 3)
    t = transpose(a, (1, 0))
    assert t.shape == (3, 2)
    r = reshape(a, (3, 2))
    assert r.shape == (3, 2)
    tsum(add(tsum(c), add(tsum(s), add(tsum(t), tsum(r))))).backward()
    assert a.grad.shape == (2, 3)
    assert np.allclose(a.grad, 4.0)  # used four times, each with unit gradient


def test_activation_values():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    assert np.allclose(relu(x).data, [0.0, 0.0, 2.0])
    assert tsum(x).data == pytest.approx(1.0)
