"""Reverse-mode autodiff over numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional backward closure; ops
build the graph eagerly and :func:`backward` walks it once in reverse
topological order. Node ids are assigned at construction and parents are
stored in call order, so two backward passes over the same graph
accumulate gradients in the same order and produce bit-identical results.

Training runs in float32; gradient checking builds float64 graphs. A
graph keeps the dtype of its tensors: a plain number or array meeting a
tensor in ``add`` or ``mul`` is cast to that tensor's dtype, so a float
constant never promotes a float32 graph to float64. ``add``, ``mul``,
``blend``, ``matmul`` and ``gru_cell`` compute no gradient for a parent
that does not require one (masks, noise, one-hot rows).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

# Additive mask surrogate for -inf: large enough to drive masked softmax
# probabilities to exact float zero, small enough to never overflow.
NEG_INF = -1e9

_ids = itertools.count()
_grad_enabled = [True]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an op."""


@contextmanager
def no_grad():
    """Disable graph recording inside the block (eval-mode forward)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


def is_grad_enabled() -> bool:
    return _grad_enabled[-1]


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"
        self._id = next(_ids)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: tuple, bwd, op: str) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.requires_grad = True
        t.grad = None
        t._parents = parents
        t._backward = bwd
        t._op = op
        t._id = next(_ids)
        return t

    @staticmethod
    def _leaf(data: np.ndarray) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.requires_grad = False
        t.grad = None
        t._parents = ()
        t._backward = None
        t._op = "leaf"
        t._id = next(_ids)
        return t

    # -- basic introspection --------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)

    def backward(self):
        backward(self)


def _wrap(x, like=None) -> Tensor:
    """``x`` as a Tensor; a constant takes the dtype of the Tensor ``like``."""
    if isinstance(x, Tensor):
        return x
    return Tensor._leaf(np.asarray(x, dtype=like.dtype if isinstance(like, Tensor) else None))


def _record(parents: tuple) -> bool:
    return _grad_enabled[-1] and any(p.requires_grad for p in parents)


def _result(data, parents, bwd_factory, op) -> Tensor:
    """bwd_factory is called only when the node is recorded."""
    if _record(parents):
        return Tensor._node(data, parents, bwd_factory(), op)
    return Tensor._leaf(data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- backward engine -----------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into ``.grad`` of every reachable leaf.

    Raises if ``loss`` is not scalar. Leaves with requires_grad=False are
    never visited, so frozen subgraphs allocate no gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            k = id(p)
            if k in grads:
                grads[k] = grads[k] + pg
            else:
                grads[k] = pg


# -- arithmetic ops ------------------------------------------------------


def add(a, b) -> Tensor:
    a = _wrap(a, b)
    b = _wrap(b, a)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast")
    data = a.data + b.data

    def bwd():
        def fn(g):
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)
        return fn

    return _result(data, (a, b), bwd, "add")


def mul(a, b) -> Tensor:
    a = _wrap(a, b)
    b = _wrap(b, a)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast")
    data = a.data * b.data

    def bwd():
        ad, bd = a.data, b.data

        def fn(g):
            return (_unbroadcast(g * bd, ad.shape) if a.requires_grad else None,
                    _unbroadcast(g * ad, bd.shape) if b.requires_grad else None)
        return fn

    return _result(data, (a, b), bwd, "mul")


def blend(m: np.ndarray, new: Tensor, old: Tensor) -> Tensor:
    """``new * m + old * (1 - m)`` for a constant mask ``m``, one node.

    ``m`` is a (B, 1) array of 0/1 row flags, cast to ``new``'s dtype.
    The forward evaluates the same products and sum as
    ``add(mul(new, m), mul(old, 1 - m))``, so it is bit-identical to it;
    the gradients are ``g * m`` and ``g * (1 - m)``.
    """
    m = np.asarray(m, dtype=new.dtype)
    if new.shape != old.shape or m.shape != (new.shape[0], 1):
        raise ShapeError(f"blend: mask {m.shape}, new {new.shape} and old {old.shape} "
                         f"do not conform")
    keep = 1.0 - m
    data = new.data * m + old.data * keep

    def bwd():
        def fn(g):
            return (g * m if new.requires_grad else None,
                    g * keep if old.requires_grad else None)
        return fn

    return _result(data, (new, old), bwd, "blend")


def matmul(a, b) -> Tensor:
    """Gradients only for operands that require them; a 2-d ``b`` under a
    batched ``a`` gets its gradient from one matmul over the flat rows."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def bwd():
        ad, bd = a.data, b.data

        def fn(g):
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
            if b.requires_grad:
                if bd.ndim == 2:
                    gb = np.matmul(ad.reshape(-1, ad.shape[-1]).T,
                                   g.reshape(-1, g.shape[-1]))
                else:
                    gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
            return (ga, gb)
        return fn

    return _result(data, (a, b), bwd, "matmul")


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hh) -> Tensor:
    """One GRU step (Cho et al. 2014) as a single node.

    ``x`` is (B, d_in) and ``h`` (B, H); the weights are (d_in, 3H) and
    (H, 3H), the biases (3H,), with gates sliced in the order r, z, n:

        r = sigmoid(x W_ir + b_ir + h W_hr + b_hr)
        z = sigmoid(x W_iz + b_iz + h W_hz + b_hz)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = n + z * (h - n)

    The forward evaluates these in the same order and form as a
    composition of ``matmul``, ``add`` and ``mul`` nodes with
    ``sigmoid(a) = 0.5 * (tanh(0.5 * a) + 1)``, so its output is
    bit-identical to that composition. Parents that do not require
    grad get no gradient.
    """
    x, h = _wrap(x), _wrap(h)
    if x.ndim != 2 or h.ndim != 2:
        raise ShapeError(f"gru_cell: x {x.shape} and h {h.shape} must be 2-d")
    B, H = h.shape
    if (x.shape[0] != B or w_ih.shape != (x.shape[1], 3 * H)
            or w_hh.shape != (H, 3 * H) or b_ih.shape != (3 * H,)
            or b_hh.shape != (3 * H,)):
        raise ShapeError(
            f"gru_cell: x {x.shape}, h {h.shape}, w_ih {w_ih.shape}, "
            f"w_hh {w_hh.shape}, b_ih {b_ih.shape}, b_hh {b_hh.shape} do not conform"
        )
    gi = np.matmul(x.data, w_ih.data) + b_ih.data
    gh = np.matmul(h.data, w_hh.data) + b_hh.data
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

    return _result(data, (x, h, w_ih, w_hh, b_ih, b_hh), bwd, "gru_cell")


# -- activations ---------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def bwd():
        pos = x.data > 0

        def fn(g):
            return (g * pos,)
        return fn

    return _result(data, (x,), bwd, "relu")


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along the last axis; ``mask`` is an additive constant (0 or NEG_INF)."""
    z = x.data if mask is None else x.data + mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=-1, keepdims=True)

    def bwd():
        def fn(g):
            dot = (g * data).sum(axis=-1, keepdims=True)
            return (data * (g - dot),)
        return fn

    return _result(data, (x,), bwd, "softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then scale and shift."""
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm: params {gamma.shape}/{beta.shape} do not match last axis of {x.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = xc * invstd
    data = xhat * gamma.data + beta.data

    def bwd():
        gd = gamma.data

        def fn(g):
            dxhat = g * gd
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = invstd * (dxhat - m1 - xhat * m2)
            lead = tuple(range(g.ndim - 1))
            return (gx, (g * xhat).sum(axis=lead), g.sum(axis=lead))
        return fn

    return _result(data, (x, gamma, beta), bwd, "layer_norm")


# -- structural ops ------------------------------------------------------


def _row_sums(idx: np.ndarray, g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Gradient of a row gather: zeros like ``like`` with g's rows summed
    into the rows ``idx`` named. Rows are grouped by a stable sort and
    each group summed in gather order, so the result is deterministic."""
    out = np.zeros_like(like)
    flat = idx.reshape(-1) % like.shape[0]      # negative indices wrap, as in the gather
    if not flat.size:
        return out
    rows = g.reshape((flat.size,) + like.shape[1:])
    order = np.argsort(flat, kind="stable")
    ids = flat[order]
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    out[ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: ids in [{ids.min()}, {ids.max()}] out of range for table {table.shape}"
        )
    data = table.data[ids]

    def bwd():
        def fn(g):
            return (_row_sums(ids, g, table.data),)
        return fn

    return _result(data, (table,), bwd, "embedding")


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along axis 0; duplicate indices accumulate in backward."""
    idx = np.asarray(idx)
    data = x.data[idx]

    def bwd():
        def fn(g):
            return (_row_sums(idx, g, x.data),)
        return fn

    return _result(data, (x,), bwd, "take_rows")


def select_steps(x: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row gather: out[b] = x[b, idx[b]] for a (B, T, ...) tensor."""
    idx = np.asarray(idx)
    b = np.arange(x.shape[0])
    data = x.data[b, idx]

    def bwd():
        def fn(g):
            gx = np.zeros_like(x.data)
            gx[b, idx] = g
            return (gx,)
        return fn

    return _result(data, (x,), bwd, "select_steps")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd():
        sizes = [t.data.shape[axis] for t in tensors]
        cuts = np.cumsum(sizes)[:-1]

        def fn(g):
            return tuple(np.split(g, cuts, axis=axis))
        return fn

    return _result(data, tuple(tensors), bwd, "concat")


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def bwd():
        def fn(g):
            return tuple(np.moveaxis(g, axis, 0)[i] for i in range(len(tensors)))
        return fn

    return _result(data, tuple(tensors), bwd, "stack")


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def bwd():
        orig = x.data.shape

        def fn(g):
            return (g.reshape(orig),)
        return fn

    return _result(data, (x,), bwd, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    data = x.data.transpose(axes)

    def bwd():
        inv = np.argsort(axes)

        def fn(g):
            return (g.transpose(inv),)
        return fn

    return _result(data, (x,), bwd, "transpose")


def getitem(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; integer-array keys belong in take_rows."""
    data = x.data[key]

    def bwd():
        def fn(g):
            gx = np.zeros_like(x.data)
            gx[key] = g
            return (gx,)
        return fn

    return _result(data, (x,), bwd, "getitem")


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd():
        def fn(g):
            if axis is None:
                return (np.broadcast_to(g, x.data.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, x.data.shape).copy(),)
        return fn

    return _result(np.asarray(data), (x,), bwd, "sum")


# -- randomized / loss ops ----------------------------------------------


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout: each entry is kept with probability 1 - p and
    scaled by 1 / (1 - p). Callers skip it outside training."""
    keep = (rng.uniform(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    data = x.data * keep

    def bwd():
        def fn(g):
            return (g * keep,)
        return fn

    return _result(data, (x,), bwd, "dropout")


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log softmax probability of the target class.

    ``logits`` is (B, C); ``targets`` an int vector of length B.
    """
    z = logits.data
    t = np.asarray(targets, dtype=np.int64)
    if z.ndim != 2 or t.shape != (z.shape[0],):
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= z.shape[1]):
        raise ValueError(f"cross_entropy: target out of range for {z.shape[1]} classes")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    rows = np.arange(z.shape[0])
    data = np.asarray((lse - z[rows, t]).mean(), dtype=logits.dtype)

    def bwd():
        def fn(g):
            p = np.exp(z - m)
            p /= p.sum(axis=1, keepdims=True)
            p[rows, t] -= 1.0
            gx = p * (g / z.shape[0])
            return (gx,)
        return fn

    return _result(data, (logits,), bwd, "cross_entropy")


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target
    data = np.asarray((diff * diff).mean(), dtype=pred.dtype)

    def bwd():
        def fn(g):
            return (g * 2.0 * diff / diff.size,)
        return fn

    return _result(data, (pred,), bwd, "mse_loss")
