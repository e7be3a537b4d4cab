"""Reverse-mode autodiff over numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional backward closure; ops
build the graph eagerly and :func:`backward` walks it once in reverse
topological order. Parents are stored in call order and the walk visits
them in that order, so backward passes over two graphs built alike
accumulate gradients in the same order and produce bit-identical results.

A graph lives from its forward to the end of its backward. The walk
consumes it: each node drops its parents and its backward closure, and
with them the arrays they saved, as soon as it has passed its gradient
on, so the activations of a training step are gone when ``backward``
returns, whatever tensors the caller still holds. Leaves and every
node's ``data`` stay; backward through a consumed node raises.

Training runs in float32; gradient checking builds float64 graphs. A
graph keeps the dtype of its tensors: a plain number or array meeting a
tensor in ``add`` or ``mul`` is cast to that tensor's dtype, so a float
constant never promotes a float32 graph to float64.

The ops: elementwise ``add``, ``mul``, ``relu`` and ``softmax``;
``matmul``, ``linear`` (matmul plus bias) and ``mix_rows`` (each row's
weighted sums of its own rows); ``attention``, multi-head attention over
packed token rows; ``gru_seq``, a GRU over whole sequences whose inputs
are all known; ``layer_norm``; the gathers ``take_rows`` and ``getitem``
and their inverse ``scatter_rows``; ``concat``, ``reshape``,
``transpose`` and ``tsum``; ``dropout``; the losses ``cross_entropy`` and
``mse_loss``. ``add``,
``mul``, ``matmul``, ``linear``, ``mix_rows``, ``gru_seq`` and ``concat``
compute no gradient for a parent that does not require one (masks,
noise, one-hot rows, landing scatters).

Each op hands one backward closure ``fn(g)``, returning a gradient or
None per parent, to ``op_result``, which keeps it only when the node is
recorded; the closure computes its own backward-only values, so a
forward under ``no_grad`` does no work for a backward that never runs.
Code outside this module that runs a computation on plain arrays and
writes its backward by hand records its node through ``op_result`` too:
the Gumbel sampler (``sampler``) and the scanpath GRU (``scan``).

The forward and backward formulas such code shares with the ops, and
the attention node's, are plain-array kernels here, each written once:
``rows_matmul`` (below); ``softmax_fwd`` and ``softmax_bwd``;
``attention_fwd`` and ``attention_bwd``; ``linear_fwd`` and ``linear_bwd``;
``mix_rows_fwd`` and ``mix_rows_bwd_w`` (the weights' gradient);
``gru_step``, ``gru_gates`` (a step from its projections) and ``gru_bwd``;
``move_mass_fwd`` and ``move_mass_bwd``.

numpy hands a one-row product to GEMV, whose sums round differently
from GEMM's, so ``matmul``, ``linear``, ``gru_step`` and ``gru_seq``
send a one-row ``x`` through GEMM as two rows, and ``linear`` runs one
GEMM over all the leading rows of its input. A row's forward value then
does not depend on how many rows share its batch wherever GEMM rounds a
row the same for any row count (with OpenBLAS float32, at output widths
that are multiples of 16, among others), which is what lets the sampler
and the scanpath GRU shrink their working sets, and ``gru_seq`` and the
scanpath GRU project all their steps' inputs in one GEMM, without
changing a bit.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager

import numpy as np

# Additive mask surrogate for -inf: large enough to drive masked softmax
# probabilities to exact float zero, small enough to never overflow.
NEG_INF = -1e9
# ``_row_max``'s rules: ``max`` below this many rows, one ``np.maximum`` per
# column from this many rows per column on
ROW_MAX_ROWS = 32
ROW_MAX_LOOP_RATIO = 32

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
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: tuple, fn, op: str) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.requires_grad = True
        t.grad = None
        t._parents = parents
        t._backward = fn
        t._op = op
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
        """Backpropagate from this scalar into the leaves' ``.grad``; the
        walk consumes the graph, so it runs once per graph (see
        :func:`backward`)."""
        backward(self)


def _wrap(x, like=None) -> Tensor:
    """``x`` as a Tensor; a constant takes the dtype of the Tensor ``like``."""
    if isinstance(x, Tensor):
        return x
    return Tensor._leaf(np.asarray(x, dtype=like.dtype if isinstance(like, Tensor) else None))


def _record(parents: tuple) -> bool:
    return _grad_enabled[-1] and any(p.requires_grad for p in parents)


def op_result(data, parents, fn, op: str) -> Tensor:
    """The result of op ``op``: a node with backward closure ``fn`` if it
    is recorded, else a leaf.

    This is how every op, and any code outside this module that writes
    its own backward, records a node. ``fn(g)`` takes the gradient of
    ``data`` and returns one gradient or None per parent, in order; a
    node is recorded when grad mode is on and some parent requires a
    gradient, so ``fn`` runs only then."""
    if _record(parents):
        return Tensor._node(data, parents, fn, op)
    return Tensor._leaf(data)


def rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-d ``a``, through GEMM even when ``a`` has one row."""
    if a.shape[0] == 1:
        return np.matmul(np.concatenate([a, a]), b)[:1]
    return np.matmul(a, b)


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


# -- plain-array kernels ---------------------------------------------------
#
# The forward and backward formulas of the ops below that code outside this
# module reuses when it writes a backward by hand, and the attention node's;
# the ops call them too.


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` over the last axis: one GEMM over all the leading
    rows of ``x`` (a one-row ``x`` still through GEMM), then the bias."""
    d_in, d_out = w.shape
    data = rows_matmul(x.reshape(-1, d_in), w)
    data += b
    return data.reshape(x.shape[:-1] + (d_out,))


def linear_bwd(x2: np.ndarray, w: np.ndarray, g2: np.ndarray, need=(True, True, True)):
    """The gradients of ``linear_fwd``'s x, w and b, on flat rows: ``x2``
    (rows, d_in) the inputs and ``g2`` (rows, d_out) their output
    gradients; None where ``need`` says none is wanted."""
    return (np.matmul(g2, w.T) if need[0] else None,
            np.matmul(x2.T, g2) if need[1] else None,
            g2.sum(axis=0) if need[2] else None)


def mix_rows_fwd(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """out[b] = w[b] @ X[b]: (B, W) or (B, S, W) weights over (B, W, d) rows."""
    if w.ndim == 2:
        return np.matmul(w[:, None, :], X)[:, 0]
    return np.matmul(w, X)


def mix_rows_bwd_w(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The gradient of ``mix_rows_fwd``'s weights, g[b] @ X[b].T, given
    ``g``, that of its output."""
    if g.ndim == 2:
        return np.matmul(g[:, None, :], np.swapaxes(X, 1, 2))[:, 0]
    return np.matmul(g, np.swapaxes(X, 1, 2))


def _row_max(z: np.ndarray) -> np.ndarray:
    """The value of ``z.max(axis=-1, keepdims=True)``, by the fastest of
    three rules for the shape (times below are float32 on a 2-core
    x86-64 machine with numpy 2.4).

    ``max`` costs about 0.1 us a row, so it is kept for fewer than
    ``ROW_MAX_ROWS`` rows only. Many short rows, as in the attention
    scores, take one ``np.maximum`` per column instead (35-50 against
    270-320 us on (64, 4, 12, 12)); the rest, as in the sampler's
    decisions, gather each row's ``argmax`` (7-9 against 22-29 us on
    (192, 64)).
    Each value is bit for bit ``max``'s, and a NaN row's is NaN, but a
    zero maximum may carry the other sign: ``max``'s own sign there
    follows numpy's SIMD lanes, so it differs between CPUs, and
    ``exp(z - max)`` is the same for either sign.
    """
    width = z.shape[-1]
    rows = z.size // width if width else 0
    if rows < ROW_MAX_ROWS:
        return z.max(axis=-1, keepdims=True)
    if rows >= ROW_MAX_LOOP_RATIO * width:
        m = z[..., :1].copy()
        for j in range(1, width):
            np.maximum(m, z[..., j:j + 1], out=m)
        return m
    flat = z.reshape(rows, width)
    return flat[np.arange(rows), flat.argmax(axis=1)].reshape(*z.shape[:-1], 1)


def softmax_fwd(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis; ``mask`` is an additive constant."""
    z = x if mask is None else x + mask
    z = z - _row_max(z)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_bwd(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the softmax's input, given its output ``y`` and
    the gradient ``g`` of that output."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def _heads(x: np.ndarray, live: np.ndarray, n_heads: int) -> np.ndarray:
    """Packed (N, d) rows scattered into the True slots of the (B, T)
    mask ``live``, zeros elsewhere, viewed as (B, h, T, d / h) heads."""
    B, T = live.shape
    d = x.shape[1]
    full = np.zeros((B, T, d), dtype=x.dtype)
    full[live] = x
    return full.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _packed(x: np.ndarray, live: np.ndarray) -> np.ndarray:
    """(B, h, T, dh) heads back to the packed (N, h * dh) rows of ``live``."""
    _, h, _, dh = x.shape
    return x.transpose(0, 2, 1, 3)[live].reshape(-1, h * dh)


def attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, live: np.ndarray,
                  n_heads: int):
    """Multi-head scaled dot-product attention over packed rows.

    ``q``, ``k`` and ``v`` are (N, d): the rows of the N True slots of
    the (B, T) mask ``live``, in row-major order. They are scattered into
    a zero (B, h, T, d / h) layout; each query attends to the keys of its
    own batch row that ``live`` marks, the others masked by ``NEG_INF``;
    the real query rows are gathered back, (N, d). Returns them and what
    ``attention_bwd`` reads: the three head layouts and the weights."""
    B, T = live.shape
    qh, kh, vh = (_heads(x, live, n_heads) for x in (q, k, v))
    scale = np.asarray(1.0 / np.sqrt(qh.shape[-1]), dtype=q.dtype)
    key_mask = ((1.0 - live.astype(q.dtype)) * NEG_INF).astype(q.dtype)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    scores *= scale
    attn = softmax_fwd(scores, key_mask.reshape(B, 1, 1, T))
    return _packed(np.matmul(attn, vh), live), (qh, kh, vh, attn)


def attention_bwd(g: np.ndarray, live: np.ndarray, saved):
    """The gradients of ``attention_fwd``'s packed q, k and v, given ``g``
    (N, d), that of its output, and the arrays it saved. Pad slots take
    no gradient: ``g`` is zero there, and a pad key's weight is zero."""
    qh, kh, vh, attn = saved
    gh = _heads(g, live, qh.shape[1])
    scale = np.asarray(1.0 / np.sqrt(qh.shape[-1]), dtype=qh.dtype)
    d_scores = softmax_bwd(attn, np.matmul(gh, vh.transpose(0, 1, 3, 2))) * scale
    return (_packed(np.matmul(d_scores, kh), live),
            _packed(np.matmul(d_scores.transpose(0, 1, 3, 2), qh), live),
            _packed(np.matmul(attn.transpose(0, 1, 3, 2), gh), live))


@functools.lru_cache(maxsize=None)
def _move_source(W: int, dtype: np.dtype) -> np.ndarray:
    """(K, 3K + 1) in ``dtype``, K = 2W - 1: q @ it is each row's
    [q, cumsum q, reversed cumsum q, 0]."""
    K = 2 * W - 1
    source = np.zeros((K, 3 * K + 1), dtype=dtype)
    source[:, :K] = np.eye(K)
    source[:, K:2 * K] = np.triu(np.ones((K, K)))
    source[:, 2 * K:3 * K] = np.tril(np.ones((K, K)))
    return source


@functools.lru_cache(maxsize=None)
def _move_tables(W: int):
    """The gathers of a soft move over rows padded to W words, with
    K = 2W - 1 offsets -(W-1) .. W-1, for each word count c = 1 .. W.

    ``slots``, (W, W, W): entry [c - 1, i, j] is the source column
    (``_move_source``) that moves word i to word j: q at offset j - i
    for an interior landing; the cumsum to offset -i for j = 0, every
    offset that clamps at the first word; the reversed cumsum from offset
    c - 1 - i for j = c - 1; the whole sum for a 1-word row; the 0 where
    i or j is padding. ``window``, (W, 3W - 2): entry [c - 1, p] is the
    word that position p - (W-1) clamps to."""
    K = 2 * W - 1
    c = np.arange(1, W + 1)[:, None, None]
    i = np.arange(W)[:, None]
    j = np.arange(W)
    slots = np.broadcast_to(j - i + W - 1, (W, W, W))
    slots = np.where(j == 0, K + W - 1 - i, slots)
    slots = np.where(j == c - 1, 2 * K + W - 2 + c - i, slots)
    slots = np.where(c == 1, 2 * K - 1, slots)
    slots = np.where((i >= c) | (j >= c), 3 * K, slots)
    window = np.clip(np.arange(3 * W - 2) - (W - 1), 0, np.arange(W)[:, None])
    return slots, window


def move_mass_fwd(dist: np.ndarray, q: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The soft walk's move: each row's mass moved by every offset,
    weighted, landings clamped.

    ``dist`` is (B, W) mass over positions, ``q`` (B, 2W - 1) weights of
    the offsets -(W-1) .. W-1, and row b's positions are
    ``0 .. counts[b] - 1``:

        out[b, j] = sum of q[b, k] * dist[b, i] over k and i < counts[b]
                    with clip(i + k, 0, counts[b] - 1) == j

    that is, dist[b] @ T[b], with each row's (W, W) transfer T gathered
    in one call from its [q, cumsum q, reversed cumsum q, 0], by an index
    that depends only on W and the row's word count, and applied in one
    batched matmul. Padding positions neither send nor receive mass.
    """
    B, W = dist.shape
    at = _move_tables(W)[0][counts - 1]
    at += (np.arange(B) * (6 * W - 2))[:, None, None]
    source = rows_matmul(q, _move_source(W, q.dtype))
    return np.matmul(dist[:, None, :], source.reshape(-1)[at])[:, 0, :]


def move_mass_bwd(g: np.ndarray, dist: np.ndarray, q: np.ndarray, counts: np.ndarray,
                  need=(True, True)):
    """The gradients of ``move_mass_fwd``'s dist and q, given ``g``, that
    of its output, for rows of ``counts`` words; None where ``need`` says
    none is wanted.

    Both read G, (B, W, 2W - 1): G[b, i, k] is g[b] at the word that
    offset k moves word i to, a sliding window over g gathered at the
    clamped positions. d_dist = T @ g is G @ q, so the transfer is not
    rebuilt, and d_q = dist @ G; padding takes and gives nothing."""
    B, W = g.shape
    win = _move_tables(W)[1][counts - 1]
    win += (np.arange(B) * W)[:, None]
    g_at = g.reshape(-1)[win]
    step = g_at.strides[1]
    windows = np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        g_at, (B, W, 2 * W - 1), (g_at.strides[0], step, step), writeable=False))
    real = np.arange(W) < counts[:, None]
    gd = gq = None
    if need[0]:
        gd = np.matmul(windows, q[:, :, None])[:, :, 0]
        gd *= real
    if need[1]:
        gq = np.matmul((dist * real)[:, None, :], windows)[:, 0, :]
    return gd, gq


# -- backward engine -----------------------------------------------------


def _consumed(g):
    raise RuntimeError("backward through a graph that an earlier backward consumed")


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into ``.grad`` of every reachable leaf.

    Raises if ``loss`` is not scalar. Leaves with requires_grad=False are
    never visited, so frozen subgraphs allocate no gradients.

    The walk consumes the graph: once a node has passed its gradient to
    its parents (or got none), it drops its parents and its backward
    closure, so each node's saved arrays are freed while the walk still
    runs, even if the caller holds ``loss`` or the node itself. A consumed
    node keeps its ``data``; a second backward through it raises
    ``RuntimeError``. Leaves are untouched, so gradients still accumulate
    across separate graphs.
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
    while topo:
        node = topo.pop()           # reverse topological order
        g = grads.pop(id(node), None)
        if node._backward is None:  # a leaf
            if g is not None and node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        if g is not None:
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                k = id(p)
                if k in grads:
                    grads[k] = grads[k] + pg
                else:
                    grads[k] = pg
        node._parents = ()
        node._backward = _consumed


# -- arithmetic ops ------------------------------------------------------


def add(a, b) -> Tensor:
    a = _wrap(a, b)
    b = _wrap(b, a)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast")
    data = a.data + b.data

    def fn(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return op_result(data, (a, b), fn, "add")


def mul(a, b) -> Tensor:
    a = _wrap(a, b)
    b = _wrap(b, a)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast")
    ad, bd = a.data, b.data
    data = ad * bd

    def fn(g):
        return (_unbroadcast(g * bd, ad.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, bd.shape) if b.requires_grad else None)

    return op_result(data, (a, b), fn, "mul")


def matmul(a, b) -> Tensor:
    """Gradients only for operands that require them."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if a.ndim == 2 and b.ndim == 2:
        data = rows_matmul(a.data, b.data)
    else:
        data = np.matmul(a.data, b.data)

    ad, bd = a.data, b.data

    def fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return (ga, gb)

    return op_result(data, (a, b), fn, "matmul")


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, one node.

    ``w`` is (d_in, d_out) and ``b`` (d_out,). All leading axes of ``x``
    are flattened into the rows of one GEMM (a one-row ``x`` still goes
    through GEMM), so a row's value does not depend on the shape of the
    batch around it wherever GEMM rounds a row the same for any row count.
    The backward runs flat GEMMs as well: ``g @ w.T``, ``x.T @ g`` and the
    column sums of ``g``.
    """
    x = _wrap(x)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not conform")
    data = linear_fwd(x.data, w.data, b.data)

    def fn(g):
        gx, gw, gb = linear_bwd(x.data.reshape(-1, w.shape[0]), w.data,
                                g.reshape(-1, w.shape[1]),
                                (x.requires_grad, w.requires_grad, b.requires_grad))
        return (None if gx is None else gx.reshape(x.shape), gw, gb)

    return op_result(data, (x, w, b), fn, "linear")


def mix_rows(w, X) -> Tensor:
    """Each row's weighted sums of its own rows: out[b] = w[b] @ X[b].

    ``X`` is (B, W, d). ``w`` is (B, W), one weighting per row, giving
    (B, d), or (B, S, W), S weightings per row, giving (B, S, d). One
    node for ``reshape(matmul(reshape(w, (B, 1, W)), X), (B, d))`` (for a
    2-d ``w``) through the same ``np.matmul`` call, so the forward is
    bit-identical to it. For a 2-d ``w`` the backward takes dX as the
    outer product ``w[:, :, None] * g[:, None, :]`` rather than a batched
    matmul with an inner dimension of one.
    """
    w, X = _wrap(w), _wrap(X)
    if w.ndim not in (2, 3) or X.ndim != 3 or X.shape[:2] != (w.shape[0], w.shape[-1]):
        raise ShapeError(f"mix_rows: weights {w.shape} and rows {X.shape} do not conform")
    data = mix_rows_fwd(w.data, X.data)

    def fn(g):
        gw = mix_rows_bwd_w(g, X.data) if w.requires_grad else None
        gX = None
        if X.requires_grad:
            gX = (w.data[:, :, None] * g[:, None, :] if w.ndim == 2
                  else np.matmul(np.swapaxes(w.data, 1, 2), g))
        return (gw, gX)

    return op_result(data, (w, X), fn, "mix_rows")


def gru_gates(gi, gh, h):
    """One GRU step from its input and hidden projections ``gi`` and ``gh``
    (rows, 3H), biases added, and its state ``h`` (rows, H): the new state
    and the gates (r, z, n, ghn) that ``gru_bwd`` reads."""
    H = h.shape[1]
    r = 0.5 * (np.tanh(0.5 * (gi[:, 0:H] + gh[:, 0:H])) + 1.0)
    z = 0.5 * (np.tanh(0.5 * (gi[:, H:2 * H] + gh[:, H:2 * H])) + 1.0)
    ghn = gh[:, 2 * H:3 * H]
    n = np.tanh(gi[:, 2 * H:3 * H] + r * ghn)
    return n + z * (h + n * -1.0), (r, z, n, ghn)


def gru_step(x, h, w_ih, w_hh, b_ih, b_hh):
    """One GRU step (Cho et al. 2014) on arrays: the new state and the
    gates that ``gru_bwd`` reads.

    ``x`` is (B, d_in) and ``h`` (B, H); the weights are (d_in, 3H) and
    (H, 3H), the biases (3H,), with gates sliced in the order r, z, n:

        r = sigmoid(x W_ir + b_ir + h W_hr + b_hr)
        z = sigmoid(x W_iz + b_iz + h W_hz + b_hz)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = n + z * (h - n)

    evaluated in the same order and form as a composition of matmul, add
    and mul nodes with ``sigmoid(a) = 0.5 * (tanh(0.5 * a) + 1)``.
    """
    gi = rows_matmul(x, w_ih) + b_ih
    gh = rows_matmul(h, w_hh) + b_hh
    return gru_gates(gi, gh, h)


def gru_bwd(g, h, gates, w_hh):
    """One step's backward, given ``g``, the gradient of its new state:
    the gradients (dgi, dgh) of its input and hidden projections and
    that of its state ``h``. The weight gradients are ``x.T @ dgi`` and
    ``h.T @ dgh``, the input's ``dgi @ w_ih.T``."""
    r, z, n, ghn = gates
    dz = g * (h - n) * z * (1.0 - z)
    da_n = g * (1.0 - z) * (1.0 - n * n)
    dr = da_n * ghn * r * (1.0 - r)
    dgh = np.concatenate([dr, dz, da_n * r], axis=1)
    return (np.concatenate([dr, dz, da_n], axis=1), dgh,
            np.matmul(dgh, w_hh.T) + g * z)


def gru_seq(x, lengths, h0, w_ih, w_hh, b_ih, b_hh, reverse: bool = False) -> Tensor:
    """A GRU run over whole sequences as a single node; (B, T, H) states.

    ``x`` is (B, T, d_in), ``lengths`` (B,) the steps of each row, each in
    0..T, and ``h0`` (B, H) the initial states; weights as in
    ``gru_step``. Row b steps through ``x[b, :lengths[b]]``, from the first
    step forward or, with ``reverse``, from the last step back. Output
    ``[b, t]`` is the state after step t; a step past a row's length
    leaves its state as it was, so the state carries over after the last
    step (before the first, in reverse).

    Rows are sorted by length, so the rows live at each step are a
    prefix. The input projection is one GEMM over the live (row, step)
    cells; each step then multiplies only the live rows' states by
    ``w_hh``, with the gate arithmetic of ``gru_step``. Wherever GEMM
    rounds a row the same for any row count, the output is bit-identical
    to stepping ``gru_step`` over all B rows and keeping a finished row's
    state. The backward runs BPTT over the same prefixes; the input,
    weight and bias gradients are one GEMM or one sum each.
    """
    x, h0 = _wrap(x), _wrap(h0)
    lengths = np.asarray(lengths, dtype=np.int64)
    if x.ndim != 3 or h0.ndim != 2:
        raise ShapeError(f"gru_seq: x {x.shape} must be 3-d and h0 {h0.shape} 2-d")
    B, T, d = x.shape
    H = h0.shape[1]
    if (h0.shape[0] != B or lengths.shape != (B,) or w_ih.shape != (d, 3 * H)
            or w_hh.shape != (H, 3 * H) or b_ih.shape != (3 * H,)
            or b_hh.shape != (3 * H,)):
        raise ShapeError(
            f"gru_seq: x {x.shape}, lengths {lengths.shape}, h0 {h0.shape}, "
            f"w_ih {w_ih.shape}, w_hh {w_hh.shape}, b_ih {b_ih.shape}, "
            f"b_hh {b_hh.shape} do not conform"
        )
    if B and (lengths.min() < 0 or lengths.max() > T):
        raise ShapeError(f"gru_seq: lengths must lie in 0..{T}")
    parents = (x, h0, w_ih, w_hh, b_ih, b_hh)
    order = np.argsort(-lengths, kind="stable")     # sorted row i is row order[i]
    times = np.arange(T)[::-1] if reverse else np.arange(T)
    # the live cells, step by step in the order run, sorted rows within a step
    step, pos = np.nonzero(lengths[order][None, :] > times[:, None])
    live = np.bincount(step, minlength=T).tolist()
    starts = np.concatenate([[0], np.cumsum(live)]).astype(np.int64).tolist()
    cell_rows, cell_times = order[pos], times[step]
    xs = x.data[cell_rows, cell_times]
    gi_all = rows_matmul(xs, w_ih.data) + b_ih.data
    N = len(cell_rows)
    dt = gi_all.dtype
    record = _record(parents)
    saved = [np.empty((N, H), dtype=dt) for _ in range(5)]   # h, r, z, n, ghn per cell
    h = h0.data[order].astype(dt, copy=False)
    out = np.empty((B, T, H), dtype=dt)
    for k, t in enumerate(times):
        n, c = live[k], slice(starts[k], starts[k + 1])
        if n:
            hp = h[:n]
            h_new, gates = gru_gates(gi_all[c], rows_matmul(hp, w_hh.data) + b_hh.data, hp)
            if record:
                for buf, val in zip(saved, (hp, *gates)):
                    buf[c] = val
            h[:n] = h_new
        out[order, t] = h

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
            hp, *gates = (buf[c] for buf in saved)
            dgi[c], dgh[c], dh[:n] = gru_bwd(dh[:n], hp, gates, w_hh.data)
        gxs, gw_ih, gb_ih = linear_bwd(xs, w_ih.data, dgi, (
            x.requires_grad, w_ih.requires_grad, b_ih.requires_grad))
        _, gw_hh, gb_hh = linear_bwd(saved[0], w_hh.data, dgh, (
            False, w_hh.requires_grad, b_hh.requires_grad))
        gx = gh0 = None
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[cell_rows, cell_times] = gxs
        if h0.requires_grad:
            gh0 = np.empty_like(dh)
            gh0[order] = dh
        return (gx, gh0, gw_ih, gw_hh, gb_ih, gb_hh)

    return op_result(out, parents, fn, "gru_seq")


# -- activations ---------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def fn(g):
        return (g * (data > 0),)

    return op_result(data, (x,), fn, "relu")


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along the last axis; ``mask`` is an additive constant (0 or NEG_INF)."""
    data = softmax_fwd(x.data, mask)

    def fn(g):
        return (softmax_bwd(data, g),)

    return op_result(data, (x,), fn, "softmax")


def attention(q: Tensor, k: Tensor, v: Tensor, live: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head attention over packed rows, one node: ``attention_fwd``
    gives the forward, ``attention_bwd`` the backward.

    ``q``, ``k`` and ``v`` (N, d) hold the N tokens that the boolean
    (B, T) mask ``live`` marks, row by row; the padded layout exists only
    inside the node, where the pad slots are masked keys."""
    live = np.asarray(live, dtype=bool)
    if (q.ndim != 2 or k.shape != q.shape or v.shape != q.shape or live.ndim != 2
            or q.shape[0] != np.count_nonzero(live) or q.shape[1] % n_heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, "
                         f"{n_heads} heads and mask {live.shape} do not conform")
    data, saved = attention_fwd(q.data, k.data, v.data, live, n_heads)

    def fn(g):
        return attention_bwd(g, live, saved)

    return op_result(data, (q, k, v), fn, "attention")


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

    gd = gamma.data

    def fn(g):
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = invstd * (dxhat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        return (gx, (g * xhat).sum(axis=lead), g.sum(axis=lead))

    return op_result(data, (x, gamma, beta), fn, "layer_norm")


# -- structural ops ------------------------------------------------------


def _row_sums(idx: np.ndarray, g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Gradient of a row gather: zeros like ``like`` with g's rows summed
    into the rows ``idx`` named. Rows are grouped by a stable sort and
    each group summed in gather order, so the result is deterministic.
    Distinct indices, every gather of a working set, are groups of one:
    their rows are copied into place without the sort."""
    out = np.zeros_like(like)
    flat = idx.reshape(-1) % like.shape[0]      # negative indices wrap, as in the gather
    if not flat.size:
        return out
    rows = g.reshape((flat.size,) + like.shape[1:])
    if np.bincount(flat).max() == 1:
        out[flat] = rows
        return out
    order = np.argsort(flat, kind="stable")
    ids = flat[order]
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    out[ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather, out[...] = x[idx[...]], for ``idx`` of any shape;
    negative indices wrap, and duplicates accumulate in backward."""
    idx = np.asarray(idx)
    data = x.data[idx]

    def fn(g):
        return (_row_sums(idx, g, x.data),)

    return op_result(data, (x,), fn, "take_rows")


def scatter_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """The rows of ``x`` placed at the True slots of the boolean ``mask``
    in row-major order, zeros elsewhere: out[mask] = x, of shape
    ``mask.shape + x.shape[1:]``. The backward gathers g[mask]."""
    mask = np.asarray(mask, dtype=bool)
    if x.ndim < 1 or x.shape[0] != np.count_nonzero(mask):
        raise ShapeError(f"scatter_rows: {x.shape} rows for a mask of "
                         f"{np.count_nonzero(mask)} slots")
    data = np.zeros(mask.shape + x.shape[1:], dtype=x.dtype)
    data[mask] = x.data

    def fn(g):
        return (g[mask],)

    return op_result(data, (x,), fn, "scatter_rows")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def fn(g):
        cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        return tuple(part if t.requires_grad else None
                     for t, part in zip(tensors, np.split(g, cuts, axis=axis)))

    return op_result(data, tuple(tensors), fn, "concat")


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def fn(g):
        return (g.reshape(x.data.shape),)

    return op_result(data, (x,), fn, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    data = x.data.transpose(axes)

    def fn(g):
        return (g.transpose(np.argsort(axes)),)

    return op_result(data, (x,), fn, "transpose")


def getitem(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; integer-array keys belong in take_rows."""
    data = x.data[key]

    def fn(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return op_result(data, (x,), fn, "getitem")


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).copy(),)

    return op_result(np.asarray(data), (x,), fn, "sum")


# -- randomized / loss ops ----------------------------------------------


def dropout_keep(words: np.ndarray, p: float, dtype) -> np.ndarray:
    """Inverted dropout's multipliers from 32-bit ``words``: 1 / (1 - p)
    where a word is at least ceil(p * 2^32), else 0. A uniform word is
    kept with probability 1 - p to within 2^-32."""
    return (words >= math.ceil(p * 2**32)).astype(dtype) / (1.0 - p)


def dropout(x: Tensor, p: float, words: np.ndarray) -> Tensor:
    """Inverted dropout: each entry is kept with probability 1 - p and
    scaled by 1 / (1 - p), as ``dropout_keep`` reads its word in
    ``words``, a uint32 array of ``x``'s shape (``rng.stream_words``
    draws them). Callers skip it outside training."""
    keep = dropout_keep(words, p, x.data.dtype)
    data = x.data * keep

    def fn(g):
        return (g * keep,)

    return op_result(data, (x,), fn, "dropout")


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

    def fn(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, t] -= 1.0
        gx = p * (g / z.shape[0])
        return (gx,)

    return op_result(data, (logits,), fn, "cross_entropy")


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target
    data = np.asarray((diff * diff).mean(), dtype=pred.dtype)

    def fn(g):
        return (g * 2.0 * diff / diff.size,)

    return op_result(data, (pred,), fn, "mse_loss")
