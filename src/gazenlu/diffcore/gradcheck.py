"""Finite-difference gradient checking.

Central differences against the analytic backward pass. The relative
error for a parameter is

    max|a - n| / max(max|a|, max|n|, 1e-12)

taken over the checked coordinates, where ``a`` is analytic and ``n``
numeric. Checks run per coordinate, so large parameters can be spot
checked via ``sample`` instead of exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import RngState, stream_words
from .tensor import (
    NEG_INF,
    Tensor,
    add,
    attention,
    backward,
    concat,
    cross_entropy,
    dropout,
    getitem,
    gru_seq,
    layer_norm,
    linear,
    matmul,
    mix_rows,
    mse_loss,
    mul,
    no_grad,
    relu,
    reshape,
    scatter_rows,
    softmax,
    take_rows,
    transpose,
    tsum,
)

FLOAT64_H, FLOAT64_TOL = 1e-5, 1e-6
FLOAT32_H, FLOAT32_TOL = 1e-2, 1e-4


@dataclass
class GradCheckReport:
    ok: bool
    max_rel_err: float
    per_param: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _coords(shape: tuple, sample: int | None, rng: RngState | None):
    total = int(np.prod(shape)) if shape else 1
    if sample is None or total <= sample:
        return list(range(total))
    r = rng if rng is not None else RngState(0, 0)
    picked = sorted(set(int(i) for i in r.integers(0, total, (sample,))))
    return picked


def grad_check(
    build,
    params: dict[str, Tensor],
    h: float = FLOAT64_H,
    tol: float = FLOAT64_TOL,
    sample: int | None = None,
    rng: RngState | None = None,
) -> GradCheckReport:
    """Check d(build())/d(params) against central differences.

    ``build`` must be deterministic: every call reconstructs the same
    loss from the current parameter values (re-seed any internal RNG).
    """
    for p in params.values():
        # perturbation below writes through a flat view, so data must own
        # contiguous storage
        p.data = np.ascontiguousarray(p.data)
        p.requires_grad = True
        p.grad = None
    loss = build()
    if loss.data.size != 1:
        raise ValueError("grad_check needs a scalar loss")
    backward(loss)
    report = GradCheckReport(ok=True, max_rel_err=0.0)
    if not np.isfinite(loss.data):
        report.ok = False
        report.failures.append(f"non-finite loss {float(loss.data)!r}")
        return report

    gathered: list[tuple[str, list[int], np.ndarray, np.ndarray]] = []
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(analytic)):
            bad = np.argwhere(~np.isfinite(analytic))[0]
            report.ok = False
            report.failures.append(f"non-finite analytic gradient at {name}{tuple(bad)}")
            continue
        flat = p.data.reshape(-1)
        coords = _coords(p.data.shape, sample, rng)
        a_vec = np.empty(len(coords))
        n_vec = np.empty(len(coords))
        with no_grad():
            for k, i in enumerate(coords):
                orig = flat[i]
                flat[i] = orig + h
                up = float(build().data)
                flat[i] = orig - h
                down = float(build().data)
                flat[i] = orig
                n_vec[k] = (up - down) / (2.0 * h)
                a_vec[k] = analytic.reshape(-1)[i]
        if not np.all(np.isfinite(n_vec)):
            bad = coords[int(np.argwhere(~np.isfinite(n_vec))[0][0])]
            report.ok = False
            report.failures.append(f"non-finite numeric gradient at {name}[flat {bad}]")
            continue
        gathered.append((name, coords, a_vec, n_vec))

    # one denominator across all checked coordinates; a parameter whose
    # true gradient is identically zero must not divide FD noise by itself
    denom = 1e-12
    for _, _, a_vec, n_vec in gathered:
        denom = max(denom, np.abs(a_vec).max(initial=0.0), np.abs(n_vec).max(initial=0.0))
    for name, coords, a_vec, n_vec in gathered:
        err = float(np.abs(a_vec - n_vec).max(initial=0.0) / denom)
        report.per_param[name] = err
        report.max_rel_err = max(report.max_rel_err, err)
        if err > tol:
            k = int(np.argmax(np.abs(a_vec - n_vec)))
            report.failures.append(
                f"{name}[flat {coords[k]}]: analytic={a_vec[k]:.6g} "
                f"numeric={n_vec[k]:.6g} rel={err:.3g}"
            )
            report.ok = False
    return report


def _rand(rng: RngState, shape, dtype) -> Tensor:
    return Tensor(rng.normal(shape).astype(dtype), requires_grad=True)


def standard_op_checks(dtype=np.float64):
    """(name, build, params) triple per registered differentiable op.

    Each build contracts the op output against a fixed random weight so
    every output coordinate reaches the scalar loss.
    """
    rng = RngState(2024, 1)
    d = dtype
    checks = []

    def readout(t: Tensor, key) -> Tensor:
        w = Tensor._leaf(RngState(2024, 99).substream(key).normal(t.shape).astype(d))
        return tsum(mul(t, w))

    def entry(name, params, fn):
        checks.append((name, (lambda: fn()), params))

    x = _rand(rng.substream("add"), (3, 4), d)
    y = _rand(rng.substream("add2"), (4,), d)
    entry("add", {"x": x, "y": y}, lambda x=x, y=y: readout(add(x, y), "add"))

    x = _rand(rng.substream("mul"), (3, 4), d)
    y = _rand(rng.substream("mul2"), (3, 1), d)
    entry("mul", {"x": x, "y": y}, lambda x=x, y=y: readout(mul(x, y), "mul"))

    a = _rand(rng.substream("mm_a"), (3, 4), d)
    b = _rand(rng.substream("mm_b"), (4, 5), d)
    entry("matmul", {"a": a, "b": b}, lambda a=a, b=b: readout(matmul(a, b), "mm"))

    a = _rand(rng.substream("bmm_a"), (2, 3, 4), d)
    b = _rand(rng.substream("bmm_b"), (4, 5), d)
    entry("matmul_batched", {"a": a, "b": b}, lambda a=a, b=b: readout(matmul(a, b), "bmm"))

    x = _rand(rng.substream("lin_x"), (2, 3, 4), d)
    w = _rand(rng.substream("lin_w"), (4, 5), d)
    bias = _rand(rng.substream("lin_b"), (5,), d)
    entry("linear", {"x": x, "w": w, "b": bias},
          lambda x=x, w=w, bias=bias: readout(linear(x, w, bias), "lin"))

    x = _rand(rng.substream("lin1_x"), (1, 4), d)
    w = _rand(rng.substream("lin1_w"), (4, 3), d)
    bias = _rand(rng.substream("lin1_b"), (3,), d)
    entry("linear_one_row", {"x": x, "w": w, "b": bias},
          lambda x=x, w=w, bias=bias: readout(linear(x, w, bias), "lin1"))

    a = _rand(rng.substream("mix_w"), (3, 4), d)
    b = _rand(rng.substream("mix_x"), (3, 4, 2), d)
    entry("mix_rows", {"w": a, "X": b}, lambda a=a, b=b: readout(mix_rows(a, b), "mix"))

    a = _rand(rng.substream("mix3_w"), (3, 2, 4), d)
    b = _rand(rng.substream("mix3_x"), (3, 4, 2), d)
    entry("mix_rows_steps", {"w": a, "X": b},
          lambda a=a, b=b: readout(mix_rows(a, b), "mix3"))

    # rows of 3, 0 and 2 of 3 steps, each direction; the readout also
    # reaches the carried states, the zero-length row's h0 among them.
    # Half-scale inputs, here and for the scan GRU: at float32's step of
    # 1e-2, the central difference of the gates' tanh at unit-scale
    # pre-activations is off by ~1e-4, the size of the tolerance
    lengths = np.array([3, 0, 2])
    for reverse in (False, True):
        key = "gru_seq_rev" if reverse else "gru_seq"
        seq = {k: Tensor((0.5 * rng.substream(key, k).normal(shape)).astype(d),
                         requires_grad=True)
               for k, shape in (("x", (3, 3, 2)), ("h0", (3, 4)), ("w_ih", (2, 12)),
                                ("w_hh", (4, 12)), ("b_ih", (12,)), ("b_hh", (12,)))}
        entry(key, seq, lambda p=seq, r=reverse, k=key, n=lengths:
              readout(gru_seq(p["x"], n, p["h0"], p["w_ih"], p["w_hh"],
                              p["b_ih"], p["b_hh"], reverse=r), k))

    x = Tensor(rng.substream("relu").normal((7,)).astype(d) + 0.3, requires_grad=True)
    entry("relu", {"x": x}, lambda x=x: readout(relu(x), "relu"))

    x = _rand(rng.substream("sm"), (3, 5), d)
    entry("softmax", {"x": x}, lambda x=x: readout(softmax(x), "sm"))

    x = _rand(rng.substream("smm"), (3, 5), d)
    m = np.zeros((3, 5), dtype=d)
    m[:, 4] = NEG_INF
    entry("softmax_masked", {"x": x}, lambda x=x, m=m: readout(softmax(x, mask=m), "smm"))

    # two rows of 4 and 2 tokens, two heads: the second row's pad slots
    # are keys and queries inside the node
    live = np.array([[True] * 4, [True, True, False, False]])
    qkv = {k: _rand(rng.substream("att", k), (6, 4), d) for k in ("q", "k", "v")}
    entry("attention", qkv,
          lambda p=qkv, live=live: readout(attention(p["q"], p["k"], p["v"], live, 2), "att"))

    x = _rand(rng.substream("ln"), (3, 6), d)
    gm = Tensor(np.ones(6, dtype=d) + 0.1 * rng.substream("ln_g").normal((6,)).astype(d), requires_grad=True)
    bt = _rand(rng.substream("ln_b"), (6,), d)
    entry("layer_norm", {"x": x, "gamma": gm, "beta": bt},
          lambda x=x, gm=gm, bt=bt: readout(layer_norm(x, gm, bt), "ln"))

    x = _rand(rng.substream("tr"), (6, 4), d)
    idx = np.array([1, 1, 3, 0])
    entry("take_rows", {"x": x}, lambda x=x, idx=idx: readout(take_rows(x, idx), "tr"))

    x = _rand(rng.substream("sr"), (3, 2), d)
    live = np.array([[True, False, True], [False, True, False]])
    entry("scatter_rows", {"x": x},
          lambda x=x, live=live: readout(scatter_rows(x, live), "sr"))

    a = _rand(rng.substream("cat_a"), (2, 3), d)
    b = _rand(rng.substream("cat_b"), (2, 2), d)
    entry("concat", {"a": a, "b": b}, lambda a=a, b=b: readout(concat([a, b], axis=1), "cat"))

    x = _rand(rng.substream("rs"), (3, 4), d)
    entry("reshape", {"x": x}, lambda x=x: readout(reshape(x, (2, 6)), "rs"))

    x = _rand(rng.substream("tp"), (2, 3, 4), d)
    entry("transpose", {"x": x}, lambda x=x: readout(transpose(x, (2, 0, 1)), "tp"))

    x = _rand(rng.substream("gi"), (4, 5), d)
    entry("getitem", {"x": x}, lambda x=x: readout(getitem(x, (slice(1, 3), slice(None))), "gi"))

    x = _rand(rng.substream("sum"), (3, 4), d)
    entry("sum", {"x": x}, lambda x=x: readout(tsum(x, axis=1), "sum"))

    x = _rand(rng.substream("do"), (4, 4), d)
    words = stream_words([RngState(77, 7)], [16]).reshape(4, 4)
    entry("dropout", {"x": x},
          lambda x=x, w=words: readout(dropout(x, 0.5, w), "do"))

    # the Gumbel sampler's node (``gazegen``), relaxed rows forward so
    # finite differences see the gradient: two rows of 3 and 2 words
    # with caps 3 and 2, so the working set shrinks. Each relaxation checks
    # the word states, the fixation embedding and half the weights; the
    # biases' sums are ``linear_bwd``'s, checked above
    from ..gazegen import (SOFT_CONVOLUTION, STRAIGHT_THROUGH, GeneratorConfig,
                           GumbelConfig, ScanpathGenerator)
    for name, mode, weights in (
            ("sampler", STRAIGHT_THROUGH, ("start", "w_ih")),
            ("sampler_soft", SOFT_CONVOLUTION, ("w_hh", "proj_w", "head_w"))):
        gen = ScanpathGenerator(GeneratorConfig(d_word=2, d_hidden=2, l_max=3),
                                rng.substream(name, "gen"))
        for _, p in gen.named_parameters():
            p.data = p.data.astype(d)
        ws = _rand(rng.substream(name, "ws"), (2, 3, 2), d)
        own = {"start": gen.start, "w_ih": gen.gru_hist.w_ih, "w_hh": gen.gru_hist.w_hh,
               "proj_w": gen.hist_proj.w, "head_w": gen.head.w}
        params = {"word_states": ws, "fix_pos": gen.fix_pos.w,
                  **{k: own[k] for k in weights}}
        entry(name, params,
              lambda gen=gen, ws=ws, cfg=GumbelConfig(mode=mode), k=name:
              readout(gen.sample_gumbel_batch(
                  ws, np.array([3, 2]), [RngState(2024, 5), RngState(2024, 6)], cfg,
                  np.array([3, 2]), surrogate=True).rows, k))

    # the scanpath GRU's node (``augmentor``), in training with dropout:
    # soft rows of 3, 0 and 2 steps over 3 words
    from ..augmentor import ScanpathEncoder
    enc = ScanpathEncoder(4, rng.substream("scan"))
    scan = {k: Tensor(np.zeros(shape), requires_grad=True)
            for k, shape in (("rows", (5, 3)), ("words", (3, 3, 4)), ("cls", (3, 4)))}
    scan.update(enc.gru.named_parameters())
    for k, p in scan.items():
        p.data = (0.5 * rng.substream("scan", k).normal(p.shape)).astype(d)
    mask = (np.arange(3) < np.array([[3], [0], [2]])).astype(np.float32)
    entry("scan", scan, lambda enc=enc, m=mask, p=scan: readout(enc.run_steps(
        m.sum(axis=0), m, p["rows"], p["words"], p["cls"],
        [RngState(2024, 7 + b) for b in range(3)]), "scan"))

    z = _rand(rng.substream("ce"), (4, 3), d)
    tgt = np.array([0, 2, 1, 1])
    entry("cross_entropy", {"logits": z}, lambda z=z, tgt=tgt: cross_entropy(z, tgt))

    p = _rand(rng.substream("mse_p"), (3, 2), d)
    q = rng.substream("mse_q").normal((3, 2)).astype(d)
    entry("mse_loss", {"pred": p}, lambda p=p, q=q: mse_loss(p, q))

    return checks


def run_standard_checks(dtype=np.float64, h: float | None = None, tol: float | None = None):
    """Gradcheck every registered op; returns {op_name: GradCheckReport}."""
    if h is None:
        h = FLOAT64_H if dtype == np.float64 else FLOAT32_H
    if tol is None:
        tol = FLOAT64_TOL if dtype == np.float64 else FLOAT32_TOL
    out = {}
    for name, build, params in standard_op_checks(dtype):
        out[name] = grad_check(build, params, h=h, tol=tol)
    return out
