"""Fixation-ordered classifier: reordering, pooling glue, joint model."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gru, row_streams, scan_words, step_slices

from gazenlu import augmentor, textenc
from gazenlu.augmentor import (CLASSIFICATION, GAZE, SCAN_DROPOUT, JointModel,
                               ModelConfig, ScanpathEncoder, TEXT_ONLY,
                               average_logits)
from gazenlu.diffcore import (RngState, Tensor, add, backward, concat, dropout,
                              mix_rows, mul, no_grad, take_rows, tsum)
from gazenlu.gazegen import GumbelConfig, default_max_fixations
from gazenlu.textenc import TextEncoderConfig, build_vocab, collate, tokenize
from gazenlu.trainkit import GazeModel


# -- logit averaging -----------------------------------------------------


def test_average_single_output_is_identity():
    a = np.array([[0.3, -1.2]])
    assert np.array_equal(average_logits([a]), a)


def test_average_of_identical_outputs_is_bit_exact():
    a = np.array([[1e-7, 3.1415926]], dtype=np.float32)
    out = average_logits([a.copy() for _ in range(7)])
    assert np.array_equal(out, a)


def test_average_of_two_outputs():
    a = np.array([[2.0, 0.0]])
    b = np.array([[0.0, 4.0]])
    assert np.allclose(average_logits([a, b]), [[1.0, 2.0]])


def test_average_rejects_empty():
    with pytest.raises(ValueError):
        average_logits([])


# -- reordering ----------------------------------------------------------


@pytest.fixture(scope="module")
def toy_text():
    vocab = build_vocab(["aa aa ab ba ba b a"] * 3, 32)
    cfg = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=16,
                            n_layers=1, n_heads=2, d_ff=32, max_len=32)
    from gazenlu.textenc import TextEncoder
    enc_model = TextEncoder(cfg, RngState(40, 0))
    enc = tokenize("aa ab ba", None, vocab, 32)
    with no_grad():
        _, cls, words = enc_model.forward_batch(collate([enc]))
    return vocab, cfg, enc, (cls, words)


def _scan(enc, rows, step_mask, words, cls, rngs=None):
    """``enc.run_steps`` over packed ``rows``, each step's row count read
    off ``step_mask``."""
    return enc.run_steps(np.count_nonzero(step_mask, axis=0), step_mask, rows,
                         words, cls, rngs)


def _read_steps(rows, step_mask, words, monkeypatch):
    """The inputs the scan GRU reads, step by step, for ``rows`` over
    ``words``: each step's word reads (``mix_rows_fwd``), recorded."""
    reads = []
    mix = augmentor.mix_rows_fwd
    monkeypatch.setattr(augmentor, "mix_rows_fwd",
                        lambda w, X: reads.append(mix(w, X)) or reads[-1])
    enc = ScanpathEncoder(words.shape[2], RngState(38, 0))
    cls = Tensor(np.zeros((words.shape[0], words.shape[2]), dtype=words.dtype))
    _scan(enc, rows, step_mask, words, cls)
    return reads


def test_soft_reorder_mixes_word_embeddings(monkeypatch):
    """Each step's position weights mix that row's own word vectors,
    across a padded batch of mixed width; a row that has stopped is not
    read, and the rows after it keep their own words."""
    r = RngState(39, 0)
    words = Tensor(r.substream("w").normal((3, 3, 4)).astype(np.float32))
    words.data[0, 2] = 0.0          # row 0 has two words; word 2 is padding
    weights = [np.array([[0.4, 0.6, 0.0], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]],
                        dtype=np.float32),
               np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.float32)]
    mask = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    got = _read_steps(Tensor(np.concatenate(weights)), mask, words, monkeypatch)
    assert len(got) == 2
    for t, (w, step) in enumerate(zip(weights, got)):
        live = mask[:, t] > 0
        manual = np.einsum("bw,bwd->bd", w, words.data[live])
        assert step.shape == (live.sum(), 4)
        assert np.abs(step - manual).max() < 1e-6


def test_fixation_step_is_one_graph_node():
    """The scan GRU is one ``scan`` node over all its steps, whose parents
    are the packed rows, the word vectors, [CLS] and the GRU's four
    weights; under ``no_grad`` it records nothing, and constant rows get
    no gradient computed."""
    enc = ScanpathEncoder(4, RngState(38, 0))
    g = enc.gru
    words = Tensor(np.ones((2, 3, 4), dtype=np.float32), requires_grad=True)
    rows = Tensor(np.eye(3, dtype=np.float32)[[0, 1, 1]], requires_grad=True)
    cls = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
    mask = np.array([[1.0, 0.0], [1.0, 1.0]])
    out = _scan(enc, rows, mask, words, cls)
    assert out._op == "scan"
    assert out._parents == (rows, words, cls, g.w_ih, g.w_hh, g.b_ih, g.b_hh)
    with no_grad():
        assert _scan(enc, rows, mask, words, cls)._op == "leaf"
    rows.requires_grad = False
    grads = _scan(enc, rows, mask, words, cls)._backward(np.ones((2, 4), np.float32))
    assert grads[0] is None and all(x is not None for x in grads[1:])


# -- scanpath encoder ----------------------------------------------------


def _full_rows(mask, W, seed):
    """One (B, W) row of position weights per step."""
    r = RngState(seed, 3)
    return [r.substream("w", t).uniform((mask.shape[0], W)).astype(np.float32)
            for t in range(mask.shape[1])]


def test_cls_initializes_state_directly_when_widths_match():
    """The scan GRU is as wide as the text encoder, so [CLS] is its
    initial state as is: a row with every step masked reads out [CLS]."""
    enc = ScanpathEncoder(8, RngState(41, 0))
    cls = Tensor(RngState(42, 0).normal((2, 8)).astype(np.float32))
    words = Tensor(np.ones((2, 1, 8), dtype=np.float32))
    rows = Tensor(np.ones((1, 1), dtype=np.float32))
    with no_grad():
        out = _scan(enc, rows, np.array([[0.0], [1.0]]), words, cls)
    assert np.array_equal(out.data[0], cls.data[0])
    assert not np.array_equal(out.data[1], cls.data[1])


def test_step_mask_freezes_finished_rows():
    enc = ScanpathEncoder(4, RngState(43, 0))
    enc.eval()
    r = RngState(44, 0)
    words = Tensor(r.substream("x").normal((1, 3, 4)).astype(np.float32))
    rows = Tensor(np.eye(3, dtype=np.float32))
    first = Tensor(rows.data[:1])
    cls = Tensor(r.substream("cls").normal((1, 4)).astype(np.float32))
    with no_grad():
        full = _scan(enc, rows, np.array([[1.0, 1.0, 1.0]]), words, cls)
        cut = _scan(enc, first, np.array([[1.0, 0.0, 0.0]]), words, cls)
        one = _scan(enc, first, np.array([[1.0]]), words, cls)
    assert np.array_equal(cut.data, one.data)
    assert not np.array_equal(full.data, one.data)


def _masked_per_step(enc, full, step_mask, words, cls, rngs=None):
    """Oracle: the scan GRU stepping every row at every step over the
    (B, W) rows ``full``, a finished row's state carried on by one masked
    update per step, ``new * m + old * (1 - m)`` for the step's 0/1 row
    flags ``m``. Dropout reads each row's words of ``scan_words``."""
    h = cls
    train = enc.training and rngs is not None
    if train:
        grid = scan_words(rngs, step_mask, cls.shape[1])
    for t, w in enumerate(full):
        x = mix_rows(w, words)
        if train:
            x = dropout(x, SCAN_DROPOUT, grid[:, t])
        m = step_mask[:, t].reshape(-1, 1).astype(cls.dtype)
        h = add(mul(gru(enc.gru, x, h), Tensor(m)), mul(h, Tensor(1.0 - m)))
    return h


def _per_op_run_steps(enc, steps, step_mask, words, cls, rngs=None):
    """Oracle: the scan GRU as it was before it became one node, over a
    list of per-step (n_t, W) rows. Per step a ``mix_rows``, a ``dropout``
    and a reference ``gru_cell`` node; ``take_rows`` gathers of the states
    and words wherever the working set shrinks; the finished rows' states
    put back in row order by a ``concat`` and a ``take_rows``."""
    lengths = step_mask.sum(axis=1)
    train = enc.training and rngs is not None
    if train:
        grid = scan_words(rngs, step_mask, cls.shape[1])
    ids = np.arange(cls.shape[0])
    h = cls
    parts = []
    for t, w in enumerate(steps):
        live = lengths[ids] > t
        if not live.all():
            parts.append((ids[~live], take_rows(h, np.flatnonzero(~live))))
            ids = ids[live]
            if not len(ids):
                break
            keep = np.flatnonzero(live)
            h, words = take_rows(h, keep), take_rows(words, keep)
        x = mix_rows(w, words)
        if train:
            x = dropout(x, SCAN_DROPOUT, grid[ids, t])
        h = gru(enc.gru, x, h)
    if len(ids):
        parts.append((ids, h))
    if len(parts) == 1:
        return parts[0][1]
    order = np.argsort(np.concatenate([i for i, _ in parts]))
    return take_rows(concat([state for _, state in parts], axis=0), order)


@st.composite
def _scan_cases(draw):
    """(lengths, T, W, d, dtype, one-hot rows, training, seed): ragged
    prefix masks, with rows of no steps and rows of every step among
    them, from one row up."""
    B = draw(st.integers(1, 6))
    T = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.sampled_from([0, T, *range(T + 1)]),
                            min_size=B, max_size=B))
    return (np.array(lengths), T, draw(st.integers(1, 5)), draw(st.sampled_from([16, 32])),
            draw(st.sampled_from([np.float32, np.float64])), draw(st.booleans()),
            draw(st.booleans()), draw(st.integers(0, 2**16)))


@given(case=_scan_cases())
@example(case=(np.array([0, 4, 2, 4]), 4, 3, 16, np.float32, True, True, 0))
@example(case=(np.array([3, 0, 1]), 3, 4, 32, np.float64, False, True, 1))
@example(case=(np.array([5]), 5, 2, 32, np.float32, False, False, 2))
@example(case=(np.array([2]), 2, 3, 16, np.float64, True, True, 3))
@settings(max_examples=60, deadline=None)
def test_scan_node_matches_the_per_op_reference(case):
    """The ``scan`` node against the per-op graph it replaced, one-hot and
    soft rows, in eval and in training with dropout: the forward is the
    same bytes with a graph and without, and every gradient (rows, words,
    [CLS] and the four GRU weights) agrees within 1e-6 (float32) or 1e-12
    (float64) times max(1, max|g|), max|g| over all the reference's
    gradients: the node sums each weight's per-step terms in one GEMM."""
    lengths, T, W, d, dtype, one_hot, training, seed = case
    B = len(lengths)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float32)
    r = RngState(seed, 4)
    enc = ScanpathEncoder(d, r.substream("enc"))
    for _, p in enc.named_parameters():
        p.data = p.data.astype(dtype)
    enc.train(training)
    N = int(mask.sum())
    if one_hot:
        packed = np.eye(W, dtype=dtype)[r.substream("at").integers(0, W, (N,))]
    else:
        packed = r.substream("w").uniform((N, W)).astype(dtype)
    rows = Tensor(packed, requires_grad=True)
    words = Tensor(r.substream("x").normal((B, W, d)).astype(dtype), requires_grad=True)
    cls = Tensor(r.substream("cls").normal((B, d)).astype(dtype), requires_grad=True)
    readout = Tensor(r.substream("readout").normal((B, d)).astype(dtype))
    drop = row_streams(r.substream("drop"), B) if training else None
    leaves = [rows, words, cls] + [p for _, p in enc.named_parameters()]

    def run(graph, reference):
        for p in leaves:
            p.grad = None
        with nullcontext() if graph else no_grad():
            if reference:
                out = _per_op_run_steps(enc, step_slices(rows, mask), mask, words, cls, drop)
            else:
                out = _scan(enc, rows, mask, words, cls, drop)
            if graph:
                backward(tsum(mul(out, readout)))
        return out.data, [p.grad for p in leaves]

    for graph in (False, True):
        got, got_grads = run(graph, False)
        want, want_grads = run(graph, True)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), graph
    scale = max(1.0, *(np.abs(w).max(initial=0.0) for w in want_grads if w is not None))
    tol = (1e-6 if dtype == np.float32 else 1e-12) * scale
    for g, w in zip(got_grads, want_grads):
        if w is None:
            assert g is None or not g.any()
        else:
            assert g is not None and g.dtype == dtype and np.abs(g - w).max() <= tol


@st.composite
def _prefix_batches(draw):
    """(step mask, seed): B rows of prefix masks over T steps, with rows
    of no steps and rows of every step among them."""
    B = draw(st.integers(1, 6))
    T = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.sampled_from([0, T, *range(T + 1)]),
                            min_size=B, max_size=B))
    mask = (np.arange(T)[None, :] < np.array(lengths)[:, None]).astype(np.float32)
    return mask, draw(st.integers(0, 2**16))


@given(batch=_prefix_batches(), training=st.booleans())
# gradients up to 6.5, which differ by 1.43e-6 in float32 and 8.9e-16 in
# float64: the node sums each weight's per-step terms in one GEMM
@example(batch=((np.arange(6) < np.array([[0], [6], [5], [5], [0], [0]])).astype(np.float32),
                6), training=False)
@settings(max_examples=60, deadline=None)
def test_run_steps_matches_masked_update_per_step(batch, training):
    """Stepping only the rows still reading changes nothing: against the
    per-step masked update over every row, the forward is bit-equal
    without a graph and within 1e-6 with one, and every gradient within
    1e-6 times the largest reference gradient, or 1e-6 below 1 (eval,
    and training with dropout). d=16 makes the GRU's products 48
    columns wide, a width at which OpenBLAS's GEMM rounds a row the same
    whatever the number of rows; at some widths (d=38, say) it does not,
    and the forward then agrees only within 1e-6."""
    mask, seed = batch
    B, T = mask.shape
    d, W = 16, 3
    r = RngState(seed, 1)
    enc = ScanpathEncoder(d, r.substream("enc"))
    enc.train(training)
    full = [Tensor(f, requires_grad=True) for f in _full_rows(mask, W, seed)]
    packed = concat([take_rows(f, np.flatnonzero(mask[:, t])) for t, f in enumerate(full)])
    words = Tensor(r.substream("x").normal((B, W, d)).astype(np.float32),
                   requires_grad=True)
    cls = Tensor(r.substream("cls").normal((B, d)).astype(np.float32),
                 requires_grad=True)
    readout = Tensor(r.substream("readout").normal((B, d)).astype(np.float32))
    drop = row_streams(r.substream("drop"), B) if training else None
    leaves = full + [words, cls] + [p for _, p in enc.named_parameters()]

    def run(fn, graph, rows):
        for p in leaves:
            p.grad = None
        with nullcontext() if graph else no_grad():
            out = fn(enc, rows, mask, words, cls, drop)
            if graph:
                backward(tsum(mul(out, readout)))
        return out.data, [p.grad for p in leaves]

    got, _ = run(_scan, False, packed)
    want, _ = run(_masked_per_step, False, full)
    assert np.array_equal(got, want)
    got, got_grads = run(_scan, True, packed)
    want, want_grads = run(_masked_per_step, True, full)
    assert np.abs(got - want).max(initial=0.0) <= 1e-6
    scale = max(1.0, *(np.abs(w).max(initial=0.0) for w in want_grads if w is not None))
    for g, w in zip(got_grads, want_grads):
        if w is None or not w.any():
            assert g is None or not g.any()
        else:
            assert np.abs(g - w).max() <= 1e-6 * scale


def test_run_steps_rejects_a_mask_that_is_not_a_prefix():
    enc = ScanpathEncoder(4, RngState(47, 0))
    with pytest.raises(ValueError, match="prefix"):
        enc.run_steps([0, 1], np.array([[0.0, 1.0]]),
                      Tensor(np.ones((1, 1), dtype=np.float32)),
                      Tensor(np.ones((1, 1, 4), dtype=np.float32)),
                      Tensor(np.zeros((1, 4), dtype=np.float32)))


@pytest.mark.parametrize("rows", [(1, 1), (3, 1), (2, 2), (2, 0)])
def test_run_steps_rejects_a_step_unlike_its_mask(rows):
    """A step must hold one row for each row its mask column marks."""
    enc = ScanpathEncoder(4, RngState(47, 1))
    packed = Tensor(np.ones((sum(rows), 3), dtype=np.float32))
    mask = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=r"step \d has \d rows for the \d rows"):
        enc.run_steps(rows, mask, packed, Tensor(np.ones((2, 3, 4), dtype=np.float32)),
                      Tensor(np.zeros((2, 4), dtype=np.float32)))


def test_encoder_is_order_sensitive(toy_text):
    _, cfg, enc, (cls, words) = toy_text
    sc = ScanpathEncoder(cfg.d_model, RngState(45, 0))
    sc.eval()
    eye = np.eye(words.shape[1], dtype=np.float32)

    def feature(order):
        return _scan(sc, Tensor(eye[order]), np.ones((1, len(order))), words, cls)

    with no_grad():
        f_ab, f_ba = feature([0, 1]), feature([1, 0])
    assert not np.allclose(f_ab.data, f_ba.data)


def test_empty_sequence_rejected():
    sc = ScanpathEncoder(4, RngState(46, 0))
    with pytest.raises(ValueError, match="at least one step"):
        sc.run_steps([], np.zeros((1, 0)), Tensor(np.zeros((0, 1), dtype=np.float32)),
                     Tensor(np.zeros((1, 1, 4), dtype=np.float32)),
                     Tensor(np.zeros((1, 4), dtype=np.float32)))


# -- joint model ---------------------------------------------------------


def _tiny_cfg(vocab, **kw):
    text = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=16,
                             n_layers=1, n_heads=2, d_ff=32, max_len=32)
    return ModelConfig(text=text, gen_hidden=16, l_max=8, **kw)


@pytest.fixture(scope="module")
def joint_setup():
    vocab = build_vocab(["aa aa ab ba ba b a"] * 3, 32)
    cfg = _tiny_cfg(vocab)
    model = JointModel(cfg, RngState(50, 0))
    encs = [tokenize("aa ab", None, vocab, 32),
            tokenize("ab ba aa", None, vocab, 32)]
    batch = collate(encs)
    return vocab, cfg, model, batch


def test_text_only_model_has_no_generator():
    vocab = build_vocab(["aa aa ab"], 16)
    model = JointModel(_tiny_cfg(vocab, model_kind=TEXT_ONLY), RngState(51, 0))
    assert getattr(model, "generator", None) is None
    assert model.generator_prefixes() == ()
    assert model.generator_state() == {}


def test_unknown_model_kind_rejected():
    vocab = build_vocab(["aa aa ab"], 16)
    with pytest.raises(ValueError):
        JointModel(_tiny_cfg(vocab, model_kind="fancy"), RngState(52, 0))


def test_generator_unit_covers_generator_and_its_encoder(joint_setup):
    _, _, model, _ = joint_setup
    assert model.generator_prefixes() == ("generator.", "gen_encoder.")
    state = model.generator_state()
    assert any(k.startswith("generator.") for k in state)
    assert any(k.startswith("gen_encoder.") for k in state)
    assert not any(k.startswith("cls_encoder.") for k in state)


def test_generator_state_round_trip(joint_setup):
    _, _, model, _ = joint_setup
    state = model.generator_state()
    target = dict(model.named_parameters())["generator.head.w"]
    saved = target.data.copy()
    target.data = target.data + 1.0
    model.load_generator_state(state)
    assert np.array_equal(target.data, saved)


def test_generator_state_key_and_shape_mismatch(joint_setup):
    _, _, model, _ = joint_setup
    state = model.generator_state()
    bad = dict(state)
    bad.pop("generator.head.w")
    with pytest.raises(KeyError):
        model.load_generator_state(bad)
    bad = dict(state)
    bad["generator.head.w"] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        model.load_generator_state(bad)


def test_freeze_flips_only_generator_params(joint_setup):
    _, _, model, _ = joint_setup
    try:
        model.freeze_generator(True)
        for name, p in model.named_parameters():
            inside = name.startswith(("generator.", "gen_encoder."))
            assert p.requires_grad == (not inside)
    finally:
        model.freeze_generator(False)
    assert all(p.requires_grad for _, p in model.named_parameters())


def test_joint_loss_backward_reaches_both_encoders(joint_setup):
    _, _, model, batch = joint_setup
    model.train()
    labels = np.array([0, 1])
    pair_rngs = [RngState(54, 0).substream("g", i) for i in range(batch.size)]
    loss = model.loss_pairs(batch, labels, pair_rngs, row_streams(RngState(55, 0), 2))
    assert np.isfinite(loss.data)
    loss.backward()
    params = dict(model.named_parameters())
    assert params["cls_encoder.tok.w"].grad is not None
    assert params["gen_encoder.tok.w"].grad is not None
    assert params["generator.head.w"].grad is not None
    assert params["head.lin.w"].grad is not None
    model.zero_grad()
    model.eval()


def _graph_dtypes(loss) -> set:
    """Dtypes of every node reachable from ``loss``, constants included."""
    seen, dtypes, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            dtypes.add(node.data.dtype)
            stack.extend(node._parents)
    return dtypes


def test_training_graphs_and_predictions_stay_float32():
    """No constant promotes a float32 model to float64: every node of a
    training graph, every parameter gradient and the prediction output
    are float32, in both relaxations and in teacher-forced pretraining."""
    vocab = build_vocab(["aa aa ab ba ba b a"] * 3, 32)
    batch = collate([tokenize("aa ab", None, vocab, 32),
                     tokenize("ab ba aa b", None, vocab, 32)])
    rngs = [RngState(60, 0).substream("g", i) for i in range(batch.size)]
    for mode in ("straight_through", "soft_convolution"):
        model = JointModel(_tiny_cfg(vocab, gumbel=GumbelConfig(mode=mode)),
                           RngState(60, 1))
        loss = model.loss_pairs(batch, np.array([0, 1]), rngs,
                                row_streams(RngState(60, 2), 2))
        assert _graph_dtypes(loss) == {np.dtype(np.float32)}, mode
        loss.backward()
        grads = {n: p.grad.dtype for n, p in model.named_parameters()}
        assert set(grads.values()) == {np.dtype(np.float32)}, (mode, grads)
        out = model.predict_batch(batch, ["s0", "s1"], 2, RngState(60, 3))
        assert out.dtype == np.float32, mode
    gaze = GazeModel(_tiny_cfg(vocab).text, gen_hidden=16, l_max=8, seed=60)
    loss, _ = gaze.batch_nll(batch, [[0, 1], [1, 3, 2]], row_streams(RngState(60, 4), 2))
    assert _graph_dtypes(loss) == {np.dtype(np.float32)}
    loss.backward()
    assert {p.grad.dtype for p in gaze.parameters()} == {np.dtype(np.float32)}


def test_text_only_loss_ignores_scanpaths():
    vocab = build_vocab(["aa aa ab ba ba"], 16)
    model = JointModel(_tiny_cfg(vocab, model_kind=TEXT_ONLY), RngState(56, 0))
    model.train()
    encs = [tokenize("aa ab", None, vocab, 32)]
    loss = model.loss_pairs(collate(encs), np.array([1]), [],
                            row_streams(RngState(57, 0), 1))
    assert np.isfinite(loss.data)
    loss.backward()
    assert dict(model.named_parameters())["cls_encoder.tok.w"].grad is not None


def _looped_content_steps(encs):
    """The baseline's steps as a loop over every word's tokens, reading
    the word spans from the encoded texts: step r holds a one-hot row over
    the token positions for each row with more than r content tokens, and
    the steps are packed one after another."""
    def steps(self, batch, dtype):
        B, _, T = batch.pool.shape
        W = batch.pool.shape[1]
        starts = np.zeros((B, W), dtype=np.int64)
        ends = np.ones((B, W), dtype=np.int64)
        for b, e in enumerate(encs):
            for w, (s, t) in enumerate(e.word_spans):
                starts[b, w], ends[b, w] = s, t
        lengths = ends - starts
        lengths[batch.pool.sum(axis=2) == 0] = 0
        L = int(lengths.sum(axis=1).max(initial=1))
        scat = np.zeros((B, L, T), dtype=np.float32)
        mask = np.zeros((B, L), dtype=np.float32)
        for b in range(B):
            r = 0
            for w in range(batch.word_counts[b]):
                for t in range(starts[b, w], ends[b, w]):
                    scat[b, r, t] = 1.0
                    mask[b, r] = 1.0
                    r += 1
        packed = np.concatenate([scat[mask[:, r] > 0, r] for r in range(L)])
        return Tensor(packed.astype(dtype)), mask
    return steps


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_text_only_steps_match_the_per_token_loop(pair, monkeypatch):
    """Loss, gradients and predictions of the baseline on a padded batch
    equal, bit for bit, those from steps built by a per-token loop."""
    vocab = build_vocab(["aa aa ab ba ba b a abba"] * 3, 32)
    model = JointModel(_tiny_cfg(vocab, model_kind=TEXT_ONLY), RngState(61, 0))
    texts = [("aa ab", "ba b a abba"), ("abba ba aa b a", "aa"), ("b", "ab ba")]
    encs = [tokenize(t1, t2 if pair else None, vocab, 32) for t1, t2 in texts]
    batch = collate(encs)
    assert (batch.attention_mask == 0).any()

    def run():
        model.train()
        model.zero_grad()
        loss = model.loss_pairs(batch, np.array([0, 1, 1]), [],
                                row_streams(RngState(62, 0), 3))
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        out = model.predict_batch(batch, ["a", "b", "c"], 1, RngState(63, 0))
        return [loss.data, out] + grads

    vectorised = run()
    monkeypatch.setattr(JointModel, "_content_steps", _looped_content_steps(encs))
    looped = run()
    for a, b in zip(vectorised, looped):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# -- dropout streams -------------------------------------------------------

_DROP_VOCAB = build_vocab(["aa ab ba b a abba bb", "ab aa a b"] * 3, 32)
_DROP_WORDS = ["a", "aa", "ab", "ba", "b", "abba", "bb"]


def _drop_models():
    """A gaze model whose generator head is zero, so every logit is 0 and
    a row's sampled path is its Gumbel noise's alone, whatever its batch;
    and a pretraining model. Two encoder layers, so five sites each."""
    text = TextEncoderConfig(vocab_size=len(_DROP_VOCAB.token_to_id), d_model=16,
                             n_layers=2, n_heads=2, d_ff=32, max_len=32)
    joint = JointModel(ModelConfig(text=text, gen_hidden=16, l_max=8), RngState(64, 0))
    joint.generator.head.w.data[...] = 0
    joint.generator.head.b.data[...] = 0
    return joint, GazeModel(text, gen_hidden=16, l_max=8, seed=64)


_JOINT, _GAZE = _drop_models()


def _recorded_masks(fn):
    """Runs ``fn()`` and returns the dropout words it used: each text
    encoder site's (N, d) words in call order, and the scan GRU's (cells,
    d) words with its step mask, or None when there is no scan."""
    sites, scans = [], []
    saved = (textenc.dropout, augmentor.dropout_keep, ScanpathEncoder.run_steps)

    def site(x, p, words):
        sites.append(words.copy())
        return saved[0](x, p, words)

    def keep(words, p, dtype):
        scans[-1].append(words.copy())
        return saved[1](words, p, dtype)

    def run_steps(self, steps, step_mask, *args):
        scans.append([step_mask])
        return saved[2](self, steps, step_mask, *args)

    textenc.dropout, augmentor.dropout_keep, ScanpathEncoder.run_steps = site, keep, run_steps
    try:
        fn()
    finally:
        textenc.dropout, augmentor.dropout_keep, ScanpathEncoder.run_steps = saved
    return sites, (scans[0] if scans else None)


def _row_masks(recorded, batch, b):
    """Row ``b``'s share of the recorded words: its tokens' rows at each
    encoder site, then its cells' rows of the scan, in step order."""
    sites, scan = recorded
    n = batch.attention_mask.sum(axis=1).astype(int)
    at = int(n[:b].sum())
    out = [w[at:at + n[b]] for w in sites]
    if scan is not None:
        step_mask, words = scan
        _, cell_b = np.nonzero(step_mask.T)
        out.append(words[cell_b == b])
    return out


@st.composite
def _drop_rows(draw):
    """(texts, paths, order, seed): 1-5 rows of one or two texts of 1-4
    words, a word of one piece among them, each with a teacher path over
    its first text's words, and a shuffled order of the rows."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        first = draw(st.lists(st.sampled_from(_DROP_WORDS), min_size=1, max_size=4))
        second = draw(st.one_of(st.none(), st.lists(st.sampled_from(_DROP_WORDS),
                                                     min_size=1, max_size=3)))
        path = draw(st.lists(st.integers(0, len(first) - 1), min_size=1, max_size=6))
        rows.append((" ".join(first), second and " ".join(second), path))
    order = draw(st.permutations(range(len(rows))))
    return rows, order, draw(st.integers(0, 2**16))


@given(case=_drop_rows(), kind=st.sampled_from(["loss_pairs", "batch_nll"]))
@example(case=([("a", None, [0])], [0], 0), kind="loss_pairs")
@example(case=([("a", None, [0, 0]), ("abba bb", "a", [1])], [1, 0], 1), kind="batch_nll")
@settings(max_examples=40, deadline=None)
def test_a_rows_dropout_masks_do_not_depend_on_its_batch(case, kind):
    """The masks a row gets, at both text encoders' sites and in the scan
    GRU for ``loss_pairs``, at the generator encoder's for ``batch_nll``,
    are bit-identical when the row is alone, inside its batch and inside
    the shuffled batch: each row draws from its own stream, for its real
    tokens and its live cells only."""
    rows, order, seed = case
    pair = kind == "loss_pairs"
    encs = [tokenize(t1, t2 if pair else None, _DROP_VOCAB, 32) for t1, t2, _ in rows]
    pair_rngs = row_streams(RngState(seed, 1), len(rows))
    drop_rngs = row_streams(RngState(seed, 2), len(rows))

    def masks(idx):
        batch = collate([encs[i] for i in idx])
        if pair:
            def fn():
                _JOINT.loss_pairs(batch, np.zeros(len(idx), dtype=np.int64),
                                  [pair_rngs[i] for i in idx], [drop_rngs[i] for i in idx])
        else:
            def fn():
                _GAZE.batch_nll(batch, [rows[i][2] for i in idx], [drop_rngs[i] for i in idx])
        recorded = _recorded_masks(fn)
        assert len(recorded[0]) == (10 if pair else 5)
        assert (recorded[1] is not None) == pair
        return [_row_masks(recorded, batch, b) for b in range(len(idx))]

    _JOINT.train()
    _GAZE.train()
    inside = masks(range(len(rows)))
    shuffled = masks(order)
    for i in range(len(rows)):
        alone = masks([i])[0]
        for got in (inside[i], shuffled[order.index(i)]):
            assert len(got) == len(alone)
            for a, b in zip(got, alone):
                assert a.dtype == b.dtype == np.uint32 and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def test_predict_deterministic_under_same_stream(joint_setup):
    _, _, model, batch = joint_setup
    ids = ["s0", "s1"]
    out1 = model.predict_batch(batch, ids, 3, RngState(58, 0).substream("eval"))
    out2 = model.predict_batch(batch, ids, 3, RngState(58, 0).substream("eval"))
    assert np.array_equal(out1, out2)
    assert out1.shape == (2, 2)


def test_single_prediction_matches_batch_row(joint_setup):
    """A sentence predicted alone matches its row of a padded batch."""
    vocab, _, model, batch = joint_setup
    rows = model.predict_batch(batch, ["s0", "s1"], 2,
                               RngState(59, 0).substream("eval"))
    alone = collate([tokenize("aa ab", None, vocab, 32)])
    single = model.predict_batch(alone, ["s0"], 2,
                                 RngState(59, 0).substream("eval"))[0]
    assert np.allclose(single, rows[0], atol=1e-5), (single, rows[0])


def test_predict_requires_positive_path_count(joint_setup):
    _, _, model, batch = joint_setup
    with pytest.raises(ValueError):
        model.predict_batch(batch, ["a", "b"], 0, RngState(60, 0))


def test_predict_leaves_parameters_untouched(joint_setup):
    _, _, model, batch = joint_setup
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    was_training = model.training
    model.predict_batch(batch, ["s0", "s1"], 2, RngState(61, 0))
    assert model.training == was_training
    for n, p in model.named_parameters():
        assert np.array_equal(before[n], p.data), n


def test_hard_eval_prediction_deterministic(joint_setup):
    vocab, _, _, batch = joint_setup
    cfg = _tiny_cfg(vocab, gumbel=GumbelConfig(hard_eval=True))
    model = JointModel(cfg, RngState(62, 0))
    out1 = model.predict_batch(batch, ["s0", "s1"], 2, RngState(63, 0))
    out2 = model.predict_batch(batch, ["s0", "s1"], 2, RngState(63, 0))
    assert np.array_equal(out1, out2)


def test_hard_eval_ignores_training_relaxation(joint_setup):
    """hard_eval samples hard Gumbel-max paths whatever the training
    relaxation: a soft-convolution model predicts like its
    straight-through twin."""
    vocab, _, _, batch = joint_setup
    outs = []
    for mode in ("straight_through", "soft_convolution"):
        cfg = _tiny_cfg(vocab, gumbel=GumbelConfig(mode=mode, hard_eval=True))
        model = JointModel(cfg, RngState(62, 0))
        outs.append(model.predict_batch(batch, ["s0", "s1"], 2, RngState(63, 0)))
    assert np.array_equal(outs[0], outs[1])


def _per_path_predict(model, batch, ids, n_paths, rng):
    """Oracle: one sampler call and one scanpath-GRU pass per path, with
    path p of sentence b drawing from ``rng.substream(ids[b], p)``."""
    gumbel = model.cfg.gumbel
    if gumbel.hard_eval:
        gumbel = GumbelConfig(gumbel.temperature)
    counts = batch.word_counts
    caps = [default_max_fixations(int(c)) for c in counts]
    was_training = model.training
    model.eval()
    with no_grad():
        _, cls, words = model.cls_encoder.forward_batch(batch)
        _, _, gen_words = model.gen_encoder.forward_batch(batch)
        ws = model.generator.encode_words_batch(gen_words, counts)
        outs = []
        for p in range(n_paths):
            sampled = model.generator.sample_gumbel_batch(
                ws, counts, [rng.substream(sid, p) for sid in ids], gumbel, caps)
            feature = _scan(model.scan, sampled.rows, sampled.row_mask, words, cls)
            outs.append(model.head(feature).data)
    model.train(was_training)
    return average_logits(outs)


@pytest.mark.parametrize("gumbel", [GumbelConfig(), GumbelConfig(mode="soft_convolution"),
                                    GumbelConfig(mode="soft_convolution", hard_eval=True)],
                         ids=["straight_through", "soft_convolution", "hard_eval"])
def test_one_pass_prediction_matches_per_path_oracle(joint_setup, gumbel):
    """All paths of a padded batch of mixed widths, sampled and read in
    one pass, average to what one pass per path gives."""
    vocab = joint_setup[0]
    model = JointModel(_tiny_cfg(vocab, gumbel=gumbel), RngState(65, 0))
    texts = ["aa ab ba b", "ba", "ab ba aa b a ab", "a b"]
    batch = collate([tokenize(t, None, vocab, 32) for t in texts])
    ids = ["s0", "s1", "s2", "s3"]
    for n in (1, 2, 3, 4):
        rng = RngState(66, 0).substream("eval", n)
        got = model.predict_batch(batch, ids, n, rng)
        want = _per_path_predict(model, batch, ids, n, rng)
        assert got.shape == want.shape == (4, 2)
        assert np.abs(got - want).max() <= 1e-6, n


def test_prediction_depends_on_path_count(joint_setup):
    _, _, model, batch = joint_setup
    one = model.predict_batch(batch, ["s0", "s1"], 1, RngState(64, 0))
    five = model.predict_batch(batch, ["s0", "s1"], 5, RngState(64, 0))
    assert not np.array_equal(one, five)
