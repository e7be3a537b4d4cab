"""Fixation-ordered classifier: reordering, pooling glue, joint model."""

import numpy as np
import pytest

from gazenlu.augmentor import (CLASSIFICATION, GAZE, JointModel, ModelConfig,
                               ScanpathEncoder, TEXT_ONLY, average_logits,
                               fixation_steps)
from gazenlu.diffcore import RngState, Tensor, matmul, no_grad
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


def test_soft_reorder_mixes_word_embeddings():
    """Each step's position weights mix that row's own word vectors,
    across a padded batch of mixed width."""
    r = RngState(39, 0)
    words = Tensor(r.substream("w").normal((2, 3, 4)).astype(np.float32))
    words.data[0, 2] = 0.0          # row 0 has two words; word 2 is padding
    weights = [np.array([[0.4, 0.6, 0.0], [0.2, 0.5, 0.3]], dtype=np.float32),
               np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.float32)]
    steps = fixation_steps([Tensor(w) for w in weights], words)
    for w, step in zip(weights, steps):
        manual = np.einsum("bw,bwd->bd", w, words.data)
        assert step.shape == (2, 4)
        assert np.abs(step.data - manual).max() < 1e-6


# -- scanpath encoder ----------------------------------------------------


def test_cls_initializes_state_directly_when_widths_match():
    """The scan GRU is as wide as the text encoder, so [CLS] is its
    initial state as is: a row with every step masked reads out [CLS]."""
    enc = ScanpathEncoder(8, RngState(41, 0))
    cls = Tensor(RngState(42, 0).normal((2, 8)).astype(np.float32))
    steps = [Tensor(np.ones((2, 8), dtype=np.float32))]
    with no_grad():
        out = enc.run_steps(steps, np.array([[0.0], [1.0]]), cls)
    assert np.array_equal(out.data[0], cls.data[0])
    assert not np.array_equal(out.data[1], cls.data[1])


def test_step_mask_freezes_finished_rows():
    enc = ScanpathEncoder(4, RngState(43, 0))
    enc.eval()
    r = RngState(44, 0)
    steps = [Tensor(r.substream("x", t).normal((1, 4)).astype(np.float32))
             for t in range(3)]
    cls = Tensor(r.substream("cls").normal((1, 4)).astype(np.float32))
    with no_grad():
        full = enc.run_steps(steps, np.array([[1.0, 1.0, 1.0]]), cls)
        cut = enc.run_steps(steps, np.array([[1.0, 0.0, 0.0]]), cls)
        one = enc.run_steps(steps[:1], np.array([[1.0]]), cls)
    assert np.array_equal(cut.data, one.data)
    assert not np.array_equal(full.data, one.data)


def test_encoder_is_order_sensitive(toy_text):
    _, cfg, enc, (cls, words) = toy_text
    sc = ScanpathEncoder(cfg.d_model, RngState(45, 0))
    sc.eval()

    def feature(order):
        steps = [words[:, f, :] for f in order]
        return sc.run_steps(steps, np.ones((1, len(order))), cls)

    with no_grad():
        f_ab, f_ba = feature([0, 1]), feature([1, 0])
    assert not np.allclose(f_ab.data, f_ba.data)


def test_empty_sequence_rejected():
    sc = ScanpathEncoder(4, RngState(46, 0))
    with pytest.raises(ValueError):
        sc.run_steps([], np.zeros((1, 0)), Tensor(np.zeros((1, 4), dtype=np.float32)))


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
    loss = model.loss_pairs(batch, labels, pair_rngs, RngState(55, 0))
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
        loss = model.loss_pairs(batch, np.array([0, 1]), rngs, RngState(60, 2))
        assert _graph_dtypes(loss) == {np.dtype(np.float32)}, mode
        loss.backward()
        grads = {n: p.grad.dtype for n, p in model.named_parameters()}
        assert set(grads.values()) == {np.dtype(np.float32)}, (mode, grads)
        out = model.predict_batch(batch, ["s0", "s1"], 2, RngState(60, 3))
        assert out.dtype == np.float32, mode
    gaze = GazeModel(_tiny_cfg(vocab).text, gen_hidden=16, l_max=8, seed=60)
    loss, _ = gaze.batch_nll(batch, [[0, 1], [1, 3, 2]], RngState(60, 4))
    assert _graph_dtypes(loss) == {np.dtype(np.float32)}
    loss.backward()
    assert {p.grad.dtype for p in gaze.parameters()} == {np.dtype(np.float32)}


def test_text_only_loss_ignores_scanpaths():
    vocab = build_vocab(["aa aa ab ba ba"], 16)
    model = JointModel(_tiny_cfg(vocab, model_kind=TEXT_ONLY), RngState(56, 0))
    model.train()
    encs = [tokenize("aa ab", None, vocab, 32)]
    loss = model.loss_pairs(collate(encs), np.array([1]), [], RngState(57, 0))
    assert np.isfinite(loss.data)
    loss.backward()
    assert dict(model.named_parameters())["cls_encoder.tok.w"].grad is not None


def _looped_content_steps(encs):
    """The baseline's steps as a loop over every word's tokens, reading
    the word spans from the encoded texts."""
    def steps(self, batch, tokens):
        B, T, _ = tokens.shape
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
        content = matmul(Tensor(scat.astype(tokens.dtype)), tokens)
        return [content[:, t, :] for t in range(L)], mask
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
        loss = model.loss_pairs(batch, np.array([0, 1, 1]), [], RngState(62, 0))
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        out = model.predict_batch(batch, ["a", "b", "c"], 1, RngState(63, 0))
        return [loss.data, out] + grads

    vectorised = run()
    monkeypatch.setattr(JointModel, "_content_steps", _looped_content_steps(encs))
    looped = run()
    for a, b in zip(vectorised, looped):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
            feature = model.scan.run_steps(fixation_steps(sampled.rows, words),
                                           sampled.row_mask, cls)
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
