"""Acceptance gate: ten verifiable claims, one pass/fail line each.

Each test computes its expected values from an independent oracle (closed
forms, brute-force counting, scipy, or replayed dynamics) and records the
outcome for the terminal summary printed by conftest.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest
import scipy.stats

from conftest import history_step_graph, record_acceptance

from gazenlu import augmentor
from gazenlu.augmentor import (JointModel, ModelConfig, ScanpathEncoder,
                               average_logits)
from gazenlu.cli import main as cli_main
from gazenlu.corpus import (MarkovGazeModel, kfold, low_resource_split,
                            make_synthetic_suite)
from gazenlu.diffcore import (RngState, Tensor, add, checkpoint_hash,
                              grad_check, gumbel_of, matmul, mul, no_grad,
                              reshape, save_checkpoint, softmax,
                              standard_op_checks, tsum)
from gazenlu.evalkit import (Experiment, metric, run_crossval, run_lowresource,
                             sweep_scanpaths)
from gazenlu.gazegen import (SOFT_CONVOLUTION, GeneratorConfig, GumbelConfig,
                             ScanpathGenerator)
from gazenlu.textenc import TextEncoderConfig, build_vocab, collate
from gazenlu.trainkit import (GazeModel, TrainConfig, accuracy_from_logits,
                              encode_instances, pretrain_generator,
                              train_joint)

pytestmark = pytest.mark.acceptance

# -- shared task suite for criteria 5 and 7 -------------------------------


@pytest.fixture(scope="module")
def big_kw():
    suite = make_synthetic_suite(777, n_gaze_train=40, n_gaze_dev=10,
                                 n_keyword=(2000, 500, 500),
                                 n_pairs=(10, 10, 10))
    vocab = build_vocab(suite.vocab_lines(), 512)
    text_cfg = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=32,
                                 n_layers=1, n_heads=4, d_ff=128, max_len=64)
    return suite, vocab, text_cfg


# -- criterion 1 ----------------------------------------------------------


def _reseed_op_inputs(name, params, seed):
    srng = RngState(1000 + seed, 0)
    for pname, p in params.items():
        fresh = srng.substream(name, pname).normal(p.data.shape)
        if name == "relu":
            # keep inputs away from the kink, where central differences
            # straddle the nondifferentiable point
            fresh = np.where(np.abs(fresh) < 0.01, fresh + 0.5, fresh)
        if name == "layer_norm" and pname == "gamma":
            fresh = 1.0 + 0.1 * fresh
        p.data = np.ascontiguousarray(fresh)


def _surrogate_build_parts(seed):
    gen = ScanpathGenerator(GeneratorConfig(d_word=3, d_hidden=4, l_max=4),
                            RngState(5000 + seed, 1))
    for _, p in gen.named_parameters():
        p.data = p.data.astype(np.float64)
    W = 3
    emb = Tensor(RngState(5000 + seed, 2).normal((1, W, 3)),
                 requires_grad=True)
    counts = np.array([W])
    rrng = RngState(5000 + seed, 3)
    readouts = [rrng.substream("r", t).normal((1, W)) for t in range(3)]
    base_w = rrng.substream("base").normal((1, W, 4))

    def build():
        ws = gen.encode_words_batch(emb, counts)
        sb = gen.sample_gumbel_batch(
            ws, counts, [RngState(5000 + seed, 4).substream("g")],
            GumbelConfig(temperature=1.0), 3, surrogate=True,
        )
        n = sb.rows.shape[0]            # one row per step
        return add(tsum(mul(ws, Tensor(base_w))),
                   tsum(mul(sb.rows, Tensor(np.concatenate(readouts[:n])))))

    params = {"emb": emb}
    params.update(dict(gen.named_parameters()))
    return build, params


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    n_seeds = 100
    worst_op, worst_e2e, n_refined = 0.0, 0.0, 0
    failures = []
    for seed in range(n_seeds):
        for name, build, params in standard_op_checks(np.float64):
            _reseed_op_inputs(name, params, seed)
            rep = grad_check(build, params, h=1e-5, tol=1e-5)
            worst_op = max(worst_op, rep.max_rel_err)
            if not rep.ok:
                failures.append(f"seed {seed} op {name}: {rep.failures[0]}")

        build, params = _surrogate_build_parts(seed)
        rep = grad_check(build, params, h=1e-5, tol=1e-3, sample=2,
                         rng=RngState(seed, 9))
        if not rep.ok:
            # a hard argmax within h of flipping invalidates the central
            # difference; a smaller step restores validity, while a real
            # gradient defect fails at every step size
            n_refined += 1
            rep = grad_check(build, params, h=1e-6, tol=1e-3, sample=2,
                             rng=RngState(seed, 9))
        worst_e2e = max(worst_e2e, rep.max_rel_err)
        if not rep.ok:
            failures.append(f"seed {seed} surrogate: {rep.failures[0]}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    detail = (f"{n_seeds} seeds; per-op max rel err {worst_op:.2e} (tol 1e-5), "
              f"end-to-end max {worst_e2e:.2e} (tol 1e-3), "
              f"{n_refined} step refinements, {elapsed:.1f}s (< 120s)")
    if failures:
        detail += f"; first failure: {failures[0]}"
    record_acceptance(1, "gradient suite", ok, detail)
    assert ok, detail


# -- criterion 2 ----------------------------------------------------------


def test_criterion_02_gumbel_max_fidelity():
    t0 = time.perf_counter()
    n = 100_000
    logits = np.array([2.0, 0.0, -1.0])
    exact = np.exp(logits - logits.max())
    exact /= exact.sum()
    published = np.array([0.8438, 0.1142, 0.0420])

    rng = RngState(20240, 0).substream("gumbel-fidelity")
    with no_grad():
        g = gumbel_of(rng.uniform((n, 3)))
        z = mul(add(Tensor(np.broadcast_to(logits, (n, 3)).copy()), Tensor(g)),
                1.0 / 0.7)  # temperature cannot move the argmax
        y = softmax(z, mask=np.zeros((n, 3), dtype=np.float32))
        hard = y.data.argmax(axis=1)
    freq = np.bincount(hard, minlength=3) / n
    max_dev = float(np.abs(freq - published).max())
    max_dev_exact = float(np.abs(freq - exact).max())
    chi2 = float((n * (freq - exact) ** 2 / exact).sum())
    crit = float(scipy.stats.chi2.ppf(0.99, df=2))
    elapsed = time.perf_counter() - t0
    ok = (max_dev <= 0.005 and max_dev_exact <= 0.005 and chi2 < crit
          and elapsed < 30.0)
    detail = (f"freq {np.round(freq, 4).tolist()} vs softmax "
              f"{np.round(exact, 4).tolist()}; max dev {max_dev:.4f} "
              f"(<= 0.005), chi2 {chi2:.2f} < {crit:.2f}, {elapsed:.1f}s")
    record_acceptance(2, "gumbel-max fidelity", ok, detail)
    assert ok, detail


# -- criterion 3 ----------------------------------------------------------


def _mixed_width_fixture(k, rng):
    """Two sentences of different widths in one padded batch of word
    vectors, and a random fixation path for each."""
    r = rng.substream("fix", k)
    widths = [2 + k % 11, 1 + int(r.substream("w2").integers(0, 12, ()))]
    W = max(widths)
    d = 4 + (k % 5) * 3
    words = r.substream("wd").normal((2, W, d))
    paths = []
    for b, n in enumerate(widths):
        words[b, n:] = 0.0
        L = 1 + int(r.substream("L", b).integers(0, 2 * n, ()))
        paths.append([int(f) for f in r.substream("path", b).integers(0, n, (L,))])
    return Tensor(words), widths, paths


def _delta_walk_oracle(gen, word_states, W, rng, max_fix):
    """Integer replay of the relaxed sampler's zero-temperature dynamics.

    Consumes the same noise stream; positions advance by argmax offsets
    with landings clamped to the word range, mirroring what the
    distribution convolution must do when every step is a delta.
    """
    cfg = gen.cfg
    C = cfg.n_classes
    offs = np.arange(C - 1) - (cfg.l_max - 1)
    loose = (offs >= -(W - 1)) & (offs <= W - 1)
    ws3 = reshape(word_states, (1, W, -1))
    counts = np.array([W])
    dt = word_states.dtype
    state = gen.start_state(1, dt)
    hid = Tensor(np.zeros((1, cfg.d_hidden), dtype=dt))
    pos, fix, stopped = None, [], False
    with no_grad():
        for _ in range(max_fix):
            logits = gen.decode_logits_batch(state, ws3, counts).data[0]
            g = gumbel_of(rng.uniform((1, C))).astype(dt)[0]
            z = logits + g
            if pos is None:
                valid = np.zeros(C, dtype=bool)
                for c, o in enumerate(offs):
                    valid[c] = o >= 1 and 0 <= -1 + o < W
                c_star = int(np.where(valid, z, -np.inf).argmax())
                pos = -1 + int(offs[c_star])
            else:
                zq = np.where(loose, z[: C - 1], -np.inf)
                c_star = int(zq.argmax())
                if z[cfg.stop_class] > zq.max():
                    stopped = True
                pos = int(np.clip(pos + offs[c_star], 0, W - 1))
            fix.append(pos)
            if stopped:
                break
            one = np.zeros((1, W), dtype=dt)
            one[0, pos] = 1.0
            a = Tensor(one)
            word_row = matmul(a, word_states)
            pe = matmul(a, gen.fix_pos.w[0:W, :])
            state, hid = history_step_graph(gen, word_row, pe, hid)
    return fix, stopped


def test_criterion_03_reordering_oracle(monkeypatch):
    rng = RngState(30303, 0)
    n_fixtures = 1000
    # the scan GRU's input reads, step by step, recorded
    reads = []
    mix = augmentor.mix_rows_fwd
    monkeypatch.setattr(augmentor, "mix_rows_fwd",
                        lambda w, X: reads.append(mix(w, X)) or reads[-1])
    for k in range(n_fixtures):
        words, widths, paths = _mixed_width_fixture(k, rng)
        # the scan GRU's steps: at step t, a one-hot row for each sentence
        # whose path is longer than t, in batch order, packed step by step
        lengths = np.array([len(p) for p in paths])
        mask = (np.arange(lengths.max()) < lengths[:, None]).astype(np.float32)
        steps = []
        for t in range(lengths.max()):
            onehot = np.zeros((int(mask[:, t].sum()), words.shape[1]))
            onehot[np.arange(len(onehot)), [p[t] for p in paths if len(p) > t]] = 1.0
            steps.append(onehot)
        scan = ScanpathEncoder(words.shape[2], rng.substream("scan", k))
        reads.clear()
        scan.run_steps([len(s) for s in steps], mask, Tensor(np.concatenate(steps)),
                       words, Tensor(np.zeros((2, words.shape[2]))))
        for b, path in enumerate(paths):
            at = mask[:b].sum(axis=0).astype(int)
            got = np.stack([reads[t][at[t]] for t in range(len(path))])
            assert np.array_equal(got, words.data[b, path])

    n_walks, steps = 120, 0
    for seed in range(n_walks):
        r = RngState(40404, seed)
        W = 2 + seed % 5
        l_max = W + 2 + seed % 3
        # the walk's row sits beside a longer sentence, padded to its width
        me = seed % 2
        counts = np.array([l_max - 1, l_max - 1])
        counts[me] = W
        gen = ScanpathGenerator(GeneratorConfig(d_word=4, d_hidden=6,
                                                l_max=l_max),
                                r.substream("init"))
        emb = r.substream("emb").normal((2, l_max - 1, 4)).astype(np.float32)
        emb[me, W:] = 0.0
        rngs = [r.substream("n"), r.substream("n")]
        rngs[me] = r.substream("g")
        with no_grad():
            ws = gen.encode_words_batch(Tensor(emb), counts)
            sb = gen.sample_gumbel_batch(
                ws, counts, rngs,
                GumbelConfig(temperature=1e-8, mode=SOFT_CONVOLUTION),
                max_fixations=6,
            )
        # each step's rows come in batch order: the walk's row is the
        # first or the last
        rows = sb.rows.data[np.nonzero(sb.row_mask.T)[1] == me]
        assert np.all(rows[:, W:] == 0.0)  # no mass reaches the padding
        rows = rows[:, :W]
        assert np.all(rows.max(axis=1) == 1.0)  # exact deltas
        assert np.all(rows.sum(axis=1) == 1.0)
        oracle_fix, oracle_stop = _delta_walk_oracle(
            gen, Tensor(ws.data[me, :W]), W, r.substream("g"), 6
        )
        assert sb.fixations[me] == oracle_fix
        assert [int(i) for i in rows.argmax(axis=1)] == oracle_fix
        assert bool(sb.stopped[me]) == oracle_stop
        steps += len(oracle_fix)

    ok = True
    detail = (f"{n_fixtures} scan-GRU-read-vs-gather fixtures (padded batches "
              f"of mixed width) bit-exact; {n_walks} zero-temperature relaxed "
              f"walks ({steps} steps) beside a longer sentence match the "
              f"integer replay exactly")
    record_acceptance(3, "reordering oracle", ok, detail)


# -- criterion 4 ----------------------------------------------------------


def test_criterion_04_pretraining_learnability():
    t0 = time.perf_counter()
    suite = make_synthetic_suite(4242, n_gaze_train=300, n_gaze_dev=80,
                                 n_keyword=(10, 10, 10), n_pairs=(10, 10, 10))
    vocab = build_vocab(suite.vocab_lines(), 512)
    text_cfg = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=64,
                                 n_layers=1, n_heads=4, d_ff=256, max_len=64)
    model = GazeModel(text_cfg, gen_hidden=64, l_max=32, seed=4242)
    cfg = TrainConfig(lr=1e-3, pretrain_lr=2e-3, batch_size=32, max_epochs=20,
                      patience=3, seed=4242)
    _, hist = pretrain_generator(model, suite.gaze_train, suite.gaze_dev,
                                 vocab, cfg)
    best = hist["best_dev_nll"]
    epochs = len(hist["epochs"])

    law = MarkovGazeModel()
    pooled_entropy = law.corpus_entropy(suite.gaze_dev)
    honest_bound = 1.1 * pooled_entropy
    elapsed = time.perf_counter() - t0
    ok = (best <= 1.062 and best <= honest_bound and epochs <= 20
          and elapsed < 300.0)
    detail = (f"held-out NLL {best:.4f} <= 1.062 and <= 1.1 x pooled dev "
              f"entropy {pooled_entropy:.4f} = {honest_bound:.4f}; "
              f"{epochs} epochs, {elapsed:.0f}s (< 300s)")
    record_acceptance(4, "pretraining learnability", ok, detail)
    assert ok, detail


# -- criterion 5 ----------------------------------------------------------


def test_criterion_05_joint_training_learnability(big_kw):
    t0 = time.perf_counter()
    suite, vocab, text_cfg = big_kw
    mcfg = ModelConfig(text=text_cfg, gen_hidden=32, l_max=32)
    cfg = TrainConfig(lr=1e-3, batch_size=16, max_epochs=3, patience=3,
                      n_scanpaths_train=3, seed=777,
                      pretrained_generator=False)
    model = JointModel(mcfg, RngState(777, 0).substream("model"))
    _, hist = train_joint(model, suite.keyword_train, suite.keyword_dev,
                          vocab, cfg, metric_fn=accuracy_from_logits)
    best = hist["best_dev_metric"]

    labels = [i.label for i in suite.keyword_train]
    shuffled = RngState(778, 0).substream("shuffle").shuffled(labels)
    control_train = [dataclasses.replace(inst, label=lbl)
                     for inst, lbl in zip(suite.keyword_train, shuffled)]
    cfg_ctrl = dataclasses.replace(cfg, max_epochs=5, patience=5)
    model_c = JointModel(mcfg, RngState(777, 0).substream("model"))
    _, hist_c = train_joint(model_c, control_train, suite.keyword_dev, vocab,
                            cfg_ctrl, metric_fn=accuracy_from_logits)
    control = hist_c["best_dev_metric"]
    elapsed = time.perf_counter() - t0
    ok = best >= 0.95 and abs(control - 0.5) <= 0.10 and elapsed < 600.0
    detail = (f"dev accuracy {best:.3f} >= 0.95 within "
              f"{len(hist['epochs'])} epochs (2000 train / 500 dev, "
              f"3 scanpaths); random-label control {control:.3f} within "
              f"0.5 +- 0.10; {elapsed:.0f}s (< 600s)")
    record_acceptance(5, "joint-training learnability", ok, detail)
    assert ok, detail


# -- criterion 6 ----------------------------------------------------------


def test_criterion_06_ablation_gradient_contracts(tmp_path, tiny_suite,
                                                  tiny_vocab, tiny_text_cfg,
                                                  tiny_gaze_state):
    state0, _ = tiny_gaze_state
    mcfg = ModelConfig(text=tiny_text_cfg, gen_hidden=32, l_max=32)
    train = tiny_suite.keyword_train[:16]
    dev = tiny_suite.keyword_dev[:8]
    cfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=1,
                      n_scanpaths_train=2, seed=6, freeze_generator=True,
                      pretrained_generator=True)

    def gen_hash(state, name):
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(path, state)
        return checkpoint_hash(path)

    h_pre = gen_hash(state0, "pretrained")

    # frozen: a full training run must leave the generator untouched
    model = JointModel(mcfg, RngState(6, 0).substream("model"))
    best, _ = train_joint(model, train, dev, tiny_vocab, cfg,
                          metric_fn=accuracy_from_logits,
                          generator_state=state0)
    m2 = JointModel(mcfg, RngState(6, 0).substream("model"))
    m2.load_state_dict(best)
    frozen_identical = gen_hash(m2.generator_state(), "frozen") == h_pre

    # unfrozen: the first optimization step must see generator gradients
    model_u = JointModel(mcfg, RngState(6, 0).substream("model"))
    model_u.load_generator_state(state0)
    model_u.train()
    encs = encode_instances(train[:8], tiny_vocab, tiny_text_cfg.max_len)
    batch = collate(encs)
    labels = np.array([i.label for i in train[:8]])
    pair_rngs = [RngState(61, 0).substream("g", i) for i in range(batch.size)]
    loss = model_u.loss_pairs(batch, labels, pair_rngs,
                              [RngState(62, 0).substream("drop", b) for b in range(batch.size)])
    model_u.zero_grad()
    loss.backward()
    prefixes = model_u.generator_prefixes()
    gen_grad = max(
        float(np.abs(p.grad).max()) if p.grad is not None else 0.0
        for name, p in model_u.named_parameters()
        if name.startswith(prefixes)
    )

    # scratch: the run must start from a fresh initialization even when a
    # pretrained checkpoint is available
    fresh = JointModel(mcfg, RngState(6, 0).substream("model"))
    h_fresh = gen_hash(fresh.generator_state(), "fresh")
    cfg_scratch = dataclasses.replace(cfg, pretrained_generator=False,
                                      freeze_generator=False, max_epochs=0)
    model_s = JointModel(mcfg, RngState(6, 0).substream("model"))
    best_s, _ = train_joint(model_s, train, dev, tiny_vocab, cfg_scratch,
                            metric_fn=accuracy_from_logits,
                            generator_state=state0)
    m3 = JointModel(mcfg, RngState(6, 0).substream("model"))
    m3.load_state_dict(best_s)
    h_scratch = gen_hash(m3.generator_state(), "scratch")

    ok = (frozen_identical and gen_grad > 0.0 and h_scratch == h_fresh
          and h_scratch != h_pre)
    detail = (f"frozen run checkpoint byte-identical: {frozen_identical}; "
              f"unfrozen first-step max |generator grad| {gen_grad:.2e} > 0; "
              f"scratch init hash == fresh init, != pretrained")
    record_acceptance(6, "ablation gradient contracts", ok, detail)
    assert ok, detail


# -- criterion 7 ----------------------------------------------------------


def test_criterion_07_protocol_reproduction(big_kw):
    t0 = time.perf_counter()
    suite, vocab, text_cfg = big_kw
    n_pool = len(suite.keyword_train)
    Ks = (200, 500, 1000)
    data_seeds = (111, 222, 333, 444, 555)

    # split invariants
    for ds in data_seeds:
        prev_train = None
        for K in Ks:
            s = low_resource_split(n_pool, K, ds)
            assert len(s.train_ids) == K
            assert 1 <= len(s.dev_ids) <= 1000
            assert not set(s.train_ids) & set(s.dev_ids)
            assert set(s.train_ids) | set(s.dev_ids) <= set(range(n_pool))
            if prev_train is not None:
                assert np.array_equal(np.asarray(s.train_ids)[: len(prev_train)],
                                      prev_train)
            prev_train = np.asarray(s.train_ids)

    folds = kfold(n_pool, 10, 4242)
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(int(i) for f in folds for i in f) == list(range(n_pool))

    # exact logit averaging
    a = np.array([[0.0, 2.0]])
    b = np.array([[4.0, 6.0]])
    c = np.array([[8.0, 10.0]])
    assert np.array_equal(average_logits([a, b, c]), np.array([[4.0, 6.0]]))
    x = RngState(70, 0).normal((5, 2))
    assert np.array_equal(average_logits([x, x.copy(), x.copy()]), x)

    # both protocols end to end on the synthetic suite
    exp = Experiment(spec=suite.keyword_spec, vocab=vocab,
                     model_cfg=ModelConfig(text=text_cfg, gen_hidden=32,
                                           l_max=32))
    cfg = TrainConfig(lr=1e-3, batch_size=16, max_epochs=2, patience=2,
                      n_scanpaths_train=2, seed=4242,
                      pretrained_generator=False)
    lowres = run_lowresource(exp, suite.keyword_train,
                             suite.keyword_test[:200], cfg,
                             Ks=Ks, data_seeds=data_seeds)
    n_runs = sum(len(r.values) for r in lowres.values())
    n_errors = sum(len(r.errors) for r in lowres.values())
    assert set(lowres) == {f"K{k}" for k in Ks}
    assert all(0.0 <= v <= 1.0 for r in lowres.values() for v in r.values)

    cv = run_crossval(exp, suite.keyword_train[:300], cfg, folds=10)
    assert cv.run_labels == [f"fold{i}" for i in range(10)]
    assert all(0.0 <= v <= 1.0 for v in cv.values)

    elapsed = time.perf_counter() - t0
    ok = n_runs == 15 and n_errors == 0 and len(cv.values) == 10 and \
        elapsed < 1800.0
    means = {k: round(lowres[k].mean, 3) for k in sorted(lowres)}
    detail = (f"split/fold/averaging invariants hold; 15 low-resource runs "
              f"(means {means}) + 10-fold CV (mean {cv.mean:.3f}) in "
              f"{elapsed:.0f}s (< 1800s)")
    record_acceptance(7, "protocol reproduction", ok, detail)
    assert ok, detail


# -- criterion 8 ----------------------------------------------------------


def _oracle_f1(preds, labels):
    tp = float(np.sum((preds == 1) & (labels == 1)))
    fp = float(np.sum((preds == 1) & (labels == 0)))
    fn = float(np.sum((preds == 0) & (labels == 1)))
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def _oracle_matthews(preds, labels):
    tp = float(np.sum((preds == 1) & (labels == 1)))
    tn = float(np.sum((preds == 0) & (labels == 0)))
    fp = float(np.sum((preds == 1) & (labels == 0)))
    fn = float(np.sum((preds == 0) & (labels == 1)))
    denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / denom if denom else 0.0


def _oracle_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_08_metrics_oracle():
    assert metric("matthews", [1, 1, 0, 0], [1, 0, 1, 0]) == 0.0
    assert metric("auc", [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    rng = RngState(88, 0)
    worst = 0.0
    n_vectors = 1000
    for k in range(n_vectors):
        r = rng.substream("v", k)
        n = 5 + int(r.substream("n").integers(0, 40, ()))
        preds = (r.substream("p").uniform((n,)) < 0.5).astype(int)
        labels = (r.substream("l").uniform((n,)) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1  # both classes present
        scores = r.substream("s").normal((n,))
        if k % 4 == 0:
            scores = np.round(scores * 2) / 2  # inject ties
        other = r.substream("o").normal((n,))

        worst = max(worst, abs(metric("accuracy", preds, labels)
                               - float((preds == labels).mean())))
        worst = max(worst, abs(metric("f1", preds, labels)
                               - _oracle_f1(preds, labels)))
        worst = max(worst, abs(metric("matthews", preds, labels)
                               - _oracle_matthews(preds, labels)))
        worst = max(worst, abs(metric("auc", scores, labels)
                               - _oracle_auc(scores, labels)))
        got_sp = metric("spearman", scores, other)
        exp_sp = scipy.stats.spearmanr(scores, other).statistic
        worst = max(worst, abs(got_sp - exp_sp))

    ok = worst < 1e-9
    detail = (f"max |implementation - oracle| {worst:.2e} < 1e-9 over "
              f"{n_vectors} random vectors x 5 metrics, plus the "
              f"Matthews=0 and AUC=0.75 fixtures")
    record_acceptance(8, "metrics oracle", ok, detail)
    assert ok, detail


# -- criterion 9 ----------------------------------------------------------


def _run_dir_diffs(d1, d2):
    names1, names2 = sorted(os.listdir(d1)), sorted(os.listdir(d2))
    if names1 != names2:
        return [f"file sets differ: {names1} vs {names2}"]
    diffs = []
    for name in names1:
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        if name == "manifest.json":
            j1, j2 = json.loads(b1), json.loads(b2)
            j1.pop("created_unix"), j2.pop("created_unix")
            if j1 != j2:
                diffs.append(name)
        elif b1 != b2:
            diffs.append(name)
    return diffs


def test_criterion_09_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("GAZENLU_RUNS", str(tmp_path / "runs"))
    data = str(tmp_path / "data")
    vocab = str(tmp_path / "vocab.txt")
    assert cli_main([
        "make-synthetic", "--seed", "13", "--n-gaze-train", "30",
        "--n-gaze-dev", "10", "--n-keyword", "60", "20", "20",
        "--n-pairs", "20", "10", "10", "--out", data,
    ]) == 0
    assert cli_main(["build-vocab", "--from-synthetic", data,
                     "--vocab-size", "512", "--out", vocab]) == 0

    small = ["--d-model", "32", "--n-layers", "1", "--d-ff", "64",
             "--gen-hidden", "32"]
    pre_dirs = [str(tmp_path / f"pre{i}") for i in (1, 2)]
    for out in pre_dirs:
        assert cli_main([
            "pretrain-gaze", "--train", os.path.join(data, "gaze_train.tsv"),
            "--dev", os.path.join(data, "gaze_dev.tsv"), "--vocab", vocab,
            *small, "--max-epochs", "1", "--seed", "13", "--out", out,
        ]) == 0
    train_dirs = [str(tmp_path / f"tr{i}") for i in (1, 2)]
    for out in train_dirs:
        assert cli_main([
            "train", "--task", "keyword", "--data-dir", data,
            "--vocab", vocab,
            "--generator", os.path.join(pre_dirs[0], "generator.ckpt"),
            *small, "--lr", "1e-3", "--max-epochs", "1", "--n-scanpaths", "2",
            "--batch-size", "8", "--seed", "13", "--out", out,
        ]) == 0
    eval_dirs = [str(tmp_path / f"ev{i}") for i in (1, 2)]
    for out in eval_dirs:
        assert cli_main([
            "evaluate", "--model", train_dirs[0], "--task", "keyword",
            "--data-dir", data, "--split", "test", "--out", out,
        ]) == 0
    texts = tmp_path / "texts.txt"
    texts.write_text("aa bb cc\ndd ee ff gg\n")
    gen_files = [str(tmp_path / f"p{i}.jsonl") for i in (1, 2)]
    for out in gen_files:
        assert cli_main(["generate", "--model", pre_dirs[0], "--input",
                         str(texts), "--n-paths", "3", "--seed", "13",
                         "--out", out]) == 0

    diffs = (_run_dir_diffs(*pre_dirs) + _run_dir_diffs(*train_dirs)
             + _run_dir_diffs(*eval_dirs))
    gen_same = (open(gen_files[0], "rb").read()
                == open(gen_files[1], "rb").read())
    ok = not diffs and gen_same
    detail = ("pretrain, train, evaluate, and generate reruns byte-identical "
              "(manifest timestamps excluded)"
              if ok else f"differences: {diffs}, generate same: {gen_same}")
    record_acceptance(9, "determinism", ok, detail)
    assert ok, detail


# -- criterion 10 ---------------------------------------------------------


def test_criterion_10_scanpath_count_sweep():
    t0 = time.perf_counter()
    suite = make_synthetic_suite(42, n_gaze_train=150, n_gaze_dev=40,
                                 n_keyword=(150, 200, 300),
                                 n_pairs=(10, 10, 10), w_min=8, w_max=16)
    vocab = build_vocab(suite.vocab_lines(), 512)
    text_cfg = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=32,
                                 n_layers=1, n_heads=4, d_ff=128, max_len=80)
    gm = GazeModel(text_cfg, gen_hidden=32, l_max=32, seed=42)
    pre_cfg = TrainConfig(lr=1e-3, max_epochs=6, patience=6, seed=42)
    gstate, _ = pretrain_generator(gm, suite.gaze_train, suite.gaze_dev,
                                   vocab, pre_cfg)

    exp = Experiment(spec=suite.keyword_spec, vocab=vocab,
                     model_cfg=ModelConfig(text=text_cfg, gen_hidden=32,
                                           l_max=32),
                     generator_state=gstate)
    cfg = TrainConfig(lr=1e-3, max_epochs=2, patience=3, seed=42)
    counts = (1, 3, 5, 7)
    points = sweep_scanpaths(exp, suite.keyword_train, suite.keyword_dev,
                             suite.keyword_test, cfg, counts=counts,
                             seeds=(42, 43, 44))
    means = [points[f"n{c}"].mean for c in counts]
    stderrs = [points[f"n{c}"].stderr for c in counts]
    within_noise = all(
        means[i] >= means[i - 1] - stderrs[i - 1] - 1e-9
        for i in range(1, len(counts))
    )
    elapsed = time.perf_counter() - t0
    ok = within_noise
    curve = ", ".join(f"n{c}: {m:.3f}+-{s:.3f}"
                      for c, m, s in zip(counts, means, stderrs))
    detail = (f"mean accuracy over 3 seeds non-decreasing within one "
              f"stderr: {curve}; {elapsed:.0f}s")
    record_acceptance(10, "scanpath-count sweep", ok, detail)
    assert ok, detail
