"""Optimizer, early stopping, config files, and the two training phases."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from gazenlu import gazegen, trainkit
from gazenlu.augmentor import JointModel, ModelConfig, TEXT_ONLY
from gazenlu.corpus import GazeRecord, TextInstance
from gazenlu.diffcore import Linear, Module, RngState, Tensor, no_grad
from gazenlu.gazegen import GumbelConfig
from gazenlu.trainkit import (AdamW, EarlyStopper, GazeModel, TrainConfig,
                              accuracy_from_logits,
                              encode_instances, load_config,
                              predict_instances, pretrain_generator,
                              train_joint)


# -- optimizer ------------------------------------------------------------


def _reference_adamw(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.01):
    """Independent re-derivation of one decoupled-decay Adam update."""
    t += 1
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p), m, v, t


class _OneParam(Module):
    def __init__(self, value):
        super().__init__()
        self.w = Tensor(np.array(value), requires_grad=True)


def _adamw_steps(value, grads, **kw):
    """AdamW over a one-parameter module; the parameter after each step."""
    net = _OneParam(value)
    opt = AdamW(net, **kw)
    out = []
    for g in grads:
        net.w.grad = np.asarray(g)
        opt.step()
        out.append(net.w.data)
    return out


def test_adamw_matches_reference_over_two_steps():
    p = np.array([1.0, -2.0])
    g1 = np.array([0.5, 0.1])
    g2 = np.array([-0.2, 0.4])
    exp, m, v, t = _reference_adamw(p, g1, 0.0, 0.0, 0, lr=0.1)
    exp2, _, _, _ = _reference_adamw(exp, g2, m, v, t, lr=0.1)
    got, got2 = _adamw_steps(p, [g1, g2], lr=0.1)
    assert np.abs(got - exp).max() < 1e-12
    assert np.abs(got2 - exp2).max() < 1e-12


def test_adamw_is_functional_and_keeps_dtype():
    """A step assigns a fresh array: one held from before never changes."""
    net = _OneParam(np.array([1.0], dtype=np.float32))
    opt = AdamW(net, lr=0.01)
    held = net.w.data
    before = held.copy()
    net.w.grad = np.array([1.0], dtype=np.float32)
    opt.step()
    assert np.array_equal(held, before)
    assert net.w.data is not held
    assert net.w.data.dtype == np.float32
    exp, *_ = _reference_adamw(before.astype(np.float64), 1.0, 0.0, 0.0, 0, lr=0.01)
    assert np.allclose(net.w.data, exp, rtol=1e-6)


def test_adamw_decoupled_decay_moves_zero_grad_params():
    (got,) = _adamw_steps(np.array([10.0]), [np.array([0.0])], lr=0.1,
                          weight_decay=0.5)
    assert np.allclose(got, 10.0 - 0.1 * 0.5 * 10.0)


def test_adamw_rejects_non_finite_gradients():
    with pytest.raises(FloatingPointError, match="w"):
        _adamw_steps(np.ones(2), [np.array([1.0, np.nan])], lr=0.1)


class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.a = Linear(3, 3, RngState(80, 0).substream("a"))
        self.b = Linear(3, 2, RngState(80, 0).substream("b"))


def test_optimizer_slots_fixed_at_construction():
    net = _TwoLayer()
    for _, t in net.b.named_parameters():
        t.requires_grad = False
    opt = AdamW(net, lr=0.1)
    assert opt.n_params == 2  # a.w and a.b only
    for _, t in net.b.named_parameters():
        t.requires_grad = True  # too late: slots stay as constructed
    net.a.w.grad = np.ones_like(net.a.w.data)
    net.b.w.grad = np.ones_like(net.b.w.data)
    before_b = net.b.w.data.copy()
    opt.step()
    assert np.array_equal(net.b.w.data, before_b)
    assert not np.array_equal(net.a.w.grad * 0, net.a.w.data)  # a.w moved


def test_optimizer_skips_params_without_grads():
    net = _TwoLayer()
    opt = AdamW(net, lr=0.1)
    net.a.w.grad = np.ones_like(net.a.w.data)
    before = net.a.b.data.copy()
    opt.step()  # a.b has no grad this step
    assert np.array_equal(net.a.b.data, before)


# -- early stopping -------------------------------------------------------


def test_stopper_patience_run():
    s = EarlyStopper(patience=3, mode="max")
    flags = [s.update(v) for v in [0.6, 0.7, 0.7, 0.7, 0.7]]
    assert flags == [True, True, False, False, False]
    assert s.should_stop
    assert s.best_epoch == 2
    assert s.best_value == 0.7


def test_stopper_not_stopped_before_patience():
    s = EarlyStopper(patience=3, mode="max")
    for v in [0.6, 0.7, 0.7, 0.7]:
        s.update(v)
    assert not s.should_stop


def test_stopper_min_mode():
    s = EarlyStopper(patience=2, mode="min")
    assert s.update(1.0)
    assert s.update(0.5)
    assert not s.update(0.5 + 1e-9)  # inside tolerance, not an improvement
    assert s.update(0.3)
    assert s.best_epoch == 4


def test_stopper_rejects_unknown_mode():
    with pytest.raises(ValueError):
        EarlyStopper(mode="plateau")


# -- config files ---------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=1e-3, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=1e-3, n_scanpaths_train=0)
    for bad in ({"lr": float("nan")}, {"lr": float("inf")}, {"pretrain_lr": 0.0},
                {"pretrain_lr": float("nan")}, {"weight_decay": -1.0},
                {"weight_decay": float("inf")}, {"max_epochs": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    assert TrainConfig(max_epochs=0, weight_decay=0.0).max_epochs == 0
    # the temperature lives in GumbelConfig only
    assert "tau" not in {f.name for f in dataclasses.fields(TrainConfig)}


def _write_config(path, cfg: TrainConfig) -> None:
    """Every field as a key=value line, the way a user writes the file."""
    path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n"
                            for f in dataclasses.fields(cfg)))


def test_config_round_trip(tmp_path):
    cfg = TrainConfig(lr=3e-5, batch_size=16, max_epochs=7, patience=2,
                      n_scanpaths_train=5, freeze_generator=True,
                      pretrained_generator=False, seed=9, weight_decay=0.5,
                      pretrain_lr=2e-3)
    path = tmp_path / "run.cfg"
    _write_config(path, cfg)
    assert load_config(path) == cfg


def test_config_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    _write_config(path, TrainConfig(lr=3e-5, batch_size=16))
    cfg = load_config(path, {"batch_size": 4, "weight_decay": "0.25"})
    assert cfg.batch_size == 4
    assert cfg.weight_decay == 0.25
    assert cfg.lr == 3e-5


def test_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr=1e-3\nmomentum=0.9\n")
    with pytest.raises(ValueError, match=r":2:.*momentum"):
        load_config(path)
    with pytest.raises(ValueError, match="momentum"):
        load_config(path, {"momentum": 0.9})


def test_config_comments_blank_lines_and_missing_lr(tmp_path, tiny_text_cfg):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nlr=1e-3\n")
    assert load_config(path).lr == 1e-3
    # pretraining never reads lr; joint training refuses to start without it
    path.write_text("batch_size=8\n")
    cfg = load_config(path)
    assert cfg.lr is None
    with pytest.raises(ValueError, match="lr"):
        train_joint(_joint_model(tiny_text_cfg), [], [], None, cfg)


def test_config_bool_coercion(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr=1e-3\nfreeze_generator=true\npretrained_generator=no\n")
    cfg = load_config(path)
    assert cfg.freeze_generator is True
    assert cfg.pretrained_generator is False
    path.write_text("lr=1e-3\nfreeze_generator=maybe\n")
    with pytest.raises(ValueError, match="true/false"):
        load_config(path)


# -- generator pretraining ------------------------------------------------


def test_pretrain_zero_epochs_returns_init(tiny_suite, tiny_vocab,
                                           tiny_text_cfg):
    model = GazeModel(tiny_text_cfg, gen_hidden=16, l_max=32, seed=7)
    init = {k: v.copy() for k, v in model.state_dict().items()}
    cfg = TrainConfig(lr=1e-3, max_epochs=0, seed=7)
    state, hist = pretrain_generator(
        model, tiny_suite.gaze_train[:8], tiny_suite.gaze_dev[:4],
        tiny_vocab, cfg,
    )
    assert hist["epochs"] == [] and hist["best_dev_nll"] is None
    assert set(state) == set(init)
    for k in init:
        assert np.array_equal(state[k], init[k]), k


def test_pretrain_deterministic_across_fresh_models(tiny_suite, tiny_vocab,
                                                    tiny_text_cfg, tmp_path):
    def run(log):
        model = GazeModel(tiny_text_cfg, gen_hidden=16, l_max=32, seed=7)
        cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8, seed=7)
        return pretrain_generator(
            model, tiny_suite.gaze_train[:16], tiny_suite.gaze_dev[:8],
            tiny_vocab, cfg, log_path=log,
        )

    s1, h1 = run(tmp_path / "a.jsonl")
    s2, h2 = run(None)
    assert h1["epochs"] == h2["epochs"]
    for k in s1:
        assert np.array_equal(s1[k], s2[k]), k
    logged = [json.loads(l) for l in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert logged == h1["epochs"]


def test_pretrain_learns_on_the_shared_fixture(tiny_gaze_state):
    _, hist = tiny_gaze_state
    rows = hist["epochs"]
    assert len(rows) >= 1
    assert rows[-1]["train_loss"] < rows[0]["train_loss"]
    assert hist["best_dev_nll"] == min(r["dev_metric"] for r in rows)
    assert hist["best_epoch"] >= 1


def test_pretrain_rejects_empty_corpora(tiny_vocab, tiny_text_cfg):
    model = GazeModel(tiny_text_cfg, gen_hidden=16, l_max=32)
    with pytest.raises(ValueError):
        pretrain_generator(model, [], [], tiny_vocab, TrainConfig(lr=1e-3))


def test_gaze_model_names_match_joint_generator_unit(tiny_text_cfg,
                                                     tiny_gaze_state):
    state, _ = tiny_gaze_state
    joint = JointModel(
        ModelConfig(text=tiny_text_cfg, gen_hidden=32, l_max=32),
        RngState(81, 0),
    )
    joint.load_generator_state(state)  # must not raise
    own = dict(joint.named_parameters())
    assert np.array_equal(own["generator.head.w"].data,
                          state["generator.head.w"])


# -- joint fine-tuning ----------------------------------------------------


def _joint_model(tiny_text_cfg, seed=82):
    cfg = ModelConfig(text=tiny_text_cfg, gen_hidden=32, l_max=32)
    return JointModel(cfg, RngState(seed, 0))


def test_joint_requires_generator_state_when_pretrained(tiny_suite, tiny_vocab,
                                                        tiny_text_cfg):
    model = _joint_model(tiny_text_cfg)
    cfg = TrainConfig(lr=1e-3, max_epochs=1, pretrained_generator=True)
    with pytest.raises(ValueError, match="generator state"):
        train_joint(model, tiny_suite.keyword_train[:8],
                    tiny_suite.keyword_dev[:4], tiny_vocab, cfg)


def test_joint_run_is_deterministic(tiny_suite, tiny_vocab, tiny_text_cfg,
                                    tiny_gaze_state):
    gen_state, _ = tiny_gaze_state
    cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8,
                      n_scanpaths_train=2, seed=5)

    def run():
        model = _joint_model(tiny_text_cfg)
        return train_joint(model, tiny_suite.keyword_train[:24],
                           tiny_suite.keyword_dev[:12], tiny_vocab, cfg,
                           generator_state=gen_state)

    s1, h1 = run()
    s2, h2 = run()
    assert h1["epochs"] == h2["epochs"]
    assert h1["n_params"] == h1["n_trainable"]
    for k in s1:
        assert np.array_equal(s1[k], s2[k]), k


def test_joint_tau_reaches_the_sampler(tiny_suite, tiny_vocab, tiny_text_cfg,
                                       tiny_gaze_state, monkeypatch):
    """The model's GumbelConfig is the one home of the temperature: the
    sampler sees it, and training leaves the caller's config as it was."""
    gen_state, _ = tiny_gaze_state
    model_cfg = ModelConfig(text=tiny_text_cfg, gen_hidden=32, l_max=32,
                            gumbel=GumbelConfig(temperature=0.8))
    before = copy.deepcopy(model_cfg)
    model = JointModel(model_cfg, RngState(82, 0))
    seen = []
    sample = gazegen.ScanpathGenerator.sample_gumbel_batch

    def spy(self, word_states, counts, rngs, cfg, *args, **kwargs):
        seen.append(cfg.temperature)
        return sample(self, word_states, counts, rngs, cfg, *args, **kwargs)

    monkeypatch.setattr(gazegen.ScanpathGenerator, "sample_gumbel_batch", spy)
    cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8, seed=5)
    train_joint(model, tiny_suite.keyword_train[:8], tiny_suite.keyword_dev[:4],
                tiny_vocab, cfg, generator_state=gen_state)
    assert seen and set(seen) == {0.8}
    assert model_cfg == before
    assert model.cfg is model_cfg


def _count_steps(monkeypatch) -> list:
    steps = []
    step = trainkit.AdamW.step

    def counted(self):
        steps.append(1)
        step(self)

    monkeypatch.setattr(trainkit.AdamW, "step", counted)
    return steps


def test_overlong_sentence_fails_before_the_first_step(tiny_suite, tiny_vocab,
                                                      tiny_text_cfg,
                                                      monkeypatch):
    steps = _count_steps(monkeypatch)
    train = tiny_suite.keyword_train[:8]
    l_max = 1 + max(len(i.text1.split()) for i in train)
    model = JointModel(ModelConfig(text=tiny_text_cfg, gen_hidden=32,
                                   l_max=l_max), RngState(82, 0))
    long = TextInstance("long-dev", " ".join(["x"] * (l_max + 2)), None, 0)
    cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8, seed=5,
                      pretrained_generator=False)
    with pytest.raises(ValueError,
                       match=f"dev instance long-dev: {l_max + 2} words"):
        train_joint(model, train, tiny_suite.keyword_dev[:4] + [long],
                    tiny_vocab, cfg)
    assert steps == []

    gaze_model = GazeModel(tiny_text_cfg, gen_hidden=16, l_max=l_max)
    gaze = [r for r in tiny_suite.gaze_train if r.n_words < l_max][:8]
    long_rec = GazeRecord("long", "r1", " ".join(["x"] * l_max), [0])
    with pytest.raises(ValueError, match=f"gaze sentence long .*: {l_max} words"):
        pretrain_generator(gaze_model, gaze, [long_rec], tiny_vocab,
                           TrainConfig(max_epochs=1))
    assert steps == []


def test_truncated_gaze_sentence_fails_before_the_first_step(tiny_suite, tiny_vocab,
                                                            tiny_text_cfg,
                                                            monkeypatch):
    """A gaze sentence that max_len would shorten fails by name, before
    any step, also when not one of its words fits."""
    steps = _count_steps(monkeypatch)
    text_cfg = dataclasses.replace(tiny_text_cfg, max_len=6)
    gaze = [r for r in tiny_suite.gaze_train if r.n_words <= 4][:4]
    for text, kept in (("a b c d e f g h", 4), ("@" * 16, 0)):
        rec = GazeRecord("long", "r1", text, [0])
        with pytest.raises(ValueError, match=f"gaze sentence long \\(reader r1\\): "
                                             f"max_len=6 keeps {kept} of its "
                                             f"{len(text.split())} words"):
            pretrain_generator(GazeModel(text_cfg, gen_hidden=16, l_max=32),
                               gaze + [rec], gaze, tiny_vocab,
                               TrainConfig(max_epochs=1))
    assert steps == []


def test_graphless_loss_fails_before_the_first_step(tiny_suite, tiny_vocab,
                                                    tiny_text_cfg, monkeypatch):
    """A loss computed under no_grad has no graph to push gradients
    through; training refuses it instead of stepping with no gradients."""
    steps = _count_steps(monkeypatch)
    for cls, attr in ((JointModel, "loss_pairs"), (GazeModel, "batch_nll")):
        loss_fn = getattr(cls, attr)

        def graphless(*args, loss_fn=loss_fn, **kwargs):
            with no_grad():
                return loss_fn(*args, **kwargs)

        monkeypatch.setattr(cls, attr, graphless)
    cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8, seed=5,
                      pretrained_generator=False)
    with pytest.raises(RuntimeError, match="loss has no graph"):
        train_joint(_joint_model(tiny_text_cfg), tiny_suite.keyword_train[:8],
                    tiny_suite.keyword_dev[:4], tiny_vocab, cfg)
    with pytest.raises(RuntimeError, match="loss has no graph"):
        pretrain_generator(GazeModel(tiny_text_cfg, gen_hidden=16, l_max=32),
                           tiny_suite.gaze_train[:8], tiny_suite.gaze_dev[:4],
                           tiny_vocab, TrainConfig(max_epochs=1))
    assert steps == []


def test_frozen_generator_stays_at_loaded_values(tiny_suite, tiny_vocab,
                                                 tiny_text_cfg,
                                                 tiny_gaze_state):
    gen_state, _ = tiny_gaze_state
    model = _joint_model(tiny_text_cfg)
    cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8,
                      freeze_generator=True, n_scanpaths_train=2, seed=5)
    _, hist = train_joint(model, tiny_suite.keyword_train[:16],
                          tiny_suite.keyword_dev[:8], tiny_vocab, cfg,
                          generator_state=gen_state)
    total = sum(1 for _ in model.named_parameters())
    assert hist["n_trainable"] < total
    after = model.generator_state()
    for k, v in gen_state.items():
        assert np.array_equal(after[k], np.asarray(v, dtype=after[k].dtype)), k


def test_text_only_training_needs_no_generator(tiny_suite, tiny_vocab,
                                               tiny_text_cfg):
    cfg_m = ModelConfig(text=tiny_text_cfg, model_kind=TEXT_ONLY)
    model = JointModel(cfg_m, RngState(83, 0))
    cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=8, seed=5)
    _, hist = train_joint(model, tiny_suite.keyword_train[:16],
                          tiny_suite.keyword_dev[:8], tiny_vocab, cfg)
    assert len(hist["epochs"]) == 1
    assert 0.0 <= hist["best_dev_metric"] <= 1.0


def test_predict_instances_batch_size_invariant(tiny_suite, tiny_vocab,
                                                tiny_text_cfg):
    model = _joint_model(tiny_text_cfg)
    encs = encode_instances(tiny_suite.keyword_dev[:6], tiny_vocab,
                            tiny_text_cfg.max_len)
    ids = [i.instance_id for i in tiny_suite.keyword_dev[:6]]
    big = predict_instances(model, encs, ids, 2, RngState(84, 0), batch_size=6)
    small = predict_instances(model, encs, ids, 2, RngState(84, 0), batch_size=2)
    assert np.abs(big - small).max() < 1e-4


def test_accuracy_from_logits():
    outs = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.2, 0.1]])
    labels = np.array([0, 1, 1, 0])
    assert accuracy_from_logits(outs, labels) == 0.75
