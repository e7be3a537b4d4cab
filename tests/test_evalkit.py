"""Metrics against independent oracles, reports, and experiment drivers."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

from gazenlu.augmentor import JointModel, ModelConfig, TEXT_ONLY
from gazenlu.cli import load_reports
from gazenlu.diffcore import RngState
from gazenlu.evalkit import (ABLATIONS, CV_DEV_FRACTION, EvalReport,
                             Experiment, cv_fold_split, metric,
                             metric_fn_for, reports_to_csv, run_ablations,
                             run_crossval, run_lowresource, save_reports,
                             scores_from_logits, sweep_scanpaths,
                             train_and_score)
from gazenlu import gazegen
from gazenlu.gazegen import GumbelConfig
from gazenlu.corpus import kfold
from gazenlu.trainkit import TrainConfig, encode_instances
from gazenlu.textenc import collate


# -- metric fixtures ------------------------------------------------------


def test_accuracy():
    assert metric("accuracy", [1, 0, 1, 1], [1, 0, 0, 1]) == 0.75


def test_f1_balanced_confusion_cell_fixture():
    # one of each: TP, FP, FN, TN
    preds = [1, 1, 0, 0]
    labels = [1, 0, 1, 0]
    assert metric("f1", preds, labels) == 0.5
    assert metric("matthews", preds, labels) == 0.0


def test_f1_no_positive_anywhere_is_zero():
    assert metric("f1", [0, 0], [0, 0]) == 0.0


def test_matthews_perfect_and_inverted():
    assert metric("matthews", [1, 0, 1, 0], [1, 0, 1, 0]) == 1.0
    assert metric("matthews", [0, 1, 0, 1], [1, 0, 1, 0]) == -1.0


def test_matthews_degenerate_denominator_is_zero():
    assert metric("matthews", [1, 1, 1], [1, 0, 1]) == 0.0


def test_auc_fixture():
    assert metric("auc", [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_gives_half_credit_to_ties():
    assert metric("auc", [0.5, 0.5, 0.5, 0.5], [0, 0, 1, 1]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(ValueError, match="single class"):
        metric("auc", [0.1, 0.9], [1, 1])


def test_spearman_monotone_and_reversed():
    x = [1.0, 2.0, 3.0, 4.0]
    assert abs(metric("spearman", [v ** 3 for v in x], x) - 1.0) < 1e-12
    assert abs(metric("spearman", [-v for v in x], x) + 1.0) < 1e-12


def test_spearman_constant_vector_is_zero():
    assert metric("spearman", [2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0


def test_spearman_with_ties_matches_scipy():
    p = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 0.5])
    y = np.array([0.1, 0.3, 0.3, 0.9, 0.8, 0.0])
    expected = scipy.stats.spearmanr(p, y).statistic
    assert abs(metric("spearman", p, y) - expected) < 1e-12


def test_metric_validation():
    with pytest.raises(ValueError):
        metric("accuracy", [1, 0], [1])
    with pytest.raises(ValueError):
        metric("spearman", [1.0], [1.0])
    with pytest.raises(ValueError):
        metric("f1", [2, 0], [1, 0])
    with pytest.raises(ValueError):
        metric("bleu", [1, 0], [1, 0])


def test_metrics_against_independent_oracles():
    """Random vectors against scipy (spearman) and a quadratic-time
    pair count (auc)."""
    rng = RngState(90, 0)
    for k in range(50):
        n = 8 + k % 30
        scores = rng.substream("s", k).normal((n,))
        if k % 3 == 0:  # inject ties
            scores = np.round(scores)
        labels = (rng.substream("l", k).uniform((n,)) < 0.5).astype(float)
        other = rng.substream("o", k).normal((n,))

        got_sp = metric("spearman", scores, other)
        exp_sp = scipy.stats.spearmanr(scores, other).statistic
        assert abs(got_sp - exp_sp) < 1e-12

        if 0 < labels.sum() < n:
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            u = sum(
                1.0 if a > b else 0.5 if a == b else 0.0
                for a in pos for b in neg
            )
            exp_auc = u / (len(pos) * len(neg))
            assert abs(metric("auc", scores, labels) - exp_auc) < 1e-12


def test_scores_from_logits_routing():
    logits = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert scores_from_logits("accuracy", logits).tolist() == [0, 1]
    assert scores_from_logits("f1", logits).tolist() == [0, 1]
    assert scores_from_logits("auc", logits).tolist() == [1.0, 3.0]
    assert scores_from_logits("spearman", logits).tolist() == [2.0, 0.5]
    assert scores_from_logits("spearman", np.array([1.0, 2.0])).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        scores_from_logits("bleu", logits)


def test_metric_fn_for_closes_over_kind():
    fn = metric_fn_for("accuracy")
    logits = np.array([[2.0, 1.0], [0.5, 3.0], [0.1, 0.2]])
    assert fn(logits, np.array([0, 1, 0])) == pytest.approx(2 / 3)


# -- reports --------------------------------------------------------------


def test_report_mean_and_stderr():
    r = EvalReport("t", "accuracy", [0.5, 0.7], ["a", "b"], {})
    assert r.mean == pytest.approx(0.6)
    assert r.stderr == pytest.approx(0.1)  # sd(ddof=1)/sqrt(2)
    assert EvalReport("t", "accuracy", [0.5], ["a"], {}).stderr == 0.0
    assert np.isnan(EvalReport("t", "accuracy", [], [], {}).mean)


def test_report_json_round_trip(tmp_path):
    reports = {
        "main": EvalReport("kw", "accuracy", [0.5, 0.625], ["s1", "s2"],
                           {"lr": 1e-3}, errors=["seed 9: boom"]),
        "aux": EvalReport("pr", "f1", [], [], {}),
    }
    path = tmp_path / "report.json"
    save_reports(path, reports)
    back = load_reports(path)
    assert back.keys() == reports.keys()
    assert back["main"] == reports["main"]
    assert back["aux"].errors == []


def test_report_writer_failure_keeps_old_file(tmp_path):
    path = tmp_path / "report.json"
    save_reports(path, {"a": EvalReport("kw", "accuracy", [0.5], ["s1"], {})})
    old = path.read_bytes()
    bad = EvalReport("kw", "accuracy", [0.5], ["s1"], {"x": object()})
    with pytest.raises(TypeError):     # json.dump fails part-way
        save_reports(path, {"a": bad})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_report_csv_writer_failure_keeps_old_file(tmp_path):
    path = tmp_path / "curve.csv"
    good = EvalReport("kw", "accuracy", [0.5], ["s1"], {"K": 2})
    reports_to_csv(path, {"a": good})
    old = path.read_bytes()
    assert old.endswith(b"\r\n")     # the csv writer's row ending, kept as written
    newer = EvalReport("kw", "accuracy", [0.75], ["s1"], {"K": 2})
    bad = EvalReport("kw", "accuracy", [0.5], ["s1"], {"K": 2, 3: 4})
    with pytest.raises(TypeError):     # row "b"'s config keys do not sort
        reports_to_csv(path, {"a": newer, "b": bad})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


def test_report_csv_rows_round_trip_values(tmp_path):
    reports = {
        "b": EvalReport("kw", "accuracy", [0.1234567890123], ["s1"], {"K": 40}),
        "a": EvalReport("kw", "accuracy", [0.5, 1 / 3], ["s1", "s2"],
                        {"lr": 1e-3, "K": 2}),
    }
    path = tmp_path / "rows.csv"
    reports_to_csv(path, reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,task,metric,config,run,value"
    assert len(lines) == 4
    assert lines[1].startswith("a,")  # names sorted
    cfg_cell = lines[1].split(",")[3]
    assert cfg_cell == "K=2;lr=0.001"
    assert float(lines[3].split(",")[5]) == 0.1234567890123


# -- split plumbing -------------------------------------------------------


def test_cv_fold_split_partitions_instances(tiny_suite):
    insts = tiny_suite.keyword_train[:37]
    folds = 5
    seen = []
    for fold in range(folds):
        tr, dv, te = cv_fold_split(insts, folds, fold, seed=3)
        ids = [i.instance_id for i in tr + dv + te]
        assert sorted(ids) == sorted(i.instance_id for i in insts)
        assert len(dv) == max(1, round(CV_DEV_FRACTION * (len(insts) - len(te))))
        seen.extend(i.instance_id for i in te)
        expected_test = kfold(len(insts), folds, 3)[fold]
        assert [i.instance_id for i in te] == [
            insts[j].instance_id for j in expected_test
        ]
    assert sorted(seen) == sorted(i.instance_id for i in insts)


def test_cv_fold_split_deterministic(tiny_suite):
    insts = tiny_suite.keyword_train[:20]
    a = cv_fold_split(insts, 4, 1, seed=7)
    b = cv_fold_split(insts, 4, 1, seed=7)
    assert [i.instance_id for i in a[0]] == [i.instance_id for i in b[0]]
    assert [i.instance_id for i in a[1]] == [i.instance_id for i in b[1]]


# -- driver runs (tiny, text-only where gaze is not the point) ------------


@pytest.fixture(scope="module")
def text_only_exp(tiny_suite, tiny_vocab, tiny_text_cfg):
    cfg = ModelConfig(text=tiny_text_cfg, model_kind=TEXT_ONLY)
    return Experiment(spec=tiny_suite.keyword_spec, vocab=tiny_vocab,
                      model_cfg=cfg)


@pytest.fixture(scope="module")
def gaze_exp(tiny_suite, tiny_vocab, tiny_text_cfg, tiny_gaze_state):
    state, _ = tiny_gaze_state
    cfg = ModelConfig(text=tiny_text_cfg, gen_hidden=32, l_max=32)
    return Experiment(spec=tiny_suite.keyword_spec, vocab=tiny_vocab,
                      model_cfg=cfg, generator_state=state)


FAST = dict(lr=1e-3, batch_size=8, max_epochs=1, n_scanpaths_train=2, seed=5)


def test_train_and_score_bounded_and_deterministic(gaze_exp, tiny_suite):
    cfg = TrainConfig(**FAST)
    tr = tiny_suite.keyword_train[:16]
    dv = tiny_suite.keyword_dev[:8]
    te = tiny_suite.keyword_test[:10]
    v1, extra = train_and_score(gaze_exp, tr, dv, te, cfg, model_seed=1)
    v2, _ = train_and_score(gaze_exp, tr, dv, te, cfg, model_seed=1)
    assert v1 == v2
    assert 0.0 <= v1 <= 1.0
    assert isinstance(extra["model"], JointModel)
    assert extra["history"]["epochs"]


def test_crossval_report_shape_and_determinism(text_only_exp, tiny_suite):
    insts = tiny_suite.keyword_train[:30]
    cfg = TrainConfig(**FAST)
    r1 = run_crossval(text_only_exp, insts, cfg, folds=3)
    r2 = run_crossval(text_only_exp, insts, cfg, folds=3)
    assert r1.run_labels == ["fold0", "fold1", "fold2"]
    assert all(0.0 <= v <= 1.0 for v in r1.values)
    assert r1.values == r2.values
    assert r1.config["folds"] == 3 and r1.config["task"] == "keyword"


def test_lowresource_reports_per_budget(text_only_exp, tiny_suite):
    cfg = TrainConfig(**FAST)
    pool = tiny_suite.keyword_train
    out = run_lowresource(text_only_exp, pool, tiny_suite.keyword_test[:10],
                          cfg, Ks=(40,), data_seeds=(1, 2))
    assert set(out) == {"K40"}
    rep = out["K40"]
    assert rep.run_labels == ["seed1", "seed2"]
    assert rep.errors == []
    assert rep.config["K"] == 40


def test_lowresource_collects_errors_instead_of_dying(text_only_exp,
                                                      tiny_suite):
    cfg = TrainConfig(**FAST)
    out = run_lowresource(text_only_exp, tiny_suite.keyword_train[:30],
                          tiny_suite.keyword_test[:5], cfg,
                          Ks=(500,), data_seeds=(1,))
    rep = out["K500"]
    assert rep.values == []
    assert len(rep.errors) == 1 and "data_seed 1" in rep.errors[0]


def test_sweep_moves_both_counts_together_and_text_only_is_flat(
        text_only_exp, tiny_suite):
    cfg = TrainConfig(**FAST)
    out = sweep_scanpaths(text_only_exp, tiny_suite.keyword_train[:24],
                          tiny_suite.keyword_dev[:8],
                          tiny_suite.keyword_test[:10], cfg, counts=(1, 3),
                          seeds=(42,))
    assert set(out) == {"n1", "n3"}
    assert out["n1"].config["n_scanpaths"] == 1
    assert out["n3"].config["n_scanpaths"] == 3
    # without a generator the path count cannot matter: exactly flat
    assert out["n1"].values == out["n3"].values
    with pytest.raises(ValueError):
        sweep_scanpaths(text_only_exp, [], [], [], cfg, counts=())


def _constant_uniforms(streams, counts):
    """The sampler's batched uniform draw, one constant value throughout."""
    return np.full((len(streams), int(np.max(counts))), 0.5)


def test_deterministic_paths_make_extra_samples_free(gaze_exp, tiny_suite,
                                                     tiny_text_cfg, monkeypatch):
    """With one constant Gumbel value on every open class every hard path takes
    its modal saccade, so all sampled paths are identical and averaging
    many of them reproduces the single-path output bit for bit."""
    monkeypatch.setattr(gazegen, "stream_uniforms", _constant_uniforms)
    cfg_m = ModelConfig(text=tiny_text_cfg, gen_hidden=32, l_max=32,
                        gumbel=GumbelConfig(hard_eval=True))
    model = JointModel(cfg_m, RngState(91, 0))
    model.load_generator_state(gaze_exp.generator_state)
    encs = encode_instances(tiny_suite.keyword_dev[:4], gaze_exp.vocab,
                            tiny_text_cfg.max_len)
    batch = collate(encs)
    ids = [i.instance_id for i in tiny_suite.keyword_dev[:4]]
    one = model.predict_batch(batch, ids, 1, RngState(92, 0))
    many = model.predict_batch(batch, ids, 5, RngState(92, 0))
    assert np.array_equal(one, many)


def test_ablations_cover_three_generator_treatments(gaze_exp, tiny_suite):
    cfg = TrainConfig(**FAST)
    out = run_ablations(gaze_exp, tiny_suite.keyword_train[:16],
                        tiny_suite.keyword_dev[:8],
                        tiny_suite.keyword_test[:10], cfg)
    assert set(out) == set(ABLATIONS)
    assert out["full"].config["pretrained_generator"] is True
    assert out["full"].config["freeze_generator"] is False
    assert out["frozen"].config["freeze_generator"] is True
    assert out["scratch"].config["pretrained_generator"] is False
    for rep in out.values():
        assert len(rep.values) == 1 and 0.0 <= rep.values[0] <= 1.0


def test_ablations_require_pretrained_state(text_only_exp, tiny_suite):
    with pytest.raises(ValueError, match="pretrained generator"):
        run_ablations(text_only_exp, tiny_suite.keyword_train[:8],
                      tiny_suite.keyword_dev[:4], tiny_suite.keyword_test[:4],
                      TrainConfig(**FAST))


def test_gaze_and_baseline_comparable_on_shared_folds(gaze_exp, text_only_exp,
                                                      tiny_suite):
    """Same folds, same seeds: the scanpath model should hold its own
    against the no-gaze baseline even in a one-epoch run."""
    insts = tiny_suite.keyword_train[:30]
    cfg = TrainConfig(**FAST)
    ours = run_crossval(gaze_exp, insts, cfg, folds=3)
    base = run_crossval(text_only_exp, insts, cfg, folds=3)
    assert ours.run_labels == base.run_labels
    assert ours.mean >= base.mean - 0.1
