"""Metrics and evaluation drivers: cross-validation, low-resource
protocols, scanpath-count sweeps, and ablation comparisons.

Every driver trains fresh models through the shared trainer and reports
per-run values plus mean and standard error, so aggregates are always
recomputable from the stored runs. Evaluation itself never touches model
parameters.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .augmentor import ModelConfig, JointModel
from .corpus import DatasetSpec, TextInstance, kfold, low_resource_split
from .diffcore import RngState, atomic_write
from .textenc import Vocab
from .trainkit import (TrainConfig, encode_instances, predict_instances,
                       train_joint)

CV_DEV_FRACTION = 0.1


# -- metrics -------------------------------------------------------------


def _check_binary(labels: np.ndarray, kind: str) -> None:
    if not set(np.unique(labels)).issubset({0, 1}):
        raise ValueError(f"{kind} requires binary 0/1 labels")


def _avg_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da, db = a - a.mean(), b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0:
        return 0.0
    return float((da * db).sum() / denom)


def metric(kind: str, predictions, labels) -> float:
    """accuracy | f1 | matthews | spearman | auc.

    Predictions are class ids for accuracy/f1/matthews and real scores
    for spearman/auc. F1 and AUC treat label 1 as the positive class.
    Single-class labels make AUC undefined and raise; a zero Matthews
    denominator yields 0.
    """
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"predictions {p.shape} and labels {y.shape} must be equal-length vectors")
    if kind in ("spearman", "matthews", "auc") and len(p) < 2:
        raise ValueError(f"{kind} needs at least 2 points, got {len(p)}")

    if kind == "accuracy":
        return float((p == y).mean())

    if kind == "f1":
        _check_binary(y, "f1")
        _check_binary(p, "f1")
        tp = float(((p == 1) & (y == 1)).sum())
        fp = float(((p == 1) & (y == 0)).sum())
        fn = float(((p == 0) & (y == 1)).sum())
        denom = 2 * tp + fp + fn
        return 0.0 if denom == 0 else 2 * tp / denom

    if kind == "matthews":
        _check_binary(y, "matthews")
        _check_binary(p, "matthews")
        tp = float(((p == 1) & (y == 1)).sum())
        tn = float(((p == 0) & (y == 0)).sum())
        fp = float(((p == 1) & (y == 0)).sum())
        fn = float(((p == 0) & (y == 1)).sum())
        denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
        return 0.0 if denom == 0 else float((tp * tn - fp * fn) / denom)

    if kind == "spearman":
        return _pearson(_avg_ranks(p), _avg_ranks(y))

    if kind == "auc":
        _check_binary(y, "auc")
        pos = p[y == 1]
        neg = p[y == 0]
        if len(pos) == 0 or len(neg) == 0:
            raise ValueError("auc undefined: labels contain a single class")
        diff = pos[:, None] - neg[None, :]
        u = (diff > 0).sum() + 0.5 * (diff == 0).sum()
        return float(u / (len(pos) * len(neg)))

    raise ValueError(f"unknown metric kind {kind!r}")


def scores_from_logits(kind: str, logits: np.ndarray) -> np.ndarray:
    """Map averaged pre-softmax outputs to what `metric` consumes."""
    if kind in ("accuracy", "f1", "matthews"):
        return logits.argmax(axis=1)
    if kind == "auc":
        return logits[:, 1]
    if kind == "spearman":
        return logits[:, 0] if logits.ndim == 2 else logits
    raise ValueError(f"unknown metric kind {kind!r}")


def metric_fn_for(kind: str):
    """Dev-metric callable for the trainer, on raw averaged outputs."""
    def fn(logits: np.ndarray, labels: np.ndarray) -> float:
        return metric(kind, scores_from_logits(kind, logits), labels)
    return fn


# -- reports -------------------------------------------------------------


@dataclass
class EvalReport:
    task: str
    metric_id: str
    values: list[float]
    run_labels: list[str]
    config: dict
    errors: list[str] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def stderr(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1) / np.sqrt(len(self.values)))

    def to_dict(self) -> dict:
        """The fields, plus the derived mean and stderr for readers."""
        return {**dataclasses.asdict(self), "mean": self.mean,
                "stderr": self.stderr}

    @staticmethod
    def from_dict(d: dict) -> "EvalReport":
        return EvalReport(**{f.name: d[f.name]
                             for f in dataclasses.fields(EvalReport) if f.name in d})


def save_reports(path, reports: dict[str, EvalReport]) -> None:
    payload = {name: r.to_dict() for name, r in reports.items()}
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_reports(path) -> dict[str, EvalReport]:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    return {name: EvalReport.from_dict(d) for name, d in payload.items()}


def reports_to_csv(path, reports: dict[str, EvalReport]) -> None:
    """Flat (config, run, value) rows for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["name", "task", "metric", "config", "run", "value"])
        for name in sorted(reports):
            r = reports[name]
            cfg = ";".join(f"{k}={r.config[k]}" for k in sorted(r.config))
            for label, value in zip(r.run_labels, r.values):
                w.writerow([name, r.task, r.metric_id, cfg, label, repr(value)])


# -- experiment drivers --------------------------------------------------


@dataclass
class Experiment:
    """Everything a driver needs besides the instances and TrainConfig."""
    spec: DatasetSpec
    vocab: Vocab
    model_cfg: ModelConfig
    generator_state: dict | None = None


def new_report(spec: DatasetSpec, **config) -> EvalReport:
    """A report on ``spec``'s task and metric with no runs yet; ``config``
    echoes the settings its runs share."""
    return EvalReport(task=spec.name, metric_id=spec.metric_id, values=[],
                      run_labels=[], config=config)


def _driver_report(exp: Experiment, config: TrainConfig, **extra) -> EvalReport:
    return new_report(
        exp.spec, task=exp.spec.name, model_kind=exp.model_cfg.model_kind,
        n_scanpaths=config.n_scanpaths_train, lr=config.lr,
        tau=exp.model_cfg.gumbel.temperature, seed=config.seed,
        freeze_generator=config.freeze_generator,
        pretrained_generator=config.pretrained_generator, **extra,
    )


def score_instances(model: JointModel, instances: list[TextInstance],
                    vocab: Vocab, n_paths: int, rng: RngState,
                    metric_id: str) -> float:
    """``metric_id`` of a model's averaged predictions on ``instances``.
    Raises ValueError where the metric is undefined on their labels."""
    encs = encode_instances(instances, vocab, model.cfg.text.max_len)
    logits = predict_instances(model, encs, [i.instance_id for i in instances],
                               n_paths, rng)
    return metric_fn_for(metric_id)(logits, np.array([i.label for i in instances]))


def train_and_score(exp: Experiment, train_insts, dev_insts, test_insts,
                    config: TrainConfig, model_seed: int):
    """Train one fresh model, return (test metric value, diagnostics)."""
    model = JointModel(exp.model_cfg, RngState(model_seed, 0).substream("model"))
    _, hist = train_joint(
        model, train_insts, dev_insts, exp.vocab, config,
        metric_fn=metric_fn_for(exp.spec.metric_id),
        generator_state=exp.generator_state,
    )
    value = score_instances(model, test_insts, exp.vocab, config.n_scanpaths_train,
                            RngState(config.seed, 0).substream("test_eval"),
                            exp.spec.metric_id)
    return value, {"history": hist, "model": model}


def cv_fold_split(instances: list[TextInstance], folds: int, fold: int,
                  seed: int):
    """(train, dev, test) for one fold; dev is a carve-out of the train part."""
    assignments = kfold(len(instances), folds, seed)
    test_idx = assignments[fold]
    rest = np.concatenate([a for i, a in enumerate(assignments) if i != fold])
    order = RngState(seed, 0).substream("cv_dev", fold).shuffled(rest.tolist())
    n_dev = max(1, int(round(CV_DEV_FRACTION * len(order))))
    dev_idx, train_idx = order[:n_dev], order[n_dev:]
    pick = lambda idx: [instances[i] for i in idx]
    return pick(train_idx), pick(dev_idx), pick(test_idx)


def run_crossval(exp: Experiment, instances: list[TextInstance],
                 config: TrainConfig, folds: int = 10) -> EvalReport:
    """K-fold protocol with averaged-logit predictions per test fold."""
    report = _driver_report(exp, config, folds=folds)
    for fold in range(folds):
        tr, dv, te = cv_fold_split(instances, folds, fold, config.seed)
        value, _ = train_and_score(exp, tr, dv, te, config,
                                   model_seed=_fold_seed(config.seed, fold))
        report.run_labels.append(f"fold{fold}")
        report.values.append(value)
    return report


def run_lowresource(exp: Experiment, train_pool: list[TextInstance],
                    test_insts: list[TextInstance], config: TrainConfig,
                    Ks=(200, 500, 1000), data_seeds=(111, 222, 333, 444, 555)
                    ) -> dict[str, EvalReport]:
    """One report per K, aggregating runs over the data-shuffling seeds."""
    reports: dict[str, EvalReport] = {}
    for K in Ks:
        report = _driver_report(exp, config, K=K, data_seeds=list(data_seeds))
        for ds in data_seeds:
            try:
                split = low_resource_split(len(train_pool), K, ds)
                tr = [train_pool[i] for i in split.train_ids]
                dv = [train_pool[i] for i in split.dev_ids]
                value, _ = train_and_score(exp, tr, dv, test_insts, config,
                                           model_seed=config.seed)
            except ValueError as ex:
                report.errors.append(f"data_seed {ds}: {ex}")
                continue
            report.run_labels.append(f"seed{ds}")
            report.values.append(value)
        reports[f"K{K}"] = report
    return reports


def sweep_scanpaths(exp: Experiment, train_insts, dev_insts, test_insts,
                    config: TrainConfig, counts=(1, 3, 5, 7),
                    seeds=(42,)) -> dict[str, EvalReport]:
    """Training and application scanpath counts move together."""
    if not counts:
        raise ValueError("counts must be non-empty")
    points: dict[str, EvalReport] = {}
    for count in counts:
        cfg = dataclasses.replace(config, n_scanpaths_train=count)
        report = _driver_report(exp, cfg, seeds=list(seeds))
        for seed in seeds:
            run_cfg = dataclasses.replace(cfg, seed=seed)
            value, _ = train_and_score(exp, train_insts, dev_insts, test_insts,
                                       run_cfg, model_seed=seed)
            report.run_labels.append(f"seed{seed}")
            report.values.append(value)
        points[f"n{count}"] = report
    return points


ABLATIONS = ("full", "frozen", "scratch")


def run_ablations(exp: Experiment, train_insts, dev_insts, test_insts,
                  config: TrainConfig) -> dict[str, EvalReport]:
    """full vs frozen-generator vs scratch-generator, same seed and data."""
    if exp.generator_state is None:
        raise ValueError("ablations need a pretrained generator state")
    variants = {
        "full": dataclasses.replace(config, pretrained_generator=True,
                                    freeze_generator=False),
        "frozen": dataclasses.replace(config, pretrained_generator=True,
                                      freeze_generator=True),
        "scratch": dataclasses.replace(config, pretrained_generator=False,
                                       freeze_generator=False),
    }
    out: dict[str, EvalReport] = {}
    for name in ABLATIONS:
        cfg = variants[name]
        value, _ = train_and_score(exp, train_insts, dev_insts, test_insts,
                                   cfg, model_seed=config.seed)
        out[name] = _driver_report(exp, cfg, ablation=name)
        out[name].values.append(value)
        out[name].run_labels.append(name)
    return out


def _fold_seed(seed: int, fold: int) -> int:
    return seed * 1000 + fold
