"""Command-line entry point wiring the pipeline into reproducible runs.

Every command writes its artifacts into a self-describing run directory
named by a short hash of the resolved configuration plus the seed
(override the root with GAZENLU_RUNS or the exact directory with --out).
manifest.json records the full resolved configuration and is the only
artifact allowed to contain timestamps; everything else is byte-stable
under reruns. Exit codes: 0 success, 1 validation or IO failure, 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time
import types
import typing

import numpy as np

from .augmentor import GAZE, TEXT_ONLY, ModelConfig, JointModel
from .corpus import (DatasetSpec, load_dataset, load_gaze_corpus,
                     make_synthetic_suite, write_dataset, write_gaze_corpus)
from .diffcore import (RngState, ZeroDraws, atomic_write, checkpoint_hash,
                       load_checkpoint, no_grad, save_checkpoint)
from .evalkit import (ABLATIONS, EvalReport, Experiment, metric_fn_for,
                      new_report, reports_to_csv, run_ablations, run_crossval,
                      run_lowresource, save_reports, score_instances,
                      sweep_scanpaths)
from .gazegen import SOFT_CONVOLUTION, STRAIGHT_THROUGH, GumbelConfig
from .textenc import (TextEncoderConfig, Vocab, build_vocab, collate,
                      tokenize_whole)
from .trainkit import (GazeModel, TrainConfig, load_config, pretrain_generator,
                       train_joint)

SUITE_FILE = "suite.json"
SPLITS = ("train", "dev", "test")
MANIFEST = "manifest.json"
MODEL_META = "model.json"
VOCAB_FILE = "vocab.txt"
LOG_FILE = "log.jsonl"
REPORT_FILE = "report.json"
# model.json "kind" of the verbs that write one, and how errors name it
RUN_KINDS = {"joint": "joint-model", "gaze_pretrain": "gaze pretraining"}
GENERATE_BATCH = 64     # sentences per sampler call in generate
# what a model.json holds besides its model settings, by run kind
RUN_KEYS = {"joint": ("kind", "train", "task", "best_epoch", "best_dev_metric"),
            "gaze_pretrain": ("kind", "train", "best_epoch", "best_dev_nll")}


@dataclasses.dataclass(frozen=True)
class GazeFiles:
    train: str
    dev: str


@dataclasses.dataclass(frozen=True)
class TaskFiles:
    spec: DatasetSpec
    train: str
    dev: str
    test: str


@dataclasses.dataclass(frozen=True)
class SuiteFile:
    """suite.json, as make-synthetic writes it: the suite's seed, its gaze
    files and each task's spec and split files, named relative to the
    suite's directory."""

    seed: int
    gaze: GazeFiles
    tasks: dict[str, TaskFiles]


@dataclasses.dataclass(frozen=True)
class GazeRunConfig:
    """The model settings of a gaze-pretraining run, as model.json holds them."""

    text: TextEncoderConfig
    gen_hidden: int
    l_max: int


# -- plumbing ------------------------------------------------------------


def _write_json(path, obj) -> None:
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:10]


@contextlib.contextmanager
def _run_dir(args, cfg: TrainConfig | None, seed: int):
    """The verb's run directory and resolved settings, as a context.

    The settings are the verb's flags plus ``cfg``, if given. The directory
    is ``--out``, or else ``{verb}-{hash of the settings}-s{seed}`` under
    GAZENLU_RUNS. It is created on entry; if the body fails, a directory
    created here that is still empty is removed again.
    """
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k not in ("out", "func", "verb") and not callable(v)}
    if cfg is not None:
        resolved["train_config"] = dataclasses.asdict(cfg)
    path = args.out or os.path.join(
        os.environ.get("GAZENLU_RUNS", "runs"),
        f"{args.verb}-{_config_hash(resolved)}-s{seed}",
    )
    created = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    try:
        yield path, resolved
    except BaseException:
        if created and not os.listdir(path):
            os.rmdir(path)
        raise


def _fresh_log(run_dir: str) -> str:
    """The run's log.jsonl path, with a log of an earlier run removed."""
    path = os.path.join(run_dir, LOG_FILE)
    if os.path.exists(path):
        os.remove(path)
    return path


def _finish(args, run_dir: str, resolved: dict,
            reports: dict[str, EvalReport] | None) -> int:
    """Write the reports, if any, and the manifest; print the run directory."""
    if reports is not None:
        save_reports(os.path.join(run_dir, REPORT_FILE), reports)
    _write_json(os.path.join(run_dir, MANIFEST), {
        "verb": args.verb,
        "resolved_config": resolved,
        "created_unix": time.time(),
        "argv": sys.argv[1:],
    })
    print(run_dir)
    return 0


def _read_run(run_dir: str, kind: str, model_cls):
    """A run directory that ``kind`` wrote: (its ``model_cls`` settings,
    its TrainConfig, the vocabulary). model.json is read whole before the
    vocabulary, so a stale or missing key fails by name."""
    where = os.path.join(run_dir, MODEL_META)
    meta = _read_json(where)
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise ValueError(f"{run_dir}: not a {RUN_KINDS[kind]} run directory")
    model_cfg = _from_dict(model_cls, meta, where, RUN_KEYS[kind])
    cfg = _from_dict(TrainConfig, meta["train"], where, path="train")
    return model_cfg, cfg, Vocab.load(os.path.join(run_dir, VOCAB_FILE))


# -- config (de)serialization --------------------------------------------


def _model_meta(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    return {"kind": "joint", **dataclasses.asdict(model_cfg),
            "train": dataclasses.asdict(train_cfg)}


def _from_dict(cls, d, where: str, run_keys=(), path: str = ""):
    """``cls`` from the object at key path ``path`` of the file ``where``,
    as ``dataclasses.asdict`` wrote it. The object holds exactly the fields
    and ``run_keys``; a key ``cls`` does not have, or one the object lacks,
    fails by name, as in a run directory of another version. Each field's
    value is read by ``_typed``."""
    at = f"{where}: {path}" if path else where
    if not isinstance(d, dict):
        raise ValueError(f"{at}: expected an object, got {json.dumps(d)}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    found = [f"{what} key(s) {', '.join(keys)}" for what, keys in (
        ("unknown", sorted(set(d) - set(names) - set(run_keys))),
        ("missing", [k for k in (*names, *run_keys) if k not in d])) if keys]
    if found:
        raise ValueError(f"{at}: {'; '.join(found)}; the file was written "
                         f"by another gazenlu version, re-run it")
    return cls(**{name: _typed(hints[name], d[name], where,
                               f"{path}.{name}" if path else name)
                  for name in names})


# what a JSON value must be to fill a field of each plain type
_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "an object"}


def _typed(typ, value, where: str, path: str):
    """``value``, read from JSON at key path ``path`` of the file ``where``,
    as a value of the annotation ``typ``: a plain type of ``_KINDS`` (a
    float field also takes an integer, and a bool is no integer),
    ``X | None``, a list for a ``list[X]`` or, of its length, for a
    ``tuple[...]``, an object for a ``dict[str, X]`` or a dataclass. A
    mismatch raises ValueError naming the file, the key path and the
    value."""
    if dataclasses.is_dataclass(typ):
        return _from_dict(typ, value, where, path=path)
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (typ,) = [a for a in args if a is not type(None)]
        return _typed(typ, value, where, path)
    if origin in (list, tuple):
        what = "a list" if origin is list else f"a list of {len(args)}"
        if isinstance(value, list) and (origin is list or len(value) == len(args)):
            items = [_typed(args[0] if origin is list else args[i], v, where,
                            f"{path}[{i}]") for i, v in enumerate(value)]
            return items if origin is list else tuple(items)
    elif origin is dict:
        what = _KINDS[dict]
        if isinstance(value, dict):
            return {k: _typed(args[1], v, where, f"{path}.{k}") for k, v in value.items()}
    else:
        what = _KINDS[typ]
        if type(value) is typ or (typ is float and type(value) is int):
            return float(value) if typ is float else value
    raise ValueError(f"{where}: {path}: expected {what}, got {json.dumps(value)}")


def _read_suite(data_dir: str) -> SuiteFile:
    where = os.path.join(data_dir, SUITE_FILE)
    return _from_dict(SuiteFile, _read_json(where), where)


def _load_task(data_dir: str, task: str):
    suite = _read_suite(data_dir)
    if task not in suite.tasks:
        raise ValueError(f"task {task!r} not in {data_dir}/{SUITE_FILE} "
                         f"(have {sorted(suite.tasks)})")
    entry = suite.tasks[task]
    splits = {split: load_dataset(os.path.join(data_dir, getattr(entry, split)), entry.spec)
              for split in SPLITS}
    return entry.spec, splits


def _build_text_cfg(args, vocab: Vocab) -> TextEncoderConfig:
    return TextEncoderConfig(
        vocab_size=len(vocab.token_to_id), d_model=args.d_model,
        n_layers=args.n_layers, n_heads=args.n_heads, d_ff=args.d_ff,
        max_len=args.max_len,
    )


def _train_cfg_from_args(args, parser) -> TrainConfig:
    """The --config file, then the flags the verb takes; flag dests are the
    TrainConfig field names, and a flag given wins over the file."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
             if getattr(args, f.name, None) is not None}
    cfg = load_config(args.config, flags) if args.config else TrainConfig(**flags)
    if "lr" in vars(args) and cfg.lr is None:     # a joint-training verb
        if args.config:
            raise ValueError(f"{args.config}: no lr= key and no --lr flag")
        parser.error("--lr is required when no --config file is given")
    return cfg


# -- flags by phase ------------------------------------------------------


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """Encoder and generator shape, and the settings both phases read."""
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--gen-hidden", type=int, default=64)
    p.add_argument("--l-max", type=int, default=32)
    p.add_argument("--config", help="flat key=value file of TrainConfig fields")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--weight-decay", type=float)


def _add_joint_flags(p: argparse.ArgumentParser) -> None:
    """Settings only joint training reads. The gaze settings default to
    None, so that a flag given can be told from one left out."""
    p.add_argument("--lr", type=float)
    p.add_argument("--n-scanpaths", type=int, dest="n_scanpaths_train")
    p.add_argument("--freeze-generator", action=argparse.BooleanOptionalAction,
                   default=None)
    p.add_argument("--pretrained-generator",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--tau", type=float,
                   help=f"Gumbel-softmax temperature (default "
                        f"{GumbelConfig().temperature})")
    p.add_argument("--gumbel-mode", choices=[STRAIGHT_THROUGH, SOFT_CONVOLUTION])
    p.add_argument("--hard-eval", action="store_true", default=None)
    p.add_argument("--text-only", action="store_true",
                   help="no-gaze baseline: original-order content tokens")


# the settings only a gaze model reads, by flag dest: a text-only model
# has no generator, samples no paths and trains on one pass per instance
GAZE_FLAGS = {"generator": "--generator", "tau": "--tau",
              "gumbel_mode": "--gumbel-mode", "hard_eval": "--hard-eval",
              "n_scanpaths_train": "--n-scanpaths",
              "freeze_generator": "--freeze-generator",
              "pretrained_generator": "--pretrained-generator"}


def _check_text_only(args) -> None:
    """--text-only with a gaze setting given is an error naming the flags;
    the setting would be recorded in model.json but never used."""
    given = [flag for dest, flag in GAZE_FLAGS.items()
             if getattr(args, dest) is not None]
    if args.text_only and given:
        raise ValueError(f"--text-only trains no generator; drop "
                         f"{', '.join(given)}")


def _model_cfg_from_args(args, vocab: Vocab, spec: DatasetSpec) -> ModelConfig:
    default = GumbelConfig()
    return ModelConfig(
        text=_build_text_cfg(args, vocab),
        gen_hidden=args.gen_hidden,
        l_max=args.l_max,
        task_kind="regression" if spec.label_kind == "real" else "classification",
        n_classes=spec.n_classes,
        model_kind=TEXT_ONLY if args.text_only else GAZE,
        gumbel=GumbelConfig(
            temperature=default.temperature if args.tau is None else args.tau,
            mode=args.gumbel_mode or default.mode, hard_eval=bool(args.hard_eval)),
    )


def _experiment(args, parser):
    """Common setup for train/eval-style verbs: task, vocab, model, config."""
    _check_text_only(args)
    spec, splits = _load_task(args.data_dir, args.task)
    vocab = Vocab.load(args.vocab)
    cfg = _train_cfg_from_args(args, parser)
    model_cfg = _model_cfg_from_args(args, vocab, spec)
    gen_state = None
    if args.generator:
        gen_state = load_checkpoint(args.generator)
    return spec, splits, vocab, cfg, model_cfg, gen_state


# -- verbs ---------------------------------------------------------------


def cmd_make_synthetic(args, parser) -> int:
    suite = make_synthetic_suite(
        args.seed,
        n_gaze_train=args.n_gaze_train, n_gaze_dev=args.n_gaze_dev,
        readers=args.readers,
        n_keyword=tuple(args.n_keyword), n_pairs=tuple(args.n_pairs),
    )
    with _run_dir(args, None, args.seed) as (out, resolved):
        gaze = GazeFiles("gaze_train.tsv", "gaze_dev.tsv")
        write_gaze_corpus(os.path.join(out, gaze.train), suite.gaze_train)
        write_gaze_corpus(os.path.join(out, gaze.dev), suite.gaze_dev)
        tasks = {}
        for name, spec, splits in (
            ("keyword", suite.keyword_spec,
             (suite.keyword_train, suite.keyword_dev, suite.keyword_test)),
            ("pairs", suite.pairs_spec,
             (suite.pairs_train, suite.pairs_dev, suite.pairs_test)),
        ):
            tasks[name] = TaskFiles(spec, *(f"{name}_{split}.tsv" for split in SPLITS))
            for split, insts in zip(SPLITS, splits):
                write_dataset(os.path.join(out, getattr(tasks[name], split)), spec, insts)
        _write_json(os.path.join(out, SUITE_FILE),
                    dataclasses.asdict(SuiteFile(args.seed, gaze, tasks)))
        return _finish(args, out, resolved, None)


def cmd_build_vocab(args, parser) -> int:
    lines: list[str] = []
    for path in args.corpus or []:
        with open(path, encoding="utf-8") as f:
            lines.extend(line.rstrip("\n") for line in f if line.strip())
    if args.from_synthetic:
        d = args.from_synthetic
        suite = _read_suite(d)
        for name in (suite.gaze.train, suite.gaze.dev):
            lines.extend(rec.text for rec in load_gaze_corpus(os.path.join(d, name)))
        for entry in suite.tasks.values():
            for split in SPLITS:
                for inst in load_dataset(os.path.join(d, getattr(entry, split)), entry.spec):
                    lines.append(inst.text1)
                    if inst.text2 is not None:
                        lines.append(inst.text2)
    if not lines:
        raise ValueError("no corpus text: pass --corpus and/or --from-synthetic")
    vocab = build_vocab(lines, args.vocab_size)
    vocab.save(args.out)
    print(f"{args.out}: {len(vocab.token_to_id)} tokens")
    return 0


def cmd_pretrain_gaze(args, parser) -> int:
    vocab = Vocab.load(args.vocab)
    cfg = _train_cfg_from_args(args, parser)
    text_cfg = _build_text_cfg(args, vocab)
    model = GazeModel(text_cfg, gen_hidden=args.gen_hidden, l_max=args.l_max,
                      seed=cfg.seed)
    train_recs = load_gaze_corpus(args.train)
    dev_recs = load_gaze_corpus(args.dev)
    with _run_dir(args, cfg, cfg.seed) as (run_dir, resolved):
        state, hist = pretrain_generator(
            model, train_recs, dev_recs, vocab, cfg, log_path=_fresh_log(run_dir)
        )
        save_checkpoint(os.path.join(run_dir, "generator.ckpt"), state)
        vocab.save(os.path.join(run_dir, VOCAB_FILE))
        _write_json(os.path.join(run_dir, MODEL_META), {
            "kind": "gaze_pretrain",
            **dataclasses.asdict(GazeRunConfig(text_cfg, args.gen_hidden, args.l_max)),
            "train": dataclasses.asdict(cfg),
            "best_epoch": hist["best_epoch"],
            "best_dev_nll": hist["best_dev_nll"],
        })
        return _finish(args, run_dir, resolved, None)


def cmd_train(args, parser) -> int:
    spec, splits, vocab, cfg, model_cfg, gen_state = _experiment(args, parser)
    train_insts, dev_insts = splits["train"], splits["dev"]
    if args.k is not None:
        from .corpus import low_resource_split

        split = low_resource_split(len(train_insts), args.k,
                                   args.data_seed if args.data_seed is not None
                                   else cfg.seed)
        dev_insts = [train_insts[i] for i in split.dev_ids]
        train_insts = [train_insts[i] for i in split.train_ids]
    model = JointModel(model_cfg, RngState(cfg.seed, 0).substream("model"))
    with _run_dir(args, cfg, cfg.seed) as (run_dir, resolved):
        state, hist = train_joint(
            model, train_insts, dev_insts, vocab, cfg,
            metric_fn=metric_fn_for(spec.metric_id),
            generator_state=gen_state, log_path=_fresh_log(run_dir),
        )
        save_checkpoint(os.path.join(run_dir, "model.ckpt"), state)
        vocab.save(os.path.join(run_dir, VOCAB_FILE))
        meta = _model_meta(model_cfg, cfg)
        meta["task"] = args.task
        meta["best_epoch"] = hist["best_epoch"]
        meta["best_dev_metric"] = hist["best_dev_metric"]
        _write_json(os.path.join(run_dir, MODEL_META), meta)
        return _finish(args, run_dir, resolved, None)


def _restore(build, ckpt: str):
    """The model ``build(draws)`` makes, with every parameter read from the
    checkpoint ``ckpt``. ``draws`` is a ``ZeroDraws``: the load overwrites
    every parameter and refuses a checkpoint that lacks one, so a random
    initialisation would be drawn only to be thrown away. A checkpoint
    whose keys are not the model's fails as one ValueError naming it."""
    model = build(ZeroDraws())
    try:
        model.load_state_dict(load_checkpoint(ckpt))
    except KeyError as ex:
        raise ValueError(f"{ckpt}: {ex.args[0]}") from None
    return model


def _load_joint(run_dir: str):
    model_cfg, cfg, vocab = _read_run(run_dir, "joint", ModelConfig)
    ckpt = os.path.join(run_dir, "model.ckpt")
    model = _restore(lambda draws: JointModel(model_cfg, draws), ckpt)
    return model, vocab, cfg, ckpt


def cmd_evaluate(args, parser) -> int:
    model, vocab, cfg, ckpt = _load_joint(args.model)
    spec, splits = _load_task(args.data_dir, args.task)
    n_paths = cfg.n_scanpaths_train if args.n_scanpaths is None else args.n_scanpaths
    if n_paths < 1:
        raise ValueError(f"--n-scanpaths must be >= 1, got {n_paths}")
    hash_before = checkpoint_hash(ckpt)
    report = new_report(spec, split=args.split, n_scanpaths=n_paths,
                        model=args.model, seed=cfg.seed)
    try:
        report.values.append(score_instances(
            model, splits[args.split], vocab, n_paths,
            RngState(cfg.seed, 0).substream("evaluate", args.split), spec.metric_id,
        ))
        report.run_labels.append(args.split)
    except ValueError as ex:
        report.errors.append(str(ex))
    if checkpoint_hash(ckpt) != hash_before:
        raise RuntimeError("evaluation mutated the model checkpoint")

    with _run_dir(args, None, cfg.seed) as (run_dir, resolved):
        if report.values:
            print(f"{spec.metric_id} {report.values[0]:.6f}")
        else:
            print(f"{spec.metric_id} undefined: {report.errors[0]}")
        return _finish(args, run_dir, resolved, {"evaluate": report})


def cmd_generate(args, parser) -> int:
    if args.n_paths < 1:
        raise ValueError(f"--n-paths must be >= 1, got {args.n_paths}")
    run_cfg, _, vocab = _read_run(args.model, "gaze_pretrain", GazeRunConfig)
    text_cfg = run_cfg.text
    model = _restore(lambda draws: GazeModel(text_cfg, gen_hidden=run_cfg.gen_hidden,
                                             l_max=run_cfg.l_max, rng=draws),
                     os.path.join(args.model, "generator.ckpt"))
    model.eval()

    with open(args.input, encoding="utf-8") as f:
        lines = [(n, line.strip()) for n, line in enumerate(f, start=1)
                 if line.strip()]
    encs = [tokenize_whole(text, vocab, text_cfg.max_len, f"{args.input}:{n}")
            for n, text in lines]
    for (n, _), enc in zip(lines, encs):
        model.generator.check_width(enc.n_words, f"{args.input}:{n}")
    rng = RngState(args.seed, 0).substream("generate")
    rows = []
    with no_grad():
        for at in range(0, len(encs), GENERATE_BATCH):
            ids = range(at, min(at + GENERATE_BATCH, len(encs)))
            batch = collate([encs[i] for i in ids])
            pick, sampled = model.generator.sample_paths(
                model.word_states(batch, None), batch.word_counts,
                [f"s{i}" for i in ids], args.n_paths, rng, GumbelConfig())
            for r, b in enumerate(pick):
                rows.append({"sentence_id": f"s{ids[b]}",
                             "fixations": sampled.fixations[r],
                             "stopped": bool(sampled.stopped[r])})
    with atomic_write(args.out) as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"{args.out}: {len(rows)} scanpaths")
    return 0


def _driver_common(args, parser):
    spec, splits, vocab, cfg, model_cfg, gen_state = _experiment(args, parser)
    exp = Experiment(spec=spec, vocab=vocab, model_cfg=model_cfg,
                     generator_state=gen_state)
    return exp, splits, cfg


def cmd_crossval(args, parser) -> int:
    exp, splits, cfg = _driver_common(args, parser)
    instances = splits["train"] + splits["dev"] + splits["test"]
    report = run_crossval(exp, instances, cfg, folds=args.folds)
    with _run_dir(args, cfg, cfg.seed) as (run_dir, resolved):
        print(f"{report.metric_id} mean {report.mean:.4f} stderr {report.stderr:.4f} "
              f"over {len(report.values)} folds")
        return _finish(args, run_dir, resolved, {"crossval": report})


def cmd_lowresource(args, parser) -> int:
    exp, splits, cfg = _driver_common(args, parser)
    reports = run_lowresource(
        exp, splits["train"], splits["test"], cfg,
        Ks=args.ks, data_seeds=args.data_seeds,
    )
    with _run_dir(args, cfg, cfg.seed) as (run_dir, resolved):
        for name in sorted(reports):
            r = reports[name]
            print(f"{name}: {r.metric_id} mean {r.mean:.4f} stderr {r.stderr:.4f}")
        return _finish(args, run_dir, resolved, reports)


def cmd_sweep(args, parser) -> int:
    exp, splits, cfg = _driver_common(args, parser)
    points = sweep_scanpaths(
        exp, splits["train"], splits["dev"], splits["test"], cfg,
        counts=args.counts, seeds=args.seeds,
    )
    with _run_dir(args, cfg, cfg.seed) as (run_dir, resolved):
        reports_to_csv(os.path.join(run_dir, "curve.csv"), points)
        for count in args.counts:
            r = points[f"n{count}"]
            print(f"n_scanpaths={count}: mean {r.mean:.4f} stderr {r.stderr:.4f}")
        return _finish(args, run_dir, resolved, points)


def cmd_ablate(args, parser) -> int:
    exp, splits, cfg = _driver_common(args, parser)
    if exp.generator_state is None:
        parser.error("--generator checkpoint is required for ablations")
    reports = run_ablations(exp, splits["train"], splits["dev"],
                            splits["test"], cfg)
    with _run_dir(args, cfg, cfg.seed) as (run_dir, resolved):
        for name in ABLATIONS:
            print(f"{name}: {reports[name].metric_id} {reports[name].mean:.4f}")
        return _finish(args, run_dir, resolved, reports)


def load_reports(path) -> dict[str, EvalReport]:
    """The reports of a report file, each read as ``save_reports`` wrote it."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected an object, got {json.dumps(payload)}")
    return {name: _from_dict(EvalReport, d, path, ("mean", "stderr"), name)
            for name, d in payload.items()}


def cmd_report(args, parser) -> int:
    reports = load_reports(args.input)
    for name in sorted(reports):
        r = reports[name]
        line = (f"{name}: task={r.task} metric={r.metric_id} "
                f"mean={r.mean:.4f} stderr={r.stderr:.4f} runs={len(r.values)}")
        if r.errors:
            line += f" errors={len(r.errors)}"
        print(line)
    if args.csv:
        reports_to_csv(args.csv, reports)
        print(args.csv)
    return 0


# -- parser --------------------------------------------------------------


def _make_synthetic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-gaze-train", type=int, default=400)
    p.add_argument("--n-gaze-dev", type=int, default=100)
    p.add_argument("--readers", type=int, default=2)
    p.add_argument("--n-keyword", type=int, nargs=3, default=[2000, 500, 500],
                   metavar=("TRAIN", "DEV", "TEST"))
    p.add_argument("--n-pairs", type=int, nargs=3, default=[1000, 300, 300],
                   metavar=("TRAIN", "DEV", "TEST"))
    p.add_argument("--out")


def _build_vocab_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", action="append",
                   help="plain text file, one line per text (repeatable)")
    p.add_argument("--from-synthetic", help="synthetic suite directory")
    p.add_argument("--vocab-size", type=int, default=512)
    p.add_argument("--out", required=True)


def _pretrain_gaze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True, help="gaze corpus TSV")
    p.add_argument("--dev", required=True, help="held-out gaze corpus TSV")
    p.add_argument("--vocab", required=True)
    _add_shared_flags(p)
    p.add_argument("--pretrain-lr", type=float)
    p.add_argument("--out")


def _task_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every verb that trains a joint model on a task."""
    p.add_argument("--task", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--generator", help="pretrained generator checkpoint")
    _add_shared_flags(p)
    _add_joint_flags(p)
    p.add_argument("--out")


def _train_flags(p: argparse.ArgumentParser) -> None:
    _task_flags(p)
    p.add_argument("--k", type=int, help="low-resource training-set size")
    p.add_argument("--data-seed", type=int, help="shuffling seed for --k")


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="training run directory")
    p.add_argument("--task", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--n-scanpaths", type=int)
    p.add_argument("--out")


def _generate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="pretraining run directory")
    p.add_argument("--input", required=True, help="text file, one sentence per line")
    p.add_argument("--n-paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)


def _crossval_flags(p: argparse.ArgumentParser) -> None:
    _task_flags(p)
    p.add_argument("--folds", type=int, default=10)


def _lowresource_flags(p: argparse.ArgumentParser) -> None:
    _task_flags(p)
    p.add_argument("--ks", type=int, nargs="+", default=[200, 500, 1000])
    p.add_argument("--data-seeds", type=int, nargs="+",
                   default=[111, 222, 333, 444, 555])


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    _task_flags(p)
    p.add_argument("--counts", type=int, nargs="+", default=[1, 3, 5, 7])
    p.add_argument("--seeds", type=int, nargs="+", default=[42])


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="report.json path")
    p.add_argument("--csv", help="write flat CSV here")


# verb -> (its help line, the function adding its flags, its handler), in
# the order ``gazenlu --help`` lists them
VERBS = {
    "make-synthetic": ("write the synthetic benchmark suite", _make_synthetic_flags,
                       cmd_make_synthetic),
    "build-vocab": ("build a subword vocabulary", _build_vocab_flags, cmd_build_vocab),
    "pretrain-gaze": ("fit the generator to fixation data", _pretrain_gaze_flags,
                      cmd_pretrain_gaze),
    "train": ("joint fine-tuning on a labeled task", _train_flags, cmd_train),
    "evaluate": ("score a trained model on a split", _evaluate_flags, cmd_evaluate),
    "generate": ("sample scanpaths for input texts", _generate_flags, cmd_generate),
    "crossval": ("k-fold cross-validation protocol", _crossval_flags, cmd_crossval),
    "lowresource": ("low-resource protocol over data seeds", _lowresource_flags,
                    cmd_lowresource),
    "sweep": ("scanpath-count sweep", _sweep_flags, cmd_sweep),
    "ablate": ("full vs frozen vs scratch generator", _task_flags, cmd_ablate),
    "report": ("print a report file; optionally emit CSV", _report_flags, cmd_report),
}


def build_parser(verbs=VERBS) -> argparse.ArgumentParser:
    """The parser of the verbs ``verbs``, each with its flags; every verb
    by default. A parser of fewer verbs still lists every verb in its
    top-level usage, so what it prints for an argument list that starts
    with one of its verbs is what the full parser prints."""
    parser = argparse.ArgumentParser(
        prog="gazenlu",
        description="Scanpath-augmented language understanding pipeline",
    )
    verbs = list(verbs)
    every = "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True,
                                metavar=None if verbs == list(VERBS) else every)
    for name in verbs:
        help_text, add_flags, handler = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call builds the flags of the verb it names only; any other first
    # argument (--help, an unknown verb, none) gets every verb.
    parser = build_parser(argv[:1] if argv[:1] and argv[0] in VERBS else VERBS)
    args = parser.parse_args(argv)
    try:
        # A diverging run overflows long before it fails; the sampler's and
        # AdamW's finite checks report that as one error line, so numpy's
        # floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.func(args, parser)
    except (ValueError, OSError, KeyError, FloatingPointError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
