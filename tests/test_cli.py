"""End-to-end command-line pipeline in a temp directory."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazenlu import cli, trainkit
from gazenlu.augmentor import JointModel, ModelConfig
from gazenlu.cli import (VERBS, GazeRunConfig, _check_text_only, _from_dict, _model_meta,
                         _read_run, _restore, build_parser, load_reports, main)
from gazenlu.corpus import DatasetSpec, make_synthetic_suite
from gazenlu.diffcore import RngState, load_checkpoint, save_checkpoint
from gazenlu.gazegen import GumbelConfig
from gazenlu.textenc import TextEncoderConfig
from gazenlu.trainkit import GazeModel, TrainConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once: data -> vocab -> pretrain -> train."""
    root = tmp_path_factory.mktemp("cli")
    mp = pytest.MonkeyPatch()
    mp.setenv("GAZENLU_RUNS", str(root / "runs"))
    paths = {
        "root": root,
        "data": str(root / "data"),
        "vocab": str(root / "vocab.txt"),
        "pre": str(root / "pre"),
        "train": str(root / "joint"),
    }
    assert main([
        "make-synthetic", "--seed", "11", "--n-gaze-train", "30",
        "--n-gaze-dev", "10", "--n-keyword", "60", "20", "20",
        "--n-pairs", "30", "10", "10", "--out", paths["data"],
    ]) == 0
    assert main([
        "build-vocab", "--from-synthetic", paths["data"],
        "--vocab-size", "512", "--out", paths["vocab"],
    ]) == 0
    assert main([
        "pretrain-gaze",
        "--train", os.path.join(paths["data"], "gaze_train.tsv"),
        "--dev", os.path.join(paths["data"], "gaze_dev.tsv"),
        "--vocab", paths["vocab"], "--d-model", "32", "--n-layers", "1",
        "--d-ff", "64", "--gen-hidden", "32", "--max-epochs", "1",
        "--patience", "1", "--seed", "7", "--out", paths["pre"],
    ]) == 0
    assert main([
        "train", "--task", "keyword", "--data-dir", paths["data"],
        "--vocab", paths["vocab"],
        "--generator", os.path.join(paths["pre"], "generator.ckpt"),
        "--d-model", "32", "--n-layers", "1", "--d-ff", "64",
        "--gen-hidden", "32", "--lr", "1e-3", "--max-epochs", "1",
        "--n-scanpaths", "2", "--batch-size", "8", "--seed", "7",
        "--out", paths["train"],
    ]) == 0
    yield paths
    mp.undo()


def test_synthetic_dir_is_complete(pipeline):
    names = set(os.listdir(pipeline["data"]))
    expected = {"suite.json", "manifest.json", "gaze_train.tsv", "gaze_dev.tsv"}
    for task in ("keyword", "pairs"):
        expected |= {f"{task}_{s}.tsv" for s in ("train", "dev", "test")}
    assert expected <= names
    suite = json.load(open(os.path.join(pipeline["data"], "suite.json")))
    assert set(suite["tasks"]) == {"keyword", "pairs"}


def test_pretrain_run_dir_artifacts(pipeline):
    names = set(os.listdir(pipeline["pre"]))
    assert {"generator.ckpt", "model.json", "log.jsonl", "manifest.json",
            "vocab.txt"} <= names
    meta = json.load(open(os.path.join(pipeline["pre"], "model.json")))
    assert meta["kind"] == "gaze_pretrain"
    assert meta["best_epoch"] == 1
    log_rows = [json.loads(l) for l in
                open(os.path.join(pipeline["pre"], "log.jsonl"))]
    assert len(log_rows) == 1 and "dev_metric" in log_rows[0]


def test_train_run_dir_artifacts(pipeline):
    meta = json.load(open(os.path.join(pipeline["train"], "model.json")))
    assert meta["kind"] == "joint"
    assert meta["task"] == "keyword"
    assert meta["train"]["lr"] == 1e-3
    assert os.path.exists(os.path.join(pipeline["train"], "model.ckpt"))


def test_evaluate_writes_report_and_reruns_byte_identical(pipeline, capsys):
    outs = []
    for name in ("eval_a", "eval_b"):
        out = str(pipeline["root"] / name)
        assert main([
            "evaluate", "--model", pipeline["train"], "--task", "keyword",
            "--data-dir", pipeline["data"], "--split", "test", "--out", out,
        ]) == 0
        outs.append(out)
    printed = capsys.readouterr().out
    assert re.search(r"accuracy \d\.\d{6}", printed)
    a = open(os.path.join(outs[0], "report.json"), "rb").read()
    b = open(os.path.join(outs[1], "report.json"), "rb").read()
    assert a == b
    rep = load_reports(os.path.join(outs[0], "report.json"))["evaluate"]
    assert rep.run_labels == ["test"] and 0.0 <= rep.values[0] <= 1.0


# each protocol verb at a tiny size: its extra flags and, by report name,
# the run labels its report.json holds
PROTOCOLS = {
    "crossval": (["--folds", "2"], {"crossval": ["fold0", "fold1"]}),
    "lowresource": (["--ks", "20", "--data-seeds", "1"], {"K20": ["seed1"]}),
    "sweep": (["--counts", "1", "2"], {"n1": ["seed42"], "n2": ["seed42"]}),
    "ablate": ([], {"full": ["full"], "frozen": ["frozen"],
                    "scratch": ["scratch"]}),
}


@pytest.mark.parametrize("verb", sorted(PROTOCOLS))
def test_protocol_verb_writes_reports_and_reruns_byte_identical(pipeline, verb):
    flags, expected = PROTOCOLS[verb]
    outs = []
    for name in ("a", "b"):
        out = str(pipeline["root"] / f"{verb}_{name}")
        assert main([
            verb, "--task", "keyword", "--data-dir", pipeline["data"],
            "--vocab", pipeline["vocab"],
            "--generator", os.path.join(pipeline["pre"], "generator.ckpt"),
            "--d-model", "32", "--n-layers", "1", "--d-ff", "64",
            "--gen-hidden", "32", "--lr", "1e-3", "--max-epochs", "1",
            "--batch-size", "8", "--seed", "7", "--out", out,
        ] + flags) == 0
        outs.append(out)
    names = set(os.listdir(outs[0]))
    assert {"report.json", "manifest.json"} <= names
    assert ("curve.csv" in names) == (verb == "sweep")
    reports = load_reports(os.path.join(outs[0], "report.json"))
    assert {k: r.run_labels for k, r in reports.items()} == expected
    assert all(not r.errors and len(r.values) == len(r.run_labels)
               for r in reports.values())
    manifest = json.load(open(os.path.join(outs[0], "manifest.json")))
    assert manifest["verb"] == verb
    for name in ("report.json", "curve.csv"):
        if name in names:
            a, b = (open(os.path.join(o, name), "rb").read() for o in outs)
            assert a == b, name


@pytest.mark.parametrize("count", ["0", "-1"])
def test_evaluate_rejects_path_counts_below_one(pipeline, capsys, count):
    out = pipeline["root"] / f"eval_n{count}"
    assert main([
        "evaluate", "--model", pipeline["train"], "--task", "keyword",
        "--data-dir", pipeline["data"], "--n-scanpaths", count,
        "--out", str(out),
    ]) == 1
    assert f"--n-scanpaths must be >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_is_the_only_timestamped_artifact(pipeline):
    manifest = json.load(open(os.path.join(pipeline["train"], "manifest.json")))
    assert manifest["verb"] == "train"
    assert isinstance(manifest["created_unix"], float)
    assert manifest["resolved_config"]["train_config"]["max_epochs"] == 1
    # nothing else in the run dir mentions wall-clock time
    for name in os.listdir(pipeline["train"]):
        if name == "manifest.json":
            continue
        path = os.path.join(pipeline["train"], name)
        blob = open(path, "rb").read()
        assert b"created_unix" not in blob


def test_generate_emits_jsonl_scanpaths(pipeline):
    texts = pipeline["root"] / "texts.txt"
    texts.write_text("aa bb cc dd\nee ff gg\n")
    out = pipeline["root"] / "paths.jsonl"
    assert main([
        "generate", "--model", pipeline["pre"], "--input", str(texts),
        "--n-paths", "2", "--seed", "3", "--out", str(out),
    ]) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 4
    assert {r["sentence_id"] for r in rows} == {"s0", "s1"}
    for r in rows:
        assert set(r) == {"sentence_id", "fixations", "stopped"}
        n_words = 4 if r["sentence_id"] == "s0" else 3
        assert all(0 <= f < n_words for f in r["fixations"])
        assert len(r["fixations"]) >= 1
    # same seed, same file
    out2 = pipeline["root"] / "paths2.jsonl"
    assert main([
        "generate", "--model", pipeline["pre"], "--input", str(texts),
        "--n-paths", "2", "--seed", "3", "--out", str(out2),
    ]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_generate_paths_do_not_depend_on_later_sentences(pipeline):
    """Sentences are sampled in batches, yet the paths of a file's first
    sentences stay the same when longer sentences follow them."""
    root = pipeline["root"]
    first = ["aa bb cc dd", "ee ff"]
    more = ["gg hh ii jj kk ll mm nn", "oo pp qq", "rr ss tt uu vv ww"]
    outs = []
    for name, lines in (("few", first), ("many", first + more)):
        texts = root / f"{name}.txt"
        texts.write_text("\n".join(lines) + "\n")
        out = root / f"{name}.jsonl"
        assert main([
            "generate", "--model", pipeline["pre"], "--input", str(texts),
            "--n-paths", "3", "--seed", "5", "--out", str(out),
        ]) == 0
        outs.append(out.read_text().splitlines())
    assert len(outs[0]) == 6 and len(outs[1]) == 15
    assert outs[1][:6] == outs[0]


def _non_default(cls, value):
    """Assert that every field of dataclass ``value`` differs from its default."""
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert getattr(value, f.name) != f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(value, f.name) != f.default_factory(), f.name


def test_model_meta_round_trips_every_field():
    text = TextEncoderConfig(vocab_size=77, d_model=24, n_layers=3, n_heads=6,
                             d_ff=48, max_len=40)
    gumbel = GumbelConfig(temperature=0.3, mode="soft_convolution",
                          hard_eval=True)
    cfg = ModelConfig(text=text, gen_hidden=18, l_max=9,
                      task_kind="regression", n_classes=5,
                      model_kind="text_only", gumbel=gumbel)
    for cls, value in ((ModelConfig, cfg), (TextEncoderConfig, text),
                       (GumbelConfig, gumbel)):
        _non_default(cls, value)
    meta = json.loads(json.dumps(_model_meta(cfg, TrainConfig(lr=2e-4))))
    # the keys existing run directories hold
    assert set(meta) == {"kind", "text", "gen_hidden", "l_max", "task_kind",
                         "n_classes", "model_kind", "gumbel", "train"}
    assert meta["kind"] == "joint" and meta["train"]["lr"] == 2e-4
    assert meta["gumbel"] == {"temperature": 0.3, "mode": "soft_convolution",
                              "hard_eval": True}
    assert set(meta["text"]) == {"vocab_size", "d_model", "n_layers", "n_heads",
                                 "d_ff", "max_len"}
    assert "tau" not in meta["train"]
    assert _from_dict(ModelConfig, meta, "model.json", ("kind", "train")) == cfg


def test_dataset_spec_round_trips_through_suite_json(pipeline):
    suite = json.load(open(os.path.join(pipeline["data"], "suite.json")))
    made = make_synthetic_suite(11, n_gaze_train=2, n_gaze_dev=2,
                                n_keyword=(2, 2, 2), n_pairs=(2, 2, 2))
    for task, spec in (("keyword", made.keyword_spec),
                       ("pairs", made.pairs_spec)):
        assert _from_dict(DatasetSpec, suite["tasks"][task]["spec"], "spec") == spec
    spec = DatasetSpec("sim", fields="pair", label_kind="real",
                       metric_id="spearman", n_classes=1,
                       label_range=(1.0, 5.0))
    _non_default(DatasetSpec, spec)
    stored = json.loads(json.dumps(dataclasses.asdict(spec)))
    assert _from_dict(DatasetSpec, stored, "spec") == spec


# the flags only joint training reads, with a value where they take one
JOINT_ONLY = [["--lr", "1e-3"], ["--n-scanpaths", "2"], ["--tau", "0.5"],
              ["--freeze-generator"], ["--pretrained-generator"],
              ["--gumbel-mode", "soft_convolution"], ["--hard-eval"],
              ["--text-only"]]


def test_each_verb_rejects_flags_it_would_ignore():
    parser = build_parser()

    def rejected(argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        return exc.value.code == 2

    pretrain = ["pretrain-gaze", "--train", "t", "--dev", "d", "--vocab", "v"]
    parser.parse_args(pretrain + ["--pretrain-lr", "1e-3", "--seed", "1"])
    for flag in JOINT_ONLY:
        assert rejected(pretrain + flag), flag
    for verb in ("train", "crossval", "lowresource", "sweep", "ablate"):
        task = [verb, "--task", "k", "--data-dir", "d", "--vocab", "v"]
        parser.parse_args(task + [f for flag in JOINT_ONLY for f in flag])
        assert rejected(task + ["--pretrain-lr", "1e-3"]), verb
        # no flag selects a scan width or a shared encoder
        assert rejected(task + ["--scan-hidden", "8"]), verb
        assert rejected(task + ["--share-text-encoder"]), verb
    assert rejected(["build-vocab", "--out", "v", "--max-pieces-per-word", "4"])


# every setting a text-only model would record without reading it
GAZE_ONLY = [["--generator", "g.ckpt"], ["--tau", "3"],
             ["--gumbel-mode", "soft_convolution"], ["--hard-eval"],
             ["--n-scanpaths", "5"], ["--no-freeze-generator"],
             ["--pretrained-generator"]]


@pytest.mark.parametrize("verb", ["train", "crossval", "lowresource", "sweep",
                                  "ablate"])
def test_text_only_rejects_gaze_settings(pipeline, capsys, verb):
    task = [verb, "--task", "keyword", "--data-dir", pipeline["data"],
            "--vocab", pipeline["vocab"], "--lr", "1e-3", "--text-only"]
    out = pipeline["root"] / f"text_only_{verb}"
    for flag in GAZE_ONLY:
        assert main(task + flag + ["--out", str(out)]) == 1, flag
        assert f"drop {flag[0].replace('no-', '')}" in capsys.readouterr().err
    assert main(task + [f for flag in GAZE_ONLY for f in flag]) == 1
    err = capsys.readouterr().err
    assert all(flag[0].replace("no-", "") in err for flag in GAZE_ONLY), err
    assert not out.exists()


def test_tau_is_a_model_flag_not_a_config_key(pipeline, capsys):
    cfg_file = pipeline["root"] / "tau.cfg"
    cfg_file.write_text("lr=1e-3\ntau=0.5\n")
    assert main([
        "train", "--task", "keyword", "--data-dir", pipeline["data"],
        "--vocab", pipeline["vocab"], "--config", str(cfg_file),
        "--out", str(pipeline["root"] / "joint_tau"),
    ]) == 1
    assert re.search(r"tau\.cfg:2: unknown config key 'tau'", capsys.readouterr().err)


@pytest.mark.parametrize("line, message", [
    ("batch_size=abc", "batch_size expects an int, got 'abc'"),
    ("lr=fast", "lr expects a number, got 'fast'"),
])
def test_bad_config_value_exits_one_naming_file_line_and_key(pipeline, capsys,
                                                            line, message):
    cfg_file = pipeline["root"] / "bad_value.cfg"
    cfg_file.write_text(f"max_epochs=1\n{line}\n")
    out = pipeline["root"] / "joint_bad_value"
    assert main([
        "train", "--task", "keyword", "--data-dir", pipeline["data"],
        "--vocab", pipeline["vocab"], "--config", str(cfg_file), "--out", str(out),
    ]) == 1
    assert f"bad_value.cfg:2: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_config_needs_no_lr(pipeline):
    cfg_file = pipeline["root"] / "pre.cfg"
    cfg_file.write_text("pretrain_lr=2e-3\nmax_epochs=1\n")
    out = str(pipeline["root"] / "pre_cfg")
    assert main([
        "pretrain-gaze",
        "--train", os.path.join(pipeline["data"], "gaze_train.tsv"),
        "--dev", os.path.join(pipeline["data"], "gaze_dev.tsv"),
        "--vocab", pipeline["vocab"], "--d-model", "32", "--n-layers", "1",
        "--d-ff", "64", "--gen-hidden", "32", "--config", str(cfg_file),
        "--out", out,
    ]) == 0
    train = json.load(open(os.path.join(out, "model.json")))["train"]
    assert train["pretrain_lr"] == 2e-3 and train["lr"] is None


STALE = [("train", None, "scan_dropout"), ("train", None, "scan_hidden"),
         ("train", "text", "n_segments"),
         ("train", "text", "dropout"), ("train", "train", "tau"),
         ("pre", "text", "n_segments"), ("pre", "train", "tau"),
         ("pre", None, "scan_hidden")]
MISSING = [("train", None, "gen_hidden"), ("train", "gumbel", "mode"),
           ("train", None, "train"), ("train", "text", "d_model"),
           ("pre", None, "gen_hidden"), ("pre", None, "l_max"),
           ("pre", "text", "d_model"), ("pre", "train", "seed")]


@pytest.mark.parametrize("run, section, key, drop", [
    *(pytest.param(*case, False, id="-".join(map(str, case))) for case in STALE),
    *(pytest.param(*case, True, id="-".join(map(str, case)) + "-missing")
      for case in MISSING),
])
def test_stale_run_directory_exits_one_naming_the_key(pipeline, tmp_path, capsys,
                                                      run, section, key, drop):
    """model.json from another version, one key at a time: a stale key
    (before the single temperature, or holding the scan width the scan
    GRU no longer has), or a key the file lacks, even one whose field
    has a default."""
    meta = json.load(open(os.path.join(pipeline[run], "model.json")))
    where = meta[section] if section else meta
    if drop:
        del where[key]
    else:
        where[key] = 0.1
    (tmp_path / "model.json").write_text(json.dumps(meta))
    if run == "train":
        argv = ["evaluate", "--model", str(tmp_path), "--task", "keyword",
                "--data-dir", pipeline["data"], "--out", str(tmp_path / "e")]
    else:
        texts = tmp_path / "texts.txt"
        texts.write_text("aa bb\n")
        argv = ["generate", "--model", str(tmp_path), "--input", str(texts),
                "--out", str(tmp_path / "paths.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "model.json" in err and key in err
    assert ("missing key(s)" if drop else "unknown key(s)") in err


DROP = object()


def _set(obj, path, value):
    """Set the key at ``path`` of a JSON value, or delete it for DROP."""
    *parents, key = path
    for k in parents:
        obj = obj[k]
    if value is DROP:
        del obj[key]
    else:
        obj[key] = value


REPORT = {"x": {"task": "kw", "metric_id": "accuracy", "values": [0.5],
                "run_labels": ["s1"], "config": {}, "errors": [], "mean": 0.5,
                "stderr": 0.0}}


@pytest.mark.parametrize("file, path, value, message", [
    ("model.json", ("train", "batch_size"), "abc",
     'model.json: train.batch_size: expected an integer, got "abc"'),
    ("model.json", ("train", "seed"), "7", 'model.json: train.seed: expected an integer, got "7"'),
    ("model.json", ("train", "patience"), True,
     "model.json: train.patience: expected an integer, got true"),
    ("model.json", ("train", "lr"), [1], "model.json: train.lr: expected a number, got [1]"),
    ("model.json", ("gumbel", "hard_eval"), 0,
     "model.json: gumbel.hard_eval: expected true or false, got 0"),
    ("model.json", ("text",), 64, "model.json: text: expected an object, got 64"),
    ("suite.json", ("tasks", "keyword", "spec", "label_range"), 5,
     "suite.json: tasks.keyword.spec.label_range: expected a list of 2, got 5"),
    ("suite.json", ("tasks", "keyword", "spec", "label_range"), [0, "1"],
     'suite.json: tasks.keyword.spec.label_range[1]: expected a number, got "1"'),
    ("report.json", ("x", "values"), DROP, "report.json: x: missing key(s) values"),
    ("report.json", ("x", "values", 0), "a",
     'report.json: x.values[0]: expected a number, got "a"'),
    ("report.json", ("x",), 5, "report.json: x: expected an object, got 5"),
])
def test_setting_of_the_wrong_type_exits_one_naming_the_key(pipeline, tmp_path, capsys,
                                                            file, path, value, message):
    """Every settings and report file is read against its fields' types: a
    value of another type exits 1 with the file, the key path and the
    value, never a traceback from deeper in."""
    source = {"model.json": os.path.join(pipeline["train"], "model.json"),
              "suite.json": os.path.join(pipeline["data"], "suite.json")}
    data = json.load(open(source[file])) if file in source else json.loads(json.dumps(REPORT))
    _set(data, path, value)
    (tmp_path / file).write_text(json.dumps(data))
    argv = {"model.json": ["evaluate", "--model", str(tmp_path), "--task", "keyword",
                           "--data-dir", pipeline["data"], "--out", str(tmp_path / "e")],
            "suite.json": ["train", "--task", "keyword", "--data-dir", str(tmp_path),
                           "--vocab", pipeline["vocab"], "--text-only", "--lr", "1e-3",
                           "--out", str(tmp_path / "t")],
            "report.json": ["report", "--input", str(tmp_path / "report.json")]}[file]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("tasks",), 5, "suite.json: tasks: expected an object, got 5"),
    (("tasks", "keyword", "train"), 7,
     "suite.json: tasks.keyword.train: expected a string, got 7"),
    (("gaze", "dev"), DROP, "suite.json: gaze: missing key(s) dev"),
])
@pytest.mark.parametrize("verb", ["train", "build-vocab"])
def test_suite_file_of_the_wrong_shape_exits_one_naming_the_key(pipeline, tmp_path, capsys,
                                                                path, value, message, verb):
    """suite.json is read whole against ``SuiteFile`` before any file it
    names: a wrong shape anywhere in it exits 1 with one error line."""
    data = json.load(open(os.path.join(pipeline["data"], "suite.json")))
    _set(data, path, value)
    (tmp_path / "suite.json").write_text(json.dumps(data))
    argv = {"train": ["train", "--task", "keyword", "--data-dir", str(tmp_path),
                      "--vocab", pipeline["vocab"], "--text-only", "--lr", "1e-3",
                      "--out", str(tmp_path / "t")],
            "build-vocab": ["build-vocab", "--from-synthetic", str(tmp_path),
                            "--out", str(tmp_path / "vocab.txt")]}[verb]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not (tmp_path / "t").exists() and not (tmp_path / "vocab.txt").exists()


def test_number_fields_take_integers_as_floats():
    cfg = _from_dict(TrainConfig, {**dataclasses.asdict(TrainConfig()), "lr": 1},
                     "model.json", path="train")
    assert cfg.lr == 1.0 and type(cfg.lr) is float


def test_generate_rejects_overlong_line_before_sampling(pipeline, capsys):
    texts = pipeline["root"] / "long.txt"
    texts.write_text("aa bb\n\n" + " ".join(["x"] * 40) + "\n")
    out = pipeline["root"] / "long.jsonl"
    assert main(["generate", "--model", pipeline["pre"], "--input", str(texts),
                 "--out", str(out)]) == 1
    assert f"{texts}:3: 40 words exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_line_truncated_by_max_len(pipeline, capsys):
    """A line that max_len would shorten gets no paths over its first
    words only: it fails by file and line number."""
    texts = pipeline["root"] / "wide.txt"
    texts.write_text("aa bb\n" + " ".join(["aa"] + ["@" * 16] * 4) + "\n")
    out = pipeline["root"] / "wide.jsonl"
    assert main(["generate", "--model", pipeline["pre"], "--input", str(texts),
                 "--out", str(out)]) == 1
    assert f"{texts}:2: max_len=64 keeps 4 of its 5 words" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_rejects_max_len_that_truncates_before_training(
        pipeline, capsys, monkeypatch, tmp_path):
    steps = []
    step = trainkit.AdamW.step
    monkeypatch.setattr(trainkit.AdamW, "step",
                        lambda self: steps.append(1) or step(self))
    assert main([
        "pretrain-gaze",
        "--train", os.path.join(pipeline["data"], "gaze_train.tsv"),
        "--dev", os.path.join(pipeline["data"], "gaze_dev.tsv"),
        "--vocab", pipeline["vocab"], "--d-model", "32", "--n-layers", "1",
        "--d-ff", "64", "--gen-hidden", "32", "--max-len", "6",
        "--max-epochs", "1", "--out", str(tmp_path / "pre"),
    ]) == 1
    err = capsys.readouterr().err
    assert re.search(r"gaze sentence \S+ \(reader \S+\): max_len=6 keeps \d+ of "
                     r"its \d+ words", err), err
    assert steps == []


def test_train_rejects_empty_sentence_naming_file_and_line(pipeline, capsys,
                                                           tmp_path):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    tsv = data / "keyword_train.tsv"
    lines = tsv.read_text().splitlines(keepends=True)
    lines[2] = " \t" + lines[2].split("\t")[1]
    tsv.write_text("".join(lines))
    out = tmp_path / "joint"
    assert main([
        "train", "--task", "keyword", "--data-dir", str(data),
        "--vocab", pipeline["vocab"], "--lr", "1e-3", "--text-only",
        "--out", str(out),
    ]) == 1
    assert f"error: {tsv}:3: sentence1 is empty" in capsys.readouterr().err
    assert not out.exists()


def test_report_verb_prints_and_exports_csv(pipeline, capsys):
    eval_dir = str(pipeline["root"] / "eval_a")
    csv_out = str(pipeline["root"] / "flat.csv")
    assert main(["report", "--input",
                 os.path.join(eval_dir, "report.json"), "--csv", csv_out]) == 0
    printed = capsys.readouterr().out
    assert "evaluate: task=keyword metric=accuracy" in printed
    lines = open(csv_out).read().strip().splitlines()
    assert lines[0] == "name,task,metric,config,run,value"
    assert len(lines) == 2


def test_hash_named_run_dir_under_runs_root(pipeline, capsys):
    assert main([
        "evaluate", "--model", pipeline["train"], "--task", "keyword",
        "--data-dir", pipeline["data"], "--split", "dev",
    ]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.dirname(run_dir) == os.environ["GAZENLU_RUNS"]
    assert re.fullmatch(r"evaluate-[0-9a-f]{10}-s7", os.path.basename(run_dir))


def test_config_file_with_flag_override(pipeline):
    cfg_file = pipeline["root"] / "train.cfg"
    cfg_file.write_text("lr = 2e-3\nmax_epochs = 5\nbatch_size = 8\n")
    out = str(pipeline["root"] / "joint_cfg")
    assert main([
        "train", "--task", "keyword", "--data-dir", pipeline["data"],
        "--vocab", pipeline["vocab"], "--text-only", "--d-model", "32",
        "--n-layers", "1", "--d-ff", "64", "--config", str(cfg_file),
        "--max-epochs", "1", "--seed", "7", "--out", out,
    ]) == 0
    meta = json.load(open(os.path.join(out, "model.json")))
    assert meta["train"]["lr"] == 2e-3       # from the file
    assert meta["train"]["max_epochs"] == 1  # flag wins
    assert meta["model_kind"] == "text_only"


def test_validation_failure_exits_one(pipeline, capsys):
    assert main([
        "evaluate", "--model", pipeline["train"], "--task", "nope",
        "--data-dir", pipeline["data"],
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two(pipeline):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--task", "keyword", "--data-dir", pipeline["data"],
              "--vocab", pipeline["vocab"]])  # no --lr and no --config
    assert exc.value.code == 2


# -- numeric flag ranges ---------------------------------------------------


def _ints_below(low):
    return st.integers(min_value=-10**6, max_value=low - 1).map(str)


# not finite, or not above 0 (at or below 0 for >= 0)
def _bad_rates(zero_ok=False):
    return st.one_of(st.floats(max_value=0.0, exclude_max=zero_ok),
                     st.sampled_from([math.nan, math.inf])).map(repr)


# flag -> (the setting its error names, out-of-range values)
SHARED_RANGES = {
    "--d-model": ("d_model", _ints_below(1)),
    "--n-layers": ("n_layers", _ints_below(0)),
    "--n-heads": ("n_heads", _ints_below(1)),
    "--d-ff": ("d_ff", _ints_below(1)),
    "--max-len": ("max_len", _ints_below(1)),
    "--gen-hidden": ("d_hidden", st.one_of(
        _ints_below(2), st.integers(1, 500).map(lambda n: str(2 * n + 1)))),
    "--l-max": ("l_max", _ints_below(2)),
    "--batch-size": ("batch_size", _ints_below(1)),
    "--max-epochs": ("max_epochs", _ints_below(0)),
    "--patience": ("patience", _ints_below(1)),
    "--weight-decay": ("weight_decay", _bad_rates(zero_ok=True)),
}
# three counts, one of them out of range
def _bad_count_triples():
    return st.permutations([_ints_below(0), st.integers(0, 5).map(str),
                            st.integers(0, 5).map(str)]).flatmap(
        lambda parts: st.tuples(*parts).map(" ".join))


VERB_RANGES = {
    "make-synthetic": {
        "--n-gaze-train": ("n_gaze_train", _ints_below(0)),
        "--n-gaze-dev": ("n_gaze_dev", _ints_below(0)),
        "--readers": ("readers", _ints_below(1)),
        "--n-keyword": ("n_keyword", _bad_count_triples()),
        "--n-pairs": ("n_pairs", _bad_count_triples()),
    },
    "pretrain-gaze": {**SHARED_RANGES, "--pretrain-lr": ("pretrain_lr", _bad_rates())},
    "train": {**SHARED_RANGES, "--lr": ("lr", _bad_rates()),
              "--tau": ("temperature", _bad_rates()),
              "--n-scanpaths": ("n_scanpaths_train", _ints_below(1))},
}


def _verb_argv(pipeline, verb):
    if verb == "make-synthetic":
        return [verb, "--seed", "11", "--n-gaze-train", "4", "--n-gaze-dev", "2",
                "--n-keyword", "4", "2", "2", "--n-pairs", "4", "2", "2"]
    shape = ["--d-model", "32", "--n-layers", "1", "--d-ff", "64",
             "--gen-hidden", "32", "--max-epochs", "1", "--seed", "7"]
    if verb == "pretrain-gaze":
        return [verb, "--train", os.path.join(pipeline["data"], "gaze_train.tsv"),
                "--dev", os.path.join(pipeline["data"], "gaze_dev.tsv"),
                "--vocab", pipeline["vocab"]] + shape
    return [verb, "--task", "keyword", "--data-dir", pipeline["data"],
            "--vocab", pipeline["vocab"],
            "--generator", os.path.join(pipeline["pre"], "generator.ckpt"),
            "--lr", "1e-3", "--batch-size", "8"] + shape


@pytest.mark.parametrize("verb", sorted(VERB_RANGES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_out_of_range_numeric_flag_exits_one_naming_the_setting(pipeline, verb,
                                                                data):
    """Each bad value fails where the settings are built: exit 1, one
    `error:` line naming the setting, no traceback, no run directory."""
    flag = data.draw(st.sampled_from(sorted(VERB_RANGES[verb])), label="flag")
    name, values = VERB_RANGES[verb][flag]
    value = data.draw(values, label="value")
    out = pipeline["root"] / "bad_value_run"
    err = io.StringIO()
    # a three-count flag takes its counts as separate arguments
    given = [flag, *value.split()] if " " in value else [f"{flag}={value}"]
    with contextlib.redirect_stderr(err):
        # the flag given last wins over the valid one in the base argv
        code = main(_verb_argv(pipeline, verb) + given + ["--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert name in lines[0] and "Traceback" not in err.getvalue()
    assert not out.exists()


def _runtime_warnings(caught) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def test_diverging_lr_exits_one_before_sampling_a_nan_path(pipeline, capsys,
                                                           tmp_path):
    """At lr=1e30 the first update makes the generator non-finite; the
    next sampler call fails naming its step instead of indexing a
    NaN row's argmax off the sentence, with no numpy warning before it."""
    out = tmp_path / "joint"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_verb_argv(pipeline, "train") + ["--lr", "1e30", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert not _runtime_warnings(caught)
    assert re.fullmatch(r"error: sampler step \d+: .* not finite .*\n", err), err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("flags, name", [
    (["--gen-hidden", "0"], "d_hidden"), (["--gen-hidden", "7"], "d_hidden"),
    (["--l-max", "1"], "l_max"), (["--gen-hidden", "0", "--l-max", "0"], "d_hidden"),
])
def test_text_only_rejects_generator_sizes_out_of_range(pipeline, flags, name):
    """A text-only model builds no generator, but its model.json records
    the generator sizes; they obey the generator's range rules."""
    out = pipeline["root"] / "text_only_sizes"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--task", "keyword", "--data-dir", pipeline["data"],
                     "--vocab", pipeline["vocab"], "--lr", "1e-3", "--text-only",
                     *flags, "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines
    assert "Traceback" not in err.getvalue()
    assert not out.exists()


def _failing_run_argv(pipeline, verb):
    """A run that fails after its run directory is made: at lr=1e30 the
    sampler meets a non-finite generator; at l_max=3 the gaze sentences
    are wider than the generator's span."""
    if verb == "train":
        return _verb_argv(pipeline, "train") + ["--lr", "1e30"]
    return _verb_argv(pipeline, "pretrain-gaze") + ["--l-max", "3"]


@pytest.mark.parametrize("verb", ["train", "pretrain-gaze"])
def test_failed_run_leaves_no_directory_behind(pipeline, capsys, tmp_path, verb):
    """A run that fails before writing an artifact removes the directory
    it made, under --out or hash-named under GAZENLU_RUNS; a directory
    that was there before stays."""
    argv = _failing_run_argv(pipeline, verb)
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 1
    assert not _runtime_warnings(caught)
    assert not out.exists()
    runs = tmp_path / "runs"
    runs.mkdir()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GAZENLU_RUNS", str(runs))
        assert main(argv) == 1
    assert list(runs.iterdir()) == []
    out.mkdir()
    assert main(argv + ["--out", str(out)]) == 1
    assert out.is_dir()
    assert capsys.readouterr().err.count("error: ") == 3


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# records its argv (fields ended by \x1f, the call by \x1e) and makes the
# --out directory the next command of a script may write into
STUB_GAZENLU = """#!/usr/bin/env bash
{ printf '%s\\x1f' "$@"; printf '\\x1e'; } >> "$GAZENLU_STUB_LOG"
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ ${args[i]} == --out ]]; then mkdir -p "${args[i + 1]}"; fi
done
"""


def test_scripts_call_the_cli_with_flags_it_accepts(tmp_path):
    """Every scripts/*.sh runs under bash against a stub gazenlu, from a
    copy in a temp directory; each command line it issues parses with the
    real parser, and a text-only one sets no gaze flag."""
    stub_dir = tmp_path / "bin"
    stub_dir.mkdir()
    (stub_dir / "gazenlu").write_text(STUB_GAZENLU)
    (stub_dir / "gazenlu").chmod(0o755)
    shutil.copytree(SCRIPTS, tmp_path / "scripts")
    parser = build_parser()
    scripts = sorted(SCRIPTS.glob("*.sh"))
    assert scripts
    for script in scripts:
        log = tmp_path / f"{script.stem}.log"
        env = {**os.environ, "PATH": f"{stub_dir}{os.pathsep}{os.environ['PATH']}",
               "GAZENLU_STUB_LOG": str(log)}
        done = subprocess.run(["bash", str(tmp_path / "scripts" / script.name)],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, (script.name, done.stderr)
        calls = [c.split("\x1f")[:-1] for c in log.read_text().split("\x1e")[:-1]]
        assert calls, script.name
        for argv in calls:
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{script.name}: gazenlu {' '.join(argv)} does not parse")
            if getattr(args, "text_only", False):
                _check_text_only(args)


def _parse_outcome(parse, argv) -> tuple:
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def _usage_cases():
    """Per verb: --help, a required flag left out (for a verb that has
    one) and an unrecognized argument after every required flag; then an
    unknown verb, no verb and a top-level --help."""
    full = build_parser()
    (sub,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    for verb in VERBS:
        required = [a.option_strings[0] for a in sub.choices[verb]._actions
                    if a.required]
        given = [x for flag in required for x in (flag, "x")]
        yield [verb, "--help"]
        if required:
            yield [verb, *given[:-2]]
        yield [verb, *given, "--no-such-flag"]
    yield from (["no-such-verb"], [], ["--help"])


@pytest.mark.parametrize("argv", list(_usage_cases()), ids=" ".join)
def test_main_parses_as_the_full_parser_does(argv):
    """What ``main`` prints and exits with for a usage error or a help
    request, from the one verb's parser it builds, is byte for byte what
    the parser of every verb gives."""
    want = _parse_outcome(build_parser().parse_args, argv)
    assert _parse_outcome(main, argv) == want
    assert want[0] in (0, 2)


def _gaze_model(run_dir: str, draws) -> GazeModel:
    run_cfg, _, _ = _read_run(run_dir, "gaze_pretrain", GazeRunConfig)
    return GazeModel(run_cfg.text, gen_hidden=run_cfg.gen_hidden, l_max=run_cfg.l_max,
                     rng=draws)


def _joint_model(run_dir: str, draws) -> JointModel:
    return JointModel(_read_run(run_dir, "joint", ModelConfig)[0], draws)


def test_restored_models_hold_their_checkpoints_and_draw_nothing(pipeline, monkeypatch):
    """A model restored from its run's checkpoint holds the checkpoint,
    array for array, name for name and dtype for dtype, and its build
    draws no value from any stream."""
    def no_draw(self, shape=()):
        raise AssertionError("a restored model drew an initial value")

    monkeypatch.setattr(RngState, "uniform", no_draw)
    monkeypatch.setattr(RngState, "normal", no_draw)
    for run, build, name in (("pre", _gaze_model, "generator.ckpt"),
                             ("train", _joint_model, "model.ckpt")):
        ckpt = os.path.join(pipeline[run], name)
        state = _restore(lambda draws: build(pipeline[run], draws), ckpt).state_dict()
        want = load_checkpoint(ckpt)
        assert list(state) == list(want)
        for key, arr in want.items():
            assert state[key].dtype == arr.dtype and np.array_equal(state[key], arr), key


def test_generate_writes_what_a_seeded_model_would(pipeline, tmp_path, monkeypatch):
    """``generate`` through the restore path writes the file a model
    initialised from its seed and then loaded writes, byte for byte."""
    texts = tmp_path / "texts.txt"
    texts.write_text("aa bb cc dd\nee ff gg\nhh ii\n")

    def generate(out):
        argv = ["generate", "--model", pipeline["pre"], "--input", str(texts),
                "--n-paths", "3", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    restored = generate(tmp_path / "restored.jsonl")

    def seeded(build, ckpt):
        model = build(RngState(7, 0))
        model.load_state_dict(load_checkpoint(ckpt))
        return model

    monkeypatch.setattr(cli, "_restore", seeded)
    assert generate(tmp_path / "seeded.jsonl") == restored


@pytest.mark.parametrize("verb", ["generate", "evaluate"])
def test_checkpoint_key_mismatch_exits_one_naming_the_file_and_keys(
        pipeline, tmp_path, capsys, verb):
    """A checkpoint that lacks one of the model's keys and has one it
    does not know fails with one ``error:`` line, without quotes, that
    names the checkpoint and both keys."""
    run = pipeline["pre" if verb == "generate" else "train"]
    name = "generator.ckpt" if verb == "generate" else "model.ckpt"
    run_dir = tmp_path / "run"
    shutil.copytree(run, run_dir)
    state = load_checkpoint(run_dir / name)
    dropped = sorted(state)[-1]
    state["stray.w"] = state.pop(dropped)
    save_checkpoint(run_dir / name, state)
    if verb == "generate":
        texts = tmp_path / "texts.txt"
        texts.write_text("aa bb\n")
        argv = ["generate", "--model", str(run_dir), "--input", str(texts),
                "--out", str(tmp_path / "paths.jsonl")]
    else:
        argv = ["evaluate", "--model", str(run_dir), "--task", "keyword",
                "--data-dir", pipeline["data"], "--out", str(tmp_path / "e")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {run_dir / name}: state mismatch, missing: {dropped}; "
                   f"unexpected: stray.w\n")
