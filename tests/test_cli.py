"""End-to-end command-line pipeline in a temp directory."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazenlu import trainkit
from gazenlu.augmentor import ModelConfig
from gazenlu.cli import (_model_cfg_from_meta, _model_meta, _spec_from_dict,
                         build_parser, main)
from gazenlu.corpus import DatasetSpec, make_synthetic_suite
from gazenlu.evalkit import load_reports
from gazenlu.gazegen import GumbelConfig
from gazenlu.textenc import TextEncoderConfig
from gazenlu.trainkit import TrainConfig


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
    assert _model_cfg_from_meta(meta, "model.json") == cfg


def test_dataset_spec_round_trips_through_suite_json(pipeline):
    suite = json.load(open(os.path.join(pipeline["data"], "suite.json")))
    made = make_synthetic_suite(11, n_gaze_train=2, n_gaze_dev=2,
                                n_keyword=(2, 2, 2), n_pairs=(2, 2, 2))
    for task, spec in (("keyword", made.keyword_spec),
                       ("pairs", made.pairs_spec)):
        assert _spec_from_dict(suite["tasks"][task]["spec"]) == spec
    spec = DatasetSpec("sim", fields="pair", label_kind="real",
                       metric_id="spearman", n_classes=1,
                       label_range=(1.0, 5.0))
    _non_default(DatasetSpec, spec)
    stored = json.loads(json.dumps(dataclasses.asdict(spec)))
    assert _spec_from_dict(stored) == spec


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


@pytest.mark.parametrize("run, section, key", [
    ("train", None, "scan_dropout"), ("train", None, "scan_hidden"),
    ("train", "text", "n_segments"),
    ("train", "text", "dropout"), ("train", "train", "tau"),
    ("pre", "text", "n_segments"), ("pre", "train", "tau"),
])
def test_stale_run_directory_exits_one_naming_the_key(pipeline, tmp_path,
                                                      capsys, run, section, key):
    """model.json from an older version (before the single temperature,
    or holding the scan width the scan GRU no longer has), one stale key
    at a time."""
    meta = json.load(open(os.path.join(pipeline[run], "model.json")))
    (meta[section] if section else meta)[key] = 0.1
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
VERB_RANGES = {
    "pretrain-gaze": {**SHARED_RANGES, "--pretrain-lr": ("pretrain_lr", _bad_rates())},
    "train": {**SHARED_RANGES, "--lr": ("lr", _bad_rates()),
              "--tau": ("temperature", _bad_rates()),
              "--n-scanpaths": ("n_scanpaths_train", _ints_below(1))},
}


def _verb_argv(pipeline, verb):
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
    with contextlib.redirect_stderr(err):
        # the flag given last wins over the valid one in the base argv
        code = main(_verb_argv(pipeline, verb) + [f"{flag}={value}", "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert name in lines[0] and "Traceback" not in err.getvalue()
    assert not out.exists()


def test_diverging_lr_exits_one_before_sampling_a_nan_path(pipeline, capsys,
                                                           tmp_path):
    """At lr=1e30 the first update makes the generator non-finite; the
    next sampler call fails naming its step instead of indexing a
    NaN row's argmax off the sentence."""
    out = tmp_path / "joint"
    code = main(_verb_argv(pipeline, "train") + ["--lr", "1e30", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(r"error: sampler step \d+: .* not finite .*\n", err), err
    assert not (out / "model.ckpt").exists()
