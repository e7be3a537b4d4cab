"""The names the benchmark (perfbench/) hooks and calls.

perfbench wraps functions and methods by name and reads their arguments
by parameter name; a wrapper whose target is gone is skipped without a
word, so its metrics read 0, and a renamed field crashes the probe.
These tests fail first.
"""

import dataclasses
import inspect

import numpy as np

from gazenlu import cli, corpus, textenc, trainkit
from gazenlu.augmentor import JointModel, ModelConfig, ScanpathEncoder
from gazenlu.diffcore import RngState, Tensor
from gazenlu.gazegen import (SOFT_CONVOLUTION, GumbelConfig, SampledBatch,
                             ScanpathGenerator)
from gazenlu.textenc import TextEncoderConfig
from gazenlu.trainkit import AdamW, GazeModel

# (owner, attribute) pairs the tracer and the probe wrap
HOOKED = [
    (textenc, "collate"), (textenc, "tokenize"), (corpus, "make_synthetic_suite"),
    (trainkit, "predict_instances"), (trainkit, "train_joint"),
    (trainkit, "pretrain_generator"), (cli, "cmd_generate"),
    (ScanpathGenerator, "encode_words_batch"), (ScanpathGenerator, "sample_gumbel_batch"),
    (ScanpathGenerator, "nll_batch"), (ScanpathGenerator, "decode_logits_batch"),
    (ScanpathGenerator, "history_step"), (JointModel, "loss_pairs"),
    (JointModel, "predict_batch"), (JointModel, "__init__"), (AdamW, "step"),
    (textenc.TextEncoder, "forward_batch"), (ScanpathEncoder, "run_steps"),
    (GazeModel, "batch_nll"), (Tensor, "backward"),
]


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_hooked_functions_and_methods_exist():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in HOOKED
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


def test_hooked_parameters_keep_their_names():
    """The wrappers read these arguments by name."""
    assert _params(ScanpathEncoder.run_steps)[1] == "steps"
    sample = _params(ScanpathGenerator.sample_gumbel_batch)
    assert {"word_states", "counts", "cfg", "max_fixations"} <= set(sample)
    assert _params(ScanpathGenerator.nll_batch)[-1] == "paths"
    assert _params(JointModel.predict_batch)[1] == "batch"
    assert _params(AdamW.step) == ["self"]


def test_sampled_batch_fields():
    """The probe reads ``row_mask``, ``fixations`` and ``stopped``."""
    assert [f.name for f in dataclasses.fields(SampledBatch)] == [
        "rows", "row_mask", "fixations", "stopped"]


def test_workload_constructors_and_optimizer_slots():
    """The calls the workloads make, by keyword, and the optimizer's
    (name, parameter) slots the probe reads before each step."""
    text = TextEncoderConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2,
                             d_ff=32, max_len=16)
    gaze = GazeModel(text, gen_hidden=16, l_max=8, seed=0)
    assert isinstance(gaze.generator, ScanpathGenerator)
    cfg = ModelConfig(text=text, gen_hidden=16, l_max=8,
                      gumbel=GumbelConfig(mode=SOFT_CONVOLUTION, hard_eval=True))
    model = JointModel(cfg, RngState(0, 0).substream("model"))
    assert isinstance(model.cls_encoder, textenc.TextEncoder)
    opt = AdamW(model, lr=1e-3)
    assert opt.slots and all(isinstance(name, str) and isinstance(t, Tensor)
                             for name, t in opt.slots)
    assert not any(t.grad is not None for _, t in opt.slots)
    assert isinstance(model.head.n_out, (int, np.integer))      # read by the probe
