"""Shared fixtures, the acceptance-summary terminal hook and a reference
form of the generator's history step."""

import numpy as np
import pytest

from gazenlu.corpus import make_synthetic_suite
from gazenlu.diffcore import add, concat
from gazenlu.textenc import TextEncoderConfig, build_vocab
from gazenlu.trainkit import GazeModel, TrainConfig, pretrain_generator

# test_acceptance.py records (number, description, passed, detail) here;
# the terminal-summary hook prints one line per criterion at the end.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_acceptance(number: int, description: str, passed: bool,
                      detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (description, passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, passed, detail = ACCEPTANCE_RESULTS[n]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d} {status} - {desc}: {detail}")


def history_step_graph(gen, word_row, pos_emb, h_prev):
    """``ScanpathGenerator.history_step`` on Tensors, as graph nodes:
    (residual output, new hidden). The step-by-step replays of the sampler
    feed their fixations through it."""
    inp = concat([word_row, pos_emb], axis=1)
    h_new = gen.gru_hist(inp, h_prev)
    return add(gen.hist_proj(inp), h_new), h_new


@pytest.fixture(scope="session")
def tiny_suite():
    return make_synthetic_suite(
        42, n_gaze_train=40, n_gaze_dev=10,
        n_keyword=(200, 60, 60), n_pairs=(80, 30, 30),
    )


@pytest.fixture(scope="session")
def tiny_vocab(tiny_suite):
    return build_vocab(tiny_suite.vocab_lines(), 512)


@pytest.fixture(scope="session")
def tiny_text_cfg(tiny_vocab):
    return TextEncoderConfig(
        vocab_size=len(tiny_vocab.token_to_id), d_model=32, n_layers=1,
        n_heads=4, d_ff=64, max_len=64,
    )


@pytest.fixture(scope="session")
def tiny_gaze_state(tiny_suite, tiny_vocab, tiny_text_cfg):
    """A briefly pretrained generator checkpoint shared across tests."""
    model = GazeModel(tiny_text_cfg, gen_hidden=32, l_max=32, seed=42)
    cfg = TrainConfig(lr=1e-3, max_epochs=3, patience=3, seed=42)
    state, hist = pretrain_generator(
        model, tiny_suite.gaze_train, tiny_suite.gaze_dev, tiny_vocab, cfg
    )
    return state, hist
