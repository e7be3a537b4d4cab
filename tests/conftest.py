"""Shared fixtures, the acceptance-summary terminal hook and the pieces
of the step-by-step reference forms: one GRU step, the scan GRU's packed
rows split by step, its dropout words per step, and the generator's
history step."""

import numpy as np
import pytest

from gazenlu.corpus import make_synthetic_suite
from gazenlu.diffcore import (RngState, Tensor, add, concat, getitem, gru_bwd,
                              gru_step, linear_bwd, op_result)
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


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hh) -> Tensor:
    """One GRU step (``gru_step``'s equations) as a single ``gru_cell``
    node, the form the step-by-step replays of the scan GRU and of the
    sampler's history use; parents that do not require grad get none."""
    data, gates = gru_step(x.data, h.data, w_ih.data, w_hh.data, b_ih.data, b_hh.data)

    def fn(g):
        dgi, dgh, dh = gru_bwd(g, h.data, gates, w_hh.data)
        gx, gw_ih, gb_ih = linear_bwd(x.data, w_ih.data, dgi, (
            x.requires_grad, w_ih.requires_grad, b_ih.requires_grad))
        _, gw_hh, gb_hh = linear_bwd(h.data, w_hh.data, dgh, (
            False, w_hh.requires_grad, b_hh.requires_grad))
        return (gx, dh if h.requires_grad else None, gw_ih, gw_hh, gb_ih, gb_hh)

    return op_result(data, (x, h, w_ih, w_hh, b_ih, b_hh), fn, "gru_cell")


def gru(cell, x, h) -> Tensor:
    """One step of the ``GRUCell`` ``cell`` through ``gru_cell``."""
    return gru_cell(x, h, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)


def step_slices(rows: Tensor, step_mask: np.ndarray) -> list[Tensor]:
    """The scan GRU's packed rows as one slice per step, each step as many
    rows as its mask column marks."""
    ends = np.cumsum(np.count_nonzero(step_mask, axis=0)).tolist()
    return [getitem(rows, slice(a, b)) for a, b in zip([0] + ends[:-1], ends)]


def own_words(stream: RngState, n: int) -> np.ndarray:
    """The first ``n`` raw 32-bit words of ``stream``, from a fresh copy of
    its own generator: ``random_raw`` viewed as uint32."""
    gen = RngState(stream.seed, stream.stream_id).generator
    return gen.bit_generator.random_raw(-(-n // 2)).view(np.uint32)[:n]


def row_streams(rng: RngState, n: int) -> list[RngState]:
    """One dropout stream per batch row."""
    return [rng.substream("row", b) for b in range(n)]


def scan_words(rngs, step_mask: np.ndarray, d: int) -> np.ndarray:
    """The scan GRU's dropout words as a (B, S, d) grid: row b's stream
    gives d words to each of its marked steps in turn; unmarked cells
    hold zeros."""
    lengths = np.count_nonzero(step_mask, axis=1)
    grid = np.zeros(step_mask.shape + (d,), dtype=np.uint32)
    for b, (s, n) in enumerate(zip(rngs, lengths)):
        grid[b, :n] = own_words(s, n * d).reshape(n, d)
    return grid


def history_step_graph(gen, word_row, pos_emb, h_prev):
    """``ScanpathGenerator.history_step`` on Tensors, as graph nodes:
    (residual output, new hidden). The step-by-step replays of the sampler
    feed their fixations through it."""
    inp = concat([word_row, pos_emb], axis=1)
    h_new = gru(gen.gru_hist, inp, h_prev)
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
