"""Scanpath generator: masks, teacher forcing, and the batched sampler in
its straight-through, hard (Gumbel-max) and soft-convolution forms."""

from contextlib import nullcontext

import numpy as np
import pytest

from gazenlu.diffcore import (NEG_INF, RngState, Tensor, add, grad_check, mul,
                              no_grad, softmax, tsum)
from gazenlu.gazegen import (GeneratorConfig, GumbelConfig, ScanpathGenerator,
                             SOFT_CONVOLUTION, default_max_fixations)

CFG = GeneratorConfig(d_word=10, d_hidden=12, l_max=6)
ST = GumbelConfig(temperature=0.5)
SOFT = GumbelConfig(temperature=0.7, mode=SOFT_CONVOLUTION)


def sample(gen, ws, rng, cfg=ST, cap=None, hard=False, **kw):
    """One path for a single-row batch; ``hard`` samples under no_grad."""
    W = ws.shape[1]
    cap = cap if cap is not None else default_max_fixations(W)
    with no_grad() if hard else nullcontext():
        return gen.sample_gumbel_batch(ws, np.array([W]), [rng], cfg, cap, **kw)


def valid_mask(cfg, pos: int, n_words: int) -> np.ndarray:
    """Single-row oracle: which of the n_classes decisions are valid at
    ``pos`` in a sentence of ``n_words`` words."""
    offs = np.arange(cfg.n_classes - 1) - (cfg.l_max - 1)
    landing = pos + offs
    return np.concatenate([(landing >= 0) & (landing < n_words), [pos >= 0]])


def batched_valid(gen, pos: int, n_words: int) -> np.ndarray:
    return gen._additive_masks(np.array([pos]), np.array([n_words]))[0] == 0.0


def live_rows(batch, b=0):
    """Row b's (n_fix, W) position weights, one per fixation."""
    return np.stack([r.data[b] for r, m in zip(batch.rows, batch.row_mask[b]) if m])


@pytest.fixture(scope="module")
def gen():
    return ScanpathGenerator(CFG, RngState(7, 0))


@pytest.fixture(scope="module")
def words3(gen):
    data = RngState(8, 0).normal((1, 3, CFG.d_word)).astype(np.float32)
    return gen.encode_words_batch(Tensor(data), np.array([3]))


# -- config arithmetic ---------------------------------------------------


def test_offset_class_round_trip():
    offsets = range(-(CFG.l_max - 1), CFG.l_max)
    # one class per offset, in order, then STOP
    assert [CFG.offset_to_class(off) for off in offsets] == list(range(CFG.n_classes - 1))
    assert CFG.n_classes == 2 * CFG.l_max
    assert CFG.stop_class == CFG.n_classes - 1


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(d_word=4, d_hidden=7, l_max=4)  # odd hidden
    with pytest.raises(ValueError, match="d_hidden"):
        GeneratorConfig(d_word=4, d_hidden=0, l_max=4)  # even, but no units
    with pytest.raises(ValueError):
        GeneratorConfig(d_word=4, d_hidden=8, l_max=1)


def test_gumbel_config_validation():
    for tau in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            GumbelConfig(temperature=tau)
    with pytest.raises(ValueError):
        GumbelConfig(mode="annealed")
    GumbelConfig(mode=SOFT_CONVOLUTION)  # accepted


def test_default_max_fixations():
    assert default_max_fixations(5) == 10
    assert default_max_fixations(40) == 64


# -- validity masks ------------------------------------------------------


def test_entry_mask_allows_only_forward_landings(gen):
    mask = batched_valid(gen, -1, 3)
    true_classes = set(np.flatnonzero(mask))
    expected = {CFG.offset_to_class(o) for o in (1, 2, 3)}
    assert true_classes == expected
    assert not mask[CFG.stop_class]  # cannot stop before any fixation


def test_interior_mask_bounds_landings_and_allows_stop(gen):
    mask = batched_valid(gen, 1, 3)
    true_classes = set(np.flatnonzero(mask))
    expected = {CFG.offset_to_class(o) for o in (-1, 0, 1)} | {CFG.stop_class}
    assert true_classes == expected


def test_single_word_mask(gen):
    mask = batched_valid(gen, 0, 1)
    assert set(np.flatnonzero(mask)) == {CFG.offset_to_class(0), CFG.stop_class}


def test_batched_masks_and_scatters_match_single_row_oracle(gen):
    """Padded batches of mixed widths, every position from -1 up to each
    row's last word: masks and landing scatters equal the oracle exactly."""
    W = CFG.l_max - 1
    counts = np.array([1, 2, 3, W, 4, 1, W])
    for trial in range(W + 1):
        # each row steps through every position from -1 to its last word
        positions = np.minimum((np.arange(len(counts)) + trial) % (W + 1) - 1, counts - 1)
        live = (np.arange(len(counts)) + trial) % 3 != 0
        masks = gen._additive_masks(positions, counts)
        scatter = gen._landing_scatter(positions, counts, live, W, np.float32)
        for b, (pos, n) in enumerate(zip(positions, counts)):
            want = valid_mask(CFG, int(pos), int(n))
            assert np.array_equal(masks[b], np.where(want, 0.0, NEG_INF).astype(np.float32))
            rows = np.zeros((CFG.n_classes, W), dtype=np.float32)
            if live[b]:
                for c in np.flatnonzero(want[:-1]):
                    rows[c, pos + c - (CFG.l_max - 1)] = 1.0
            assert np.array_equal(scatter[b], rows), (trial, b)


def test_step_probs_zero_on_invalid_and_normalized(gen, words3):
    logits = gen.decode_logits_batch(gen.start_state(1), words3, np.array([3]))
    valid = valid_mask(CFG, -1, 3)
    p = softmax(logits, mask=np.where(valid, 0.0, -np.inf)[None]).data[0]
    assert p[CFG.stop_class] == 0.0
    assert abs(p.sum() - 1.0) < 1e-6
    assert (p[~valid] == 0.0).all()


def test_word_encoder_rejects_overlong_sentence(gen):
    data = np.zeros((1, CFG.l_max, CFG.d_word), dtype=np.float32)
    with pytest.raises(ValueError):
        gen.encode_words_batch(Tensor(data), np.array([CFG.l_max]))


# -- teacher forcing -----------------------------------------------------


def _replay_step_probs(gen, ws, n_words, prefix, pos):
    """Decision probabilities after ``prefix``, stepping the history GRU
    one fixation at a time on a single sentence."""
    state = gen.start_state(1, ws.dtype)
    hid = Tensor(np.zeros((1, gen.cfg.d_hidden), dtype=ws.dtype))
    for f in prefix:
        state, hid = gen.history_step(ws[:, f, :], gen.fix_pos(np.array([f])), hid)
    logits = gen.decode_logits_batch(state, ws, np.array([n_words])).data[0]
    z = np.where(valid_mask(gen.cfg, pos, n_words), logits, -np.inf)
    e = np.exp(z - z.max())
    return e / e.sum()


def test_nll_matches_stepwise_oracle(gen, words3):
    """Batched loss equals the mean of per-decision -log p computed by
    replaying each prefix through the sequential decode path."""
    path = [0, 1]
    prefixes = [[], [0], [0, 1]]
    positions = [-1, 0, 1]
    golds = [CFG.offset_to_class(1), CFG.offset_to_class(1), CFG.stop_class]
    total = 0.0
    for pre, pos, gold in zip(prefixes, positions, golds):
        p = _replay_step_probs(gen, words3, 3, pre, pos)
        total += -np.log(p[gold])
    manual = total / 3
    loss, n = gen.nll_batch(words3, np.array([3]), [path])
    assert n == 3
    assert abs(float(loss.data) - manual) < 1e-5


def test_nll_pools_decisions_across_rows(gen):
    data = RngState(9, 0).normal((1, 3, CFG.d_word)).astype(np.float32)
    single = gen.encode_words_batch(Tensor(data), np.array([3]))
    two = Tensor(np.concatenate([single.data, single.data], axis=0))
    counts = np.array([3, 3])
    l1, n1 = gen.nll_batch(single, np.array([3]), [[0, 1]])
    l2, n2 = gen.nll_batch(single, np.array([3]), [[2]])
    pooled, n = gen.nll_batch(two, counts, [[0, 1], [2]])
    assert (n1, n2, n) == (3, 2, 5)
    expected = (3 * float(l1.data) + 2 * float(l2.data)) / 5
    assert abs(float(pooled.data) - expected) < 1e-5


def test_nll_rejects_bad_paths(gen, words3):
    with pytest.raises(ValueError):
        gen.nll_batch(words3, np.array([3]), [[]])
    with pytest.raises(ValueError):
        gen.nll_batch(words3, np.array([3]), [[0, 3]])


def test_nll_rejects_offset_beyond_span(gen):
    wide = Tensor(np.zeros((1, 8, CFG.d_hidden), dtype=np.float32))
    with pytest.raises(ValueError, match="outside class range"):
        gen.nll_batch(wide, np.array([8]), [[0, 7]])


def test_nll_backward_reaches_word_encoder(gen):
    data = Tensor(
        RngState(10, 0).normal((1, 3, CFG.d_word)).astype(np.float32),
        requires_grad=True,
    )
    ws = gen.encode_words_batch(data, np.array([3]))
    loss, _ = gen.nll_batch(ws, np.array([3]), [[0, 1, 2]])
    loss.backward()
    assert data.grad is not None and np.abs(data.grad).max() > 0
    assert gen.gru_fwd.w_ih.grad is not None


# -- hard sampling -------------------------------------------------------


def test_sample_hard_deterministic_and_bounded(gen, words3):
    a = sample(gen, words3, RngState(5, 0).substream("path"), hard=True)
    b = sample(gen, words3, RngState(5, 0).substream("path"), hard=True)
    assert a.fixations == b.fixations and (a.stopped == b.stopped).all()
    assert all(0 <= f < 3 for f in a.fixations[0])
    assert len(a.fixations[0]) >= 1  # the entry step cannot choose STOP


def test_sample_hard_cap_and_stop_flag(gen, words3):
    for k in range(30):
        sp = sample(gen, words3, RngState(60, 0).substream("p", k), cap=4,
                    hard=True)
        assert len(sp.fixations[0]) <= 4
        if not sp.stopped[0]:
            assert len(sp.fixations[0]) == 4
    with pytest.raises(ValueError):
        sample(gen, words3, RngState(0, 0), cap=0, hard=True)


def test_sampled_offsets_respect_span(gen, words3):
    for k in range(20):
        sp = sample(gen, words3, RngState(61, 0).substream("p", k), hard=True)
        prev = -1
        for f in sp.fixations[0]:
            assert abs(f - prev) <= CFG.l_max - 1
            prev = f


# -- straight-through sampling -------------------------------------------


def test_straight_through_rows_are_one_hot_at_fixation(gen, words3):
    """Exact one-hot forward rows, with or without a graph."""
    for hard in (False, True):
        sp = sample(gen, words3, RngState(12, 0).substream("g"), hard=hard)
        rows = live_rows(sp)
        n = len(sp.fixations[0])
        assert rows.shape == (n, 3)
        onehot = np.zeros((n, 3), dtype=rows.dtype)
        onehot[np.arange(n), sp.fixations[0]] = 1.0
        assert np.array_equal(rows, onehot)


def test_straight_through_gradients_reach_generator(gen, words3):
    ws = gen.encode_words_batch(
        Tensor(RngState(8, 0).normal((1, 3, CFG.d_word)).astype(np.float32)),
        np.array([3]),
    )
    batch = gen.sample_gumbel_batch(ws, np.array([3]),
                                    [RngState(13, 0).substream("g")], ST,
                                    max_fixations=4)
    readout = RngState(14, 0).normal((3,)).astype(np.float32)
    loss = None
    for row in batch.rows:
        term = tsum(mul(row, Tensor(readout[None, :])))
        loss = term if loss is None else add(loss, term)
    loss.backward()
    assert gen.head.w.grad is not None and np.abs(gen.head.w.grad).max() > 0
    assert gen.gru_hist.w_ih.grad is not None


@pytest.fixture(scope="module")
def mixed_pair(gen):
    """Word states for a 3-word and a 5-word sentence in one padded batch."""
    r = RngState(15, 0)
    data = np.zeros((2, 5, CFG.d_word), dtype=np.float32)
    data[0, :3] = r.substream("a").normal((3, CFG.d_word))
    data[1] = r.substream("b").normal((5, CFG.d_word))
    return gen.encode_words_batch(Tensor(data), np.array([3, 5]))


def test_batch_rows_match_solo_sampling(gen, mixed_pair):
    """The path drawn for an instance depends only on its own noise
    stream, not on which other rows share the batch, in every form of
    the sampler: straight-through, soft convolution and hard."""
    counts = np.array([3, 5])

    def rngs():
        return [RngState(16, 0).substream("g", i) for i in range(2)]

    for cfg, hard in ((ST, False), (SOFT, False), (ST, True)):
        label = f"{cfg.mode}, hard={hard}"
        with no_grad() if hard else nullcontext():
            batch = gen.sample_gumbel_batch(mixed_pair, counts, rngs(), cfg, 6)
        for i, w in enumerate(counts):
            ws = Tensor(mixed_pair.data[i:i + 1, :w])
            solo = sample(gen, ws, rngs()[i], cfg, cap=6, hard=hard)
            assert solo.fixations[0] == batch.fixations[i], label
            assert solo.stopped[0] == batch.stopped[i], label
            padded = live_rows(batch, i)
            assert np.abs(padded[:, :w] - live_rows(solo)).max() < 1e-6, label
            assert (padded[:, w:] == 0.0).all(), label


def _replay_straight_through(gen, ws, n_words, rng, cap, tau):
    """One sentence's straight-through walk, stepping the history GRU one
    fixation at a time and drawing one (C,) Gumbel vector per live step."""
    cfg = gen.cfg
    state = gen.start_state(1, ws.dtype)
    hid = Tensor(np.zeros((1, cfg.d_hidden), dtype=ws.dtype))
    pos, fixations = -1, []
    for _ in range(cap):
        logits = gen.decode_logits_batch(state, ws, np.array([n_words]))
        g = rng.gumbel((cfg.n_classes,)).astype(ws.dtype)
        z = (logits.data[0] + g) * np.float32(1.0 / tau)
        c = int(np.where(valid_mask(cfg, pos, n_words), z, -np.inf).argmax())
        if c == cfg.stop_class:
            return fixations, True
        pos += c - (cfg.l_max - 1)
        fixations.append(pos)
        state, hid = gen.history_step(ws[:, pos, :], gen.fix_pos(np.array([pos])), hid)
    return fixations, False


def test_straight_through_matches_per_step_draw_replay(gen, mixed_pair):
    """Each row's noise, drawn in one block per call, gives the walk that
    one Gumbel draw per live step gives, with or without a graph."""
    counts, caps = np.array([3, 5]), np.array([6, 4])
    for hard in (False, True):
        for k in range(4):
            def rngs():
                return [RngState(18, 0).substream("g", k, i) for i in range(2)]

            with no_grad() if hard else nullcontext():
                batch = gen.sample_gumbel_batch(mixed_pair, counts, rngs(), ST, caps)
                for i, w in enumerate(counts):
                    fix, stopped = _replay_straight_through(
                        gen, mixed_pair[i:i + 1], int(w), rngs()[i], int(caps[i]),
                        ST.temperature)
                    assert batch.fixations[i] == fix, (hard, k, i)
                    assert batch.stopped[i] == stopped, (hard, k, i)
                    onehot = np.zeros((len(fix), 5), dtype=np.float32)
                    onehot[np.arange(len(fix)), fix] = 1.0
                    assert np.abs(live_rows(batch, i) - onehot).max() < 1e-6


def test_straight_through_temperature_keeps_hard_forward(gen, words3):
    hot = sample(gen, words3, RngState(17, 0).substream("g"),
                 GumbelConfig(temperature=5.0))
    cold = sample(gen, words3, RngState(17, 0).substream("g"),
                  GumbelConfig(temperature=0.05))
    # hard forward choices follow logits+noise argmax, independent of tau
    assert hot.fixations == cold.fixations


# -- soft convolution ----------------------------------------------------


def test_soft_rows_stay_normalized(gen, mixed_pair):
    """Mass stays on each row's own words: landings clamp at its last word."""
    batch = gen.sample_gumbel_batch(
        mixed_pair, np.array([3, 5]),
        [RngState(18, 0).substream("g", i) for i in range(2)], SOFT, 6)
    for i, w in enumerate((3, 5)):
        rows = live_rows(batch, i)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-5
        assert (rows[:, w:] == 0.0).all()
        assert all(0 <= f < w for f in batch.fixations[i])


def test_soft_single_word_collapses_to_delta(gen):
    data = RngState(19, 0).normal((1, 1, CFG.d_word)).astype(np.float32)
    ws = gen.encode_words_batch(Tensor(data), np.array([1]))
    sp = sample(gen, ws, RngState(20, 0).substream("g"), SOFT, cap=5)
    rows = live_rows(sp)
    assert np.abs(rows - 1.0).max() < 1e-6  # every step is the delta on word 0
    assert sp.fixations[0] == [0] * len(rows)


def test_soft_gradients_reach_generator(gen, words3):
    sp = sample(gen, words3, RngState(21, 0).substream("g"), SOFT, cap=4)
    readout = RngState(22, 0).normal((len(sp.rows), 3)).astype(np.float32)
    loss = None
    for t, row in enumerate(sp.rows):
        term = tsum(mul(row, Tensor(readout[t:t + 1])))
        loss = term if loss is None else add(loss, term)
    loss.backward()
    assert gen.head.w.grad is not None and np.abs(gen.head.w.grad).max() > 0


# -- relaxed-path gradient fidelity --------------------------------------


def _surrogate_gradcheck(n_words: int, cap: int, noise_seed: int, min_rows: int):
    """Finite differences on the relaxed forward agree with backprop
    through a sampled path (tiny float64 model, fixed noise). The path
    must keep at least ``min_rows`` rows, so the case cannot shrink."""
    cfg = GeneratorConfig(d_word=5, d_hidden=6, l_max=4)
    gen = ScanpathGenerator(cfg, RngState(30, 0))
    for _, t in gen.named_parameters():
        t.data = t.data.astype(np.float64)
    base = RngState(31, 0).normal((1, n_words, cfg.d_word))
    readout = RngState(32, 0).normal((cap, n_words))
    gcfg = GumbelConfig(temperature=1.0)

    def build():
        ws = gen.encode_words_batch(Tensor(base), np.array([n_words]))
        sp = sample(gen, ws, RngState(noise_seed, 0).substream("g"), gcfg,
                    cap=cap, surrogate=True)
        assert len(sp.rows) >= min_rows
        loss = None
        for t, row in enumerate(sp.rows):
            term = tsum(mul(row, Tensor(readout[t:t + 1])))
            loss = term if loss is None else add(loss, term)
        return loss

    params = dict(gen.named_parameters())
    report = grad_check(build, params, h=1e-5, tol=1e-4, sample=3,
                        rng=RngState(34, 0))
    assert report.ok, report.failures


def test_surrogate_path_gradcheck():
    """A one-step path: the entry fixation, then STOP."""
    _surrogate_gradcheck(n_words=2, cap=3, noise_seed=33, min_rows=1)


def test_surrogate_multi_step_path_gradcheck():
    """A path of several steps, so gradients also run through the
    history recurrence and the landing scatter of later steps."""
    _surrogate_gradcheck(n_words=3, cap=6, noise_seed=40, min_rows=3)


@pytest.mark.parametrize("gcfg", [ST, SOFT], ids=["straight_through", "soft"])
def test_non_finite_generator_fails_naming_the_sampler_step(gcfg, words3):
    """A NaN parameter makes every row's logits NaN; the sampler raises
    rather than argmax a NaN row into a move off the sentence."""
    gen = ScanpathGenerator(CFG, RngState(7, 0))
    gen.head.w.data[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="sampler step 0: .* not finite"):
        sample(gen, words3, RngState(35, 0).substream("g"), gcfg)
