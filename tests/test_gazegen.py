"""Scanpath generator: masks, teacher forcing, and the batched sampler in
its straight-through, hard (Gumbel-max) and soft-convolution forms."""

import re
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import history_step_graph

from gazenlu.diffcore import (FLOAT32_H, FLOAT32_TOL, FLOAT64_H, FLOAT64_TOL,
                              NEG_INF, RngState, Tensor, add, backward, concat,
                              cross_entropy, grad_check, gumbel_of, matmul,
                              mix_rows, mul, no_grad, op_result, reshape,
                              shift_mass_bwd, shift_mass_fwd, softmax, take_rows,
                              tsum)
from gazenlu.gazegen import (SOFT_STOP_MASS, GeneratorConfig, GumbelConfig,
                             SampledBatch, ScanpathGenerator, SOFT_CONVOLUTION,
                             default_max_fixations)

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


def _landing_scatter(gen, positions, counts, rows, W, dtype) -> np.ndarray:
    """(B, C, W) one-hot from each move class to its landing word, for
    the ``rows`` marked at their ``positions``; zero for other rows and
    for moves that leave the row's words."""
    landing, ok = gen._landings(positions, counts)
    b, c = np.nonzero(ok & rows[:, None])
    scatter = np.zeros((len(positions), gen.cfg.n_classes, W), dtype=dtype)
    scatter[b, c, landing[b, c]] = 1.0
    return scatter


def live_rows(batch, b=0):
    """Row b's (n_fix, W) position weights, one per fixation: at each step
    it fixates, its row of that step's packed rows, which come in batch
    order."""
    return batch.rows.data[np.nonzero(batch.row_mask.T)[1] == b]


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
        scatter = _landing_scatter(gen, positions, counts, live, W, np.float32)
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


def op_counts(out: Tensor) -> Counter:
    """Op nodes reachable from ``out`` the way backward walks them."""
    counts, seen, todo = Counter(), set(), [out]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._op != "leaf":
                counts[t._op] += 1
            todo.extend(p for p in t._parents if p.requires_grad)
    return counts


def test_decode_builds_one_node_per_product(gen):
    """One decode is seven graph nodes: the attention scores and context
    are one mix_rows node each and the head is one linear node, with no
    reshape or matmul around them."""
    r = RngState(9, 0)
    state = Tensor(r.substream("s").normal((2, CFG.d_hidden)).astype(np.float32),
                   requires_grad=True)
    ws = Tensor(r.substream("ws").normal((2, 4, CFG.d_hidden)).astype(np.float32),
                requires_grad=True)
    logits = gen.decode_logits_batch(state, ws, np.array([4, 2]))
    assert op_counts(logits) == Counter(transpose=1, mix_rows=2, mul=1, softmax=1,
                                        concat=1, linear=1)


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
        state, hid = history_step_graph(gen, ws[:, f, :], gen.fix_pos(np.array([f])), hid)
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


def test_nll_errors_name_the_first_bad_path_and_step(gen):
    """In a batch of several paths, each error names the first bad path
    and, within it, the first bad step; at one step a fixation out of
    range is reported before its offset."""
    ws3 = Tensor(np.zeros((4, 3, CFG.d_hidden), dtype=np.float32))
    counts3 = np.array([3, 3, 3, 3])
    wide = Tensor(np.zeros((3, 8, CFG.d_hidden), dtype=np.float32))
    counts8 = np.array([8, 8, 8])
    for ws, counts, paths, message in (
        (ws3, counts3, [[0, 1], [2, 1], [], [0, 7]], "path 2 is empty"),
        (ws3, counts3, [[0, 1], [2, 1, 5, 9], [], [-1]],
         "path 1 step 2: fixation 5 out of range for 3 words"),
        (ws3, counts3, [[0, 2], [1], [2, 0, -1], []],
         "path 2 step 2: fixation -1 out of range for 3 words"),
        (wide, counts8, [[0, 1], [0, 6, 9], [20]],
         "path 1 step 1: offset 6 outside class range +-5"),
        (wide, counts8, [[0, 1], [4, 2], [20]],
         "path 2 step 0: fixation 20 out of range for 8 words"),
        (wide, counts8, [[3, 7, 1, 8], [7], [0]],
         "path 0 step 2: offset -6 outside class range +-5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen.nll_batch(ws, counts, paths)


def _stepwise_nll(gen, word_states, counts, paths):
    """Oracle for ``nll_batch``: the step loop it replaced. Every row is
    decoded at every step until the longest path ends; a row that has
    stopped keeps its state by a masked update, and each step's
    cross-entropy over its live rows enters the sum weighted by their
    count."""
    B, W, h = word_states.shape
    cfg = gen.cfg
    targets = []
    for path in paths:
        prev = [-1] + path[:-1]
        targets.append([cfg.offset_to_class(f - p) for f, p in zip(path, prev)]
                       + [cfg.stop_class])
    state = gen.start_state(B, word_states.dtype)
    hid = Tensor(np.zeros((B, h), dtype=word_states.dtype))
    positions = np.full(B, -1, dtype=np.int64)
    flat = reshape(word_states, (B * W, h))
    total, n_terms = None, 0
    for t in range(max(len(tg) for tg in targets)):
        active = np.array([b for b in range(B) if t < len(targets[b])])
        logits = gen.decode_logits_batch(state, word_states, counts)
        masked = add(logits, Tensor(gen._additive_masks(positions, counts)))
        sub = take_rows(masked, active) if len(active) < B else masked
        step_t = np.array([targets[b][t] for b in active])
        term = mul(cross_entropy(sub, step_t), float(len(active)))
        total = term if total is None else add(total, term)
        n_terms += len(active)
        feeders = np.array([b for b in range(B) if t < len(paths[b])])
        if len(feeders) == 0:
            continue
        feed = np.zeros(B, dtype=np.int64)
        feed[feeders] = [paths[b][t] for b in feeders]
        out, hn = history_step_graph(gen, take_rows(flat, np.arange(B) * W + feed),
                                     gen.fix_pos(feed), hid)
        m = np.zeros((B, 1), dtype=word_states.dtype)
        m[feeders] = 1.0
        state = add(mul(out, Tensor(m)), mul(state, Tensor(1.0 - m)))
        hid = add(mul(hn, Tensor(m)), mul(hid, Tensor(1.0 - m)))
        positions[feeders] = feed[feeders]
    return mul(total, 1.0 / n_terms), n_terms


@st.composite
def _gold_batches(draw):
    """(word counts, gold paths, seed): ragged sentences of 1-5 words and
    paths of 1-9 fixations, every offset within CFG's class range."""
    counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    paths = [draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=9))
             for c in counts]
    return np.array(counts), paths, draw(st.integers(0, 2**16))


@given(batch=_gold_batches(), dtype=st.sampled_from([np.float64, np.float32]))
@settings(max_examples=40, deadline=None)
def test_nll_matches_the_step_loop(batch, dtype):
    """The one-pass teacher-forced NLL against the step loop it replaced:
    the same decision count, and the loss and the gradient of every
    parameter and of the word vectors within 1e-12 in float64 and 1e-6
    in float32."""
    counts, paths, seed = batch
    r = RngState(seed, 3)
    gen = ScanpathGenerator(CFG, r.substream("gen"))
    params = [p for _, p in gen.named_parameters()]
    for p in params:
        p.data = p.data.astype(dtype)
    words = Tensor(r.substream("words").normal((len(counts), int(counts.max()),
                                                CFG.d_word)).astype(dtype),
                   requires_grad=True)
    tol = 1e-12 if dtype == np.float64 else 1e-6
    results = []
    for fn in (gen.nll_batch, lambda *a: _stepwise_nll(gen, *a)):
        for p in params + [words]:
            p.grad = None
        loss, n = fn(gen.encode_words_batch(words, counts), counts, paths)
        backward(loss)
        assert loss.dtype == dtype
        results.append((n, float(loss.data), [p.grad for p in params + [words]]))
    (n, loss, grads), (n_ref, loss_ref, grads_ref) = results
    assert n == n_ref == sum(len(p) + 1 for p in paths)
    assert abs(loss - loss_ref) <= tol
    for g, w in zip(grads, grads_ref):
        assert np.abs(g - w).max() <= tol


def test_nll_is_one_pass_over_time(gen, words3, monkeypatch):
    """Teacher forcing decodes once per batch and builds no per-step
    GRU nodes: the history is one gru_seq node."""
    calls = []
    decode = ScanpathGenerator.decode_logits_batch
    monkeypatch.setattr(ScanpathGenerator, "decode_logits_batch",
                        lambda self, *a: calls.append(1) or decode(self, *a))
    ws = Tensor(np.concatenate([words3.data] * 3), requires_grad=True)
    loss, n = gen.nll_batch(ws, np.array([3, 2, 3]), [[0, 1, 2, 1, 0], [1], [2, 2]])
    assert calls == [1] and n == 11
    ops, seen, todo = Counter(), set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops[node._op] += 1
            todo.extend(node._parents)
    assert ops["gru_seq"] == 1 and ops["gru_cell"] == 0


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
    tsum(mul(batch.rows, Tensor(readout[None, :]))).backward()
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
        g = gumbel_of(rng.uniform((cfg.n_classes,))).astype(ws.dtype)
        z = (logits.data[0] + g) * np.float32(1.0 / tau)
        c = int(np.where(valid_mask(cfg, pos, n_words), z, -np.inf).argmax())
        if c == cfg.stop_class:
            return fixations, True
        pos += c - (cfg.l_max - 1)
        fixations.append(pos)
        state, hid = history_step_graph(gen, ws[:, pos, :], gen.fix_pos(np.array([pos])), hid)
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
    readout = RngState(22, 0).normal((sp.rows.shape[0], 3)).astype(np.float32)
    tsum(mul(sp.rows, Tensor(readout))).backward()
    assert gen.head.w.grad is not None and np.abs(gen.head.w.grad).max() > 0


def _spread_kernel_step(dist, q, counts, l_max):
    """Oracle: the soft step as the (B, W*W, C) kernel matmul it replaced.
    kernel[b, i, j, c] is 1 where offset class c moves word i of row b to
    j, landings clamped to the row's words; STOP moves nothing. Returns
    (next dist, kernel)."""
    B, W = dist.shape
    C = q.shape[1]
    offs = np.arange(C - 1) - (l_max - 1)
    kernel = np.zeros((B, W, W, C))
    for b, n in enumerate(counts):
        src = np.arange(n)[:, None]
        dst = np.clip(src + offs, 0, n - 1)
        kernel[b, np.broadcast_to(src, dst.shape), dst, np.arange(C - 1)] = 1.0
    spread = np.matmul(kernel.reshape(B, W * W, C), q[:, :, None]).reshape(B, W, W)
    return np.matmul(dist[:, None, :], spread)[:, 0, :], kernel


def shift_mass(dist: Tensor, q: Tensor, offsets, counts) -> Tensor:
    """The soft walk's move (``shift_mass_fwd``) as one graph node, the
    form the sampler's step-by-step replay uses; its backward is
    ``shift_mass_bwd``."""
    data = shift_mass_fwd(dist.data, q.data, offsets, counts)
    return op_result(data, (dist, q), lambda g: shift_mass_bwd(
        g, dist.data, q.data, offsets, counts, (dist.requires_grad, q.requires_grad)),
        "shift_mass")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shift_mass_gradchecks(dtype):
    """The move's kernels pass the gradcheck their ``standard_op_checks``
    entry ran: rows of 4, 1 and 3 words, offsets that clamp at both ends."""
    r = RngState(2024, 1)
    p = {k: Tensor(r.substream(k).normal(shape).astype(dtype), requires_grad=True)
         for k, shape in (("shm_d", (3, 4)), ("shm_q", (3, 5)))}
    w = RngState(2024, 99).substream("shm").normal((3, 4)).astype(dtype)
    offs, counts = np.array([-3, -1, 0, 1, 2]), np.array([4, 1, 3])
    h, tol = (FLOAT64_H, FLOAT64_TOL) if dtype == np.float64 else (FLOAT32_H, FLOAT32_TOL)
    report = grad_check(lambda: tsum(mul(shift_mass(p["shm_d"], p["shm_q"], offs, counts),
                                         Tensor(w))), p, h=h, tol=tol)
    assert report.ok, report.failures


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_soft_step_matches_spread_kernel_oracle(dtype):
    """The clamped-landing op moves mass and gradients as the deleted
    kernel did: rows of 1, 2, 4 and 6 words in one padded batch, offsets
    of up to +-7, so landings clamp at both ends."""
    l_max, W = 8, 6
    C = 2 * l_max
    counts = np.array([1, 6, 2, 4])
    r = RngState(36, 0)
    valid = np.arange(W) < counts[:, None]
    dist = np.where(valid, r.substream("dist").uniform((4, W)), 0.0)
    dist /= dist.sum(axis=1, keepdims=True)
    q = np.exp(r.substream("q").normal((4, C)))
    q[:, C - 1] = 0.0                               # STOP carries no mass
    q /= q.sum(axis=1, keepdims=True)
    g = r.substream("g").normal((4, W))
    want, kernel = _spread_kernel_step(dist, q, counts, l_max)
    want_dist = np.einsum("bijc,bc,bj->bi", kernel, q, g)
    want_q = np.einsum("bijc,bi,bj->bc", kernel, dist, g)

    dist_t = Tensor(dist.astype(dtype), requires_grad=True)
    q_t = Tensor(q[:, :C - 1].astype(dtype), requires_grad=True)
    offs = np.arange(C - 1) - (l_max - 1)
    out = shift_mass(dist_t, q_t, offs, counts)
    backward(tsum(mul(out, Tensor(g.astype(dtype)))))
    assert out.dtype == dtype
    assert np.abs(out.data - want).max() <= 1e-6
    assert (out.data[~valid] == 0.0).all()
    assert np.abs(out.data[0, 0] - 1.0) <= 1e-6     # a 1-word row keeps its mass
    assert np.abs(dist_t.grad - want_dist).max() <= 1e-6
    assert np.abs(q_t.grad - want_q[:, :C - 1]).max() <= 1e-6


def _rows_loss(sb, readout):
    """The packed rows contracted with ``readout[b, s]`` at each (row,
    step) they hold."""
    cell_t, cell_b = np.nonzero(sb.row_mask.T)
    return tsum(mul(sb.rows, Tensor(readout[cell_b, cell_t, :sb.rows.shape[1]])))


def _sample_rows_loss(gen, ws, counts, rngs, cfg, caps, readout, surrogate):
    """Sample a batch and contract its rows with a fixed readout."""
    sb = gen.sample_gumbel_batch(ws, counts, rngs, cfg, caps, surrogate=surrogate)
    return sb, _rows_loss(sb, readout)


@pytest.mark.parametrize("cfg, surrogate", [(ST, False), (SOFT, False), (ST, True)],
                         ids=["straight_through", "soft", "surrogate"])
def test_batch_gradients_match_solo_sampling(cfg, surrogate):
    """Rows leave the working set at different steps; each row's gradient
    with respect to its word states is the one it gets sampled alone, and
    its padding gets none."""
    gen = ScanpathGenerator(CFG, RngState(37, 0))
    for _, p in gen.named_parameters():
        p.data = p.data.astype(np.float64)
    counts = np.array([3, 5, 1, 4, 2])
    B, W = len(counts), int(counts.max())
    caps = np.array([default_max_fixations(int(n)) for n in counts])
    r = RngState(38, 0)
    ws = Tensor(np.where((np.arange(W) < counts[:, None])[:, :, None],
                         r.substream("ws").normal((B, W, CFG.d_hidden)), 0.0),
                requires_grad=True)
    readout = r.substream("readout").normal((B, int(caps.max()), W))

    def rngs():
        return [RngState(39, 0).substream("g", b) for b in range(B)]

    sb, loss = _sample_rows_loss(gen, ws, counts, rngs(), cfg, caps, readout, surrogate)
    lengths = sb.row_mask.sum(axis=1)
    assert len(set(lengths)) >= 3, lengths      # rows stop at different steps
    backward(loss)
    for b, n in enumerate(counts):
        solo_ws = Tensor(ws.data[b:b + 1, :n], requires_grad=True)
        solo, solo_loss = _sample_rows_loss(gen, solo_ws, counts[b:b + 1], rngs()[b:b + 1],
                                            cfg, caps[b:b + 1], readout[b:b + 1], surrogate)
        assert solo.fixations[0] == sb.fixations[b]
        backward(solo_loss)
        assert np.abs(ws.grad[b, :n] - solo_ws.grad[0]).max() <= 1e-6, b
        assert (ws.grad[b, n:] == 0.0).all(), b


def _sample_full_noise(gen, word_states, counts, rngs, cfg, max_fixations,
                       surrogate=False):
    """The sampler as it was before it trimmed its work: every row draws
    a full (cap, C) Gumbel block from its stream, every step adds noise to
    every class, and every straight-through step builds its relaxed row."""
    B, W, h = word_states.shape
    gc = gen.cfg
    C = gc.n_classes
    dt = word_states.dtype
    soft = cfg.mode == SOFT_CONVOLUTION
    inv_tau = 1.0 / cfg.temperature
    caps = np.broadcast_to(np.asarray(max_fixations, dtype=np.int64), (B,))
    noise = np.zeros((B, int(caps.max()), C), dtype=dt)
    for b in range(B):
        noise[b, :caps[b]] = gumbel_of(rngs[b].uniform((int(caps[b]), C)))
    offsets = np.arange(C - 1) - (gc.l_max - 1)
    stopped = np.zeros(B, dtype=bool)
    fixations = [[] for _ in range(B)]
    rows, row_mask = [], []
    ids = np.arange(B)
    ws, n_words = word_states, counts
    state = gen.start_state(B, dt)
    hid = Tensor(np.zeros((B, h), dtype=dt))
    positions = np.full(B, -1, dtype=np.int64)
    dist = None
    stop_mass = np.zeros(B)
    for step in range(int(caps.max())):
        n = len(ids)
        logits = gen.decode_logits_batch(state, ws, n_words)
        z = mul(add(logits, Tensor(noise[ids, step])), inv_tau)
        if dist is None:
            y = softmax(z, mask=gen._additive_masks(positions, n_words))
            hard = y.data.argmax(axis=1)
            live = hard != gc.stop_class
            stopped[ids[~live]] = True
            if not live.any():
                break
            scatter = _landing_scatter(gen, positions, n_words, live, W, dt)
            y_words = mix_rows(y, Tensor(scatter))
            if soft:
                dist = y_words
        else:
            live = np.ones(n, dtype=bool)
            move_mask = np.where(np.abs(offsets) < n_words[:, None], 0.0,
                                 NEG_INF).astype(np.float32)
            stop_mask = np.concatenate([move_mask, np.zeros((n, 1), np.float32)], axis=1)
            p_stop = softmax(z, mask=stop_mask).data[:, gc.stop_class]
            q = softmax(z[:, :C - 1], mask=move_mask)
            dist = shift_mass(dist, q, offsets, n_words)
            stop_mass += (1.0 - stop_mass) * p_stop
        if soft:
            row = dist
            fix = dist.data.argmax(axis=1)
            stopped[ids[stop_mass >= SOFT_STOP_MASS]] = True
        else:
            fix = positions + hard - (gc.l_max - 1)
            if surrogate:
                row = y_words
            else:
                onehot = np.zeros((n, W), dtype=dt)
                onehot[live, fix[live]] = 1.0
                row = add(y_words, Tensor(onehot - y_words.data))
        if not live.all():
            row = take_rows(row, np.flatnonzero(live))
        rows.append(row)
        row_mask.append(np.zeros(B, dtype=np.float32))
        row_mask[-1][ids[live]] = 1.0
        for b, f in zip(ids[live], fix[live]):
            fixations[b].append(int(f))
        keep = live & ~stopped[ids] & (step + 1 < caps[ids])
        if not keep.any():
            break
        if not keep.all():
            sel = np.flatnonzero(keep)
            ids, n_words, fix = ids[sel], n_words[sel], fix[sel]
            ws, hid = take_rows(ws, sel), take_rows(hid, sel)
            if not keep[live].all():
                row = take_rows(row, np.flatnonzero(keep[live]))
            if soft:
                dist, stop_mass = row, stop_mass[sel]
        pe = matmul(dist, gen.fix_pos.w[0:W, :]) if soft else gen.fix_pos(fix)
        state, hid = history_step_graph(gen, mix_rows(row, ws), pe, hid)
        positions = fix
    mask_arr = np.stack(row_mask, axis=1) if row_mask else np.zeros((B, 0), np.float32)
    packed = concat(rows) if rows else Tensor(np.zeros((0, W), dtype=dt))
    return SampledBatch(packed, mask_arr, fixations, stopped)


@st.composite
def _sampler_cases(draw):
    """A sampler call: l_max, padded width W <= l_max - 1, ragged word
    counts, caps (one per row or one for all, 1 included), a relaxation,
    a dtype, a grad mode (a gradient for the generator and the word
    states, none, a frozen generator, or the word states alone), a bias
    towards STOP and seeds."""
    l_max = draw(st.integers(2, 7))
    B = draw(st.integers(1, 4))
    W = draw(st.integers(1, l_max - 1))
    counts = np.array(draw(st.lists(st.integers(1, W), min_size=B, max_size=B)))
    counts[draw(st.integers(0, B - 1))] = W
    caps = draw(st.one_of(st.integers(1, 12),
                          st.lists(st.integers(1, 12), min_size=B, max_size=B)))
    relax = draw(st.sampled_from(["straight_through", "surrogate", "soft"]))
    return dict(l_max=l_max, counts=counts, caps=caps, relax=relax,
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                grad=draw(st.sampled_from(["grad", "no_grad", "frozen", "word_states"])),
                tau=draw(st.sampled_from([0.3, 0.5, 1.0, 2.0])),
                stop_bias=draw(st.sampled_from([0.0, 3.0])),
                seed=draw(st.integers(0, 2**32)))


def _case(relax, counts, caps, grad="grad", stop_bias=0.0, seed=0, l_max=5,
          dtype=np.float64, tau=0.5):
    return dict(l_max=l_max, counts=np.array(counts), caps=caps, relax=relax,
                dtype=dtype, grad=grad, tau=tau, stop_bias=stop_bias, seed=seed)


@given(case=_sampler_cases())
# every row ends at step 0, by its cap
@example(case=_case("straight_through", [3, 1, 4], 1))
@example(case=_case("soft", [3, 1, 4], 1, dtype=np.float32))
# row 0 reaches its cap on the step (1) another row stops
@example(case=_case("straight_through", [4, 4, 2], [2, 6, 6], stop_bias=1.0, seed=1))
@example(case=_case("soft", [4, 4, 2], [2, 6, 6], stop_bias=1.0, seed=5))
# soft rows whose stop mass all crosses on the first step that can stop
# (step 1: the entry step masks STOP)
@example(case=_case("soft", [4, 2, 3], 6, stop_bias=4.0, seed=1))
# word states that need a gradient, with a frozen generator
@example(case=_case("straight_through", [4, 2, 3], 6, grad="word_states", seed=2))
@example(case=_case("soft", [4, 2, 3], 6, grad="word_states", seed=2, dtype=np.float32))
@settings(max_examples=200, deadline=None)
def test_sampler_matches_full_noise_oracle(case):
    """The sampler node gives the same fixations, ``stopped``,
    ``row_mask`` and row values bit for bit as the per-step graph it
    replaced, and the same gradients of a scalar through the rows, up to
    the order of their per-step sums."""
    counts, caps, dtype = case["counts"], case["caps"], case["dtype"]
    B, W = len(counts), int(counts.max())
    gcfg = GeneratorConfig(d_word=5, d_hidden=6, l_max=case["l_max"])
    mode = SOFT_CONVOLUTION if case["relax"] == "soft" else "straight_through"
    cfg = GumbelConfig(temperature=case["tau"], mode=mode)
    r = RngState(case["seed"], 1)
    gen = ScanpathGenerator(gcfg, r.substream("gen"))
    gen.head.b.data[gcfg.stop_class] += case["stop_bias"]
    params = [p for _, p in gen.named_parameters()]
    for p in params:
        p.data = p.data.astype(dtype)
        p.requires_grad = case["grad"] in ("grad", "no_grad")
    pad = (np.arange(W) < counts[:, None])[:, :, None]
    ws_data = np.where(pad, r.substream("ws").normal((B, W, 6)), 0.0).astype(dtype)
    readout = r.substream("readout").normal((B, 12, W)).astype(dtype)
    results = []
    for fn in (gen.sample_gumbel_batch, lambda *a, **k: _sample_full_noise(gen, *a, **k)):
        for p in params:
            p.grad = None
        ws = Tensor(ws_data, requires_grad=case["grad"] in ("grad", "word_states"))
        rngs = [r.substream("noise", b) for b in range(B)]
        with no_grad() if case["grad"] == "no_grad" else nullcontext():
            sb = fn(ws, counts, rngs, cfg, caps, surrogate=case["relax"] == "surrogate")
        grads = []
        if case["grad"] in ("grad", "word_states"):
            backward(_rows_loss(sb, readout))
            grads = [ws.grad] + [p.grad for p in params]
        results.append((sb, grads))
    (got, got_grads), (want, want_grads) = results
    assert got.fixations == want.fixations
    assert np.array_equal(got.stopped, want.stopped)
    assert got.row_mask.tobytes() == want.row_mask.tobytes()
    assert got.rows.shape == want.rows.shape
    assert got.rows.dtype == want.rows.dtype == dtype
    assert got.rows.data.tobytes() == want.rows.data.tobytes()
    # the reverse pass sums each gradient's per-step terms in another order
    tol = 1e-12 if dtype == np.float64 else 1e-6
    for a, b in zip(got_grads, want_grads):
        assert (a is None) == (b is None)
        assert a is None or np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


def test_sample_paths_stream_ids_match_per_row_substreams(gen, mixed_pair, monkeypatch):
    """Row b * n_paths + p draws from ``rng.substream(sentence_ids[b], p)``."""
    seen = []
    sample = ScanpathGenerator.sample_gumbel_batch

    def spy(self, word_states, counts, rngs, *args, **kwargs):
        seen.extend((s.seed, s.stream_id) for s in rngs)
        return sample(self, word_states, counts, rngs, *args, **kwargs)

    monkeypatch.setattr(ScanpathGenerator, "sample_gumbel_batch", spy)
    rng = RngState(41, 5).substream("eval")
    ids = ["kw-dev-3", 17]
    with no_grad():
        gen.sample_paths(mixed_pair, np.array([3, 5]), ids, 3, rng, ST)
    assert seen == [(41, rng.substream(sid, p).stream_id) for sid in ids for p in range(3)]


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
        n = sp.rows.shape[0]            # one row per step
        assert n >= min_rows
        return tsum(mul(sp.rows, Tensor(readout[:n])))

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
