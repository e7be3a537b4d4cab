"""Counter-based RNG: keyed substreams, pinned draw recipes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import own_words

from gazenlu.diffcore import (RngState, dropout_keep, first_uniforms, fold_key,
                              gumbel_of, stream_uniforms, stream_words)

EULER_MASCHERONI = 0.5772156649015329


def test_same_key_same_draws():
    a = RngState(42, 0).substream("x", 3).normal((16,))
    b = RngState(42, 0).substream("x", 3).normal((16,))
    assert np.array_equal(a, b)


def test_different_parts_different_draws():
    base = RngState(42, 0)
    a = base.substream("x", 3).uniform((64,))
    b = base.substream("x", 4).uniform((64,))
    c = base.substream("y", 3).uniform((64,))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert RngState(42, 0).seed == RngState(42, 1).seed
    assert not np.array_equal(
        RngState(42, 0).uniform((32,)), RngState(42, 1).uniform((32,))
    )


def test_substream_nesting_is_path_dependent():
    base = RngState(7, 0)
    ab = base.substream("a").substream("b").uniform((8,))
    ab2 = base.substream("a", "b").uniform((8,))
    # nested vs flat keys are distinct paths; each is self-consistent
    assert np.array_equal(ab, RngState(7, 0).substream("a").substream("b").uniform((8,)))
    assert not np.array_equal(ab, ab2)


def test_fold_key_stability():
    assert fold_key(("a", 1)) == fold_key(("a", 1))
    assert fold_key(("a", 1)) != fold_key(("a", 2))
    assert fold_key(("a", 1)) != fold_key(("b", 1))
    assert fold_key((1, "a")) != fold_key(("a", 1))


def test_uniform_range_and_moments():
    u = RngState(0, 0).uniform((200_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.003


def test_normal_moments():
    z = RngState(1, 0).normal((200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_gumbel_mean_matches_euler_mascheroni():
    g = gumbel_of(RngState(2, 0).uniform((400_000,)))
    assert abs(g.mean() - EULER_MASCHERONI) < 0.01
    # Gumbel variance is pi^2/6
    assert abs(g.var() - np.pi ** 2 / 6.0) < 0.03


def test_integers_bounds():
    k = RngState(3, 0).integers(5, 11, (10_000,))
    assert k.min() >= 5 and k.max() <= 10
    assert set(np.unique(k)) == set(range(5, 11))


@given(st.lists(st.integers(-100, 100), min_size=0, max_size=40))
@settings(max_examples=50, deadline=None)
def test_shuffled_is_permutation(items):
    out = RngState(9, 0).substream("s", len(items)).shuffled(items)
    assert sorted(out) == sorted(items)
    assert out == RngState(9, 0).substream("s", len(items)).shuffled(items)


def test_shuffled_does_not_mutate_input():
    items = [3, 1, 2]
    RngState(0, 0).shuffled(items)
    assert items == [3, 1, 2]


def test_generator_independent_of_draw_order():
    # drawing from one substream does not shift a sibling substream
    base = RngState(11, 0)
    s1 = base.substream("left")
    _ = s1.uniform((100,))
    right_after = base.substream("right").uniform((8,))
    right_fresh = RngState(11, 0).substream("right").uniform((8,))
    assert np.array_equal(right_after, right_fresh)


# the stream keys as ``Philox(key=[seed, stream_id])`` sets them. An id
# within 2**10 of 2**64 beside a low seed rounds to 2**64, which overflows
# the uint64 cast (numpy warns), so the ids stay below that.
MAX_ID = 2**64 - 2**11
KEY_SEEDS = [0, 7, 2**53 + 1, 2**63 + 5]
KEY_IDS = [0, 1, 2**53 + 1, 2**63 - 1, 2**63, 10414409415227832210, MAX_ID,
           fold_key(0, "synthetic"), fold_key(fold_key(0, "synthetic"), "pool"),
           fold_key(3, "text", 12), fold_key(11, "gaze", "train")]


def test_stream_keys_match_philox_key_list():
    assert any(i >= 2**63 for i in KEY_IDS[7:]) and any(i < 2**63 for i in KEY_IDS[7:])
    for seed in KEY_SEEDS:
        for stream_id in KEY_IDS:
            ref = np.random.Generator(np.random.Philox(key=[seed, stream_id]))
            gen = RngState(seed, stream_id).generator
            want, got = ref.bit_generator.state["state"], gen.bit_generator.state["state"]
            assert np.array_equal(got["key"], want["key"]), (seed, stream_id)
            assert np.array_equal(got["counter"], want["counter"])
            assert np.array_equal(gen.random(64), ref.random(64)), (seed, stream_id)


@given(seed=st.integers(0, MAX_ID), stream_id=st.integers(0, MAX_ID))
@settings(max_examples=100, deadline=None)
def test_any_stream_key_matches_philox_key_list(seed, stream_id):
    ref = np.random.Philox(key=[seed, stream_id]).state["state"]["key"]
    got = RngState(seed, stream_id).generator.bit_generator.state["state"]["key"]
    assert np.array_equal(got, ref)


_ids = st.one_of(st.sampled_from(KEY_IDS), st.integers(0, MAX_ID))


@given(seed=st.sampled_from(KEY_SEEDS), ids=st.lists(_ids, max_size=50),
       start=st.integers(0, 300), n=st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_first_uniforms_match_each_streams_own_draws(seed, ids, start, n):
    streams = [RngState(seed, i) for i in ids]
    got = first_uniforms(streams, n, start)
    assert got.shape == (len(ids), n) and got.dtype == np.float64
    for row, stream_id in zip(got, ids):
        want = RngState(seed, stream_id).uniform((start + n,))[start:]
        assert row.tobytes() == want.tobytes(), (seed, stream_id, start, n)
    # the streams themselves are not advanced
    for stream, stream_id in zip(streams[:3], ids):
        assert stream.uniform() == RngState(seed, stream_id).uniform()


@given(seed=st.sampled_from(KEY_SEEDS),
       rows=st.lists(st.tuples(_ids, st.integers(0, 700)), max_size=30),
       drawn=st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_stream_uniforms_match_each_streams_own_draws(seed, rows, drawn):
    """Ragged counts, 0 included, and ids at or above 2**63 beside small
    seeds: row i is stream i's own first counts[i] uniforms, then zeros,
    whatever the stream has drawn already, and no stream is advanced."""
    ids = [i for i, _ in rows]
    counts = [n for _, n in rows]
    streams = [RngState(seed, i) for i in ids]
    for s in streams[:3]:
        s.uniform((drawn,))
    got = stream_uniforms(streams, counts)
    assert got.shape == (len(rows), max(counts, default=0)) and got.dtype == np.float64
    for row, stream_id, n in zip(got, ids, counts):
        want = RngState(seed, stream_id).uniform((n,))
        assert row[:n].tobytes() == want.tobytes(), (seed, stream_id, n)
        assert not row[n:].any()
    for stream, stream_id in zip(streams[:3], ids):
        assert stream.uniform() == RngState(seed, stream_id).uniform((drawn + 1,))[-1]


@given(seed=st.sampled_from(KEY_SEEDS),
       rows=st.lists(st.tuples(_ids, st.integers(0, 301)), max_size=30),
       drawn=st.integers(0, 9))
@example(seed=0, rows=[(5, 7)], drawn=0)
@example(seed=3, rows=[(1, 0), (2, 8), (2**63 + 5, 0), (9, 1)], drawn=3)
@settings(max_examples=80, deadline=None)
def test_stream_words_match_each_streams_own_raw_words(seed, rows, drawn):
    """Odd, even and zero counts, one stream or many: the words are laid
    end to end, stream i's ``counts[i]`` words being its own generator's
    ``random_raw`` outputs viewed as uint32, read from its start whatever
    it has drawn, and no stream is advanced."""
    ids = [i for i, _ in rows]
    counts = [n for _, n in rows]
    streams = [RngState(seed, i) for i in ids]
    for s in streams[:3]:
        s.uniform((drawn,))
    got = stream_words(streams, counts)
    assert got.shape == (sum(counts),) and got.dtype == np.uint32
    at = 0
    for stream_id, n in zip(ids, counts):
        raw = RngState(seed, stream_id).generator.bit_generator.random_raw(-(-n // 2))
        assert got[at:at + n].tobytes() == raw.view(np.uint32)[:n].tobytes()
        at += n
    for stream, stream_id in zip(streams[:3], ids):
        assert stream.uniform() == RngState(seed, stream_id).uniform((drawn + 1,))[-1]


def test_stream_words_refuse_counts_unlike_the_streams():
    with pytest.raises(ValueError, match="2 counts for 1 streams"):
        stream_words([RngState(0, 0)], [1, 2])


def test_dropout_keeps_a_word_at_or_above_ceil_p_times_2_to_the_32():
    """The keep rule at p = 0.1: the threshold is ceil(0.1 * 2^32), and on
    10^6 words of one stream the keep rate is within 4 sigma of 0.9."""
    threshold = 429496730
    assert threshold == -(-(2**32) // 10)      # ceil(2^32 / 10), in integers
    words = np.array([0, threshold - 1, threshold, 2**32 - 1], dtype=np.uint32)
    keep = dropout_keep(words, 0.1, np.float32)
    scale = np.float32(1.0) / np.float32(0.9)
    assert keep.dtype == np.float32 and keep.tolist() == [0.0, 0.0, scale, scale]
    n = 10**6
    kept = np.count_nonzero(dropout_keep(own_words(RngState(8, 1), n), 0.1, np.float32))
    assert abs(kept / n - 0.9) <= 4 * np.sqrt(0.9 * 0.1 / n)


def test_gumbel_is_gumbel_of_the_streams_uniforms():
    """The sampler's noise, Gumbel noise of a batch's uniforms drawn by
    ``stream_uniforms``, is each stream's own draws turned into noise."""
    streams = [RngState(2, key) for key in KEY_IDS]
    batched = gumbel_of(stream_uniforms(streams, [5 * 64] * len(streams)))
    for row, key in zip(batched, KEY_IDS):
        g = gumbel_of(RngState(2, key).uniform((5, 64)))
        assert row.tobytes() == g.reshape(-1).tobytes()


def test_substreams_share_a_prefix():
    tails = [(), (1,), ("x", 2), (("a", 1),)]
    base = RngState(5, 9)
    assert [(s.seed, s.stream_id) for s in base.substreams("path", 3, tails=tails)] \
        == [(5, base.substream("path", 3, *t).stream_id) for t in tails]
    assert base.substreams(tails=[(1,)])[0].stream_id == fold_key(9, 1)


def test_high_stream_ids_beside_a_low_seed_keep_53_bits():
    # numpy builds the key list [seed, id] as float64 when only id is >= 2**63
    words = RngState(0, 10414409415227832210).generator.bit_generator.state["state"]["key"]
    assert words.tolist() == [0, 10414409415227832320]
    assert np.array_equal(RngState(0, 2**63 + 1).uniform((8,)),
                          RngState(0, 2**63).uniform((8,)))
    assert not np.array_equal(RngState(2**63, 2**63 + 1).uniform((8,)),
                              RngState(2**63, 2**63).uniform((8,)))


@given(k=st.integers(0, 300), cuts=st.lists(st.integers(0, 300), max_size=6),
       key=st.integers(0, MAX_ID))
@settings(max_examples=60, deadline=None)
def test_one_call_draws_equal_any_split(k, cuts, key):
    """k uniforms from one call are the k values drawn in pieces."""
    whole = RngState(13, key).uniform((k,))
    bounds = sorted({0, k, *(c for c in cuts if c <= k)})
    rng = RngState(13, key)
    pieces = [rng.uniform((b - a,)) for a, b in zip(bounds, bounds[1:])]
    one_by_one = RngState(13, key)
    assert np.array_equal(np.concatenate([np.empty(0), *pieces]), whole)
    assert np.array_equal([one_by_one.uniform() for _ in range(min(k, 20))], whole[:20])


def _shuffled_per_swap(rng, items):
    """The shuffle as one ``integers`` draw per swap."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out


@given(n=st.integers(0, 400), key=st.integers(0, MAX_ID))
@settings(max_examples=60, deadline=None)
def test_shuffled_matches_per_swap_draws(n, key):
    items = list(range(n))
    assert RngState(9, key).shuffled(items) == _shuffled_per_swap(RngState(9, key), items)
