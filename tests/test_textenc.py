"""Subword vocabulary, tokenization, and the word-pooled text encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazenlu.diffcore import RngState, grad_check, no_grad
from gazenlu.textenc import (CLS_ID, MAX_NGRAM, MAX_PIECES_PER_WORD,
                             MIN_NGRAM_COUNT, PAD_ID, SEP_ID, SPECIALS, UNK_ID,
                             Batch, TextEncoder, TextEncoderConfig, Vocab,
                             build_vocab, collate, tokenize)


# -- vocabulary ----------------------------------------------------------


def test_special_ids_are_pinned():
    assert (CLS_ID, SEP_ID, PAD_ID, UNK_ID) == (0, 1, 2, 3)


def test_build_vocab_ngram_count_rule():
    vocab = build_vocab(["aa aa ab"], 10)
    tokens = set(vocab.token_to_id)
    # chars always admitted; "aa" occurs twice (count>=2), "ab" only once
    assert {"[CLS]", "[SEP]", "[PAD]", "[UNK]", "a", "b", "aa"} == tokens
    assert vocab.token_to_id["[CLS]"] == 0


def test_build_vocab_chars_exceed_cap():
    # single chars are admitted even when vocab_size is tiny
    vocab = build_vocab(["x y z w v u"], 5)
    for ch in "xyzwvu":
        assert ch in vocab.token_to_id


def test_build_vocab_ranking_prefers_frequency_then_lexicographic():
    vocab = build_vocab(["ab ab ab cd cd"] * 3, 10)
    ids = vocab.token_to_id
    assert ids["ab"] < ids["cd"]  # higher count wins the earlier slot


def _vocab_per_occurrence(lines, vocab_size):
    """The vocabulary with every word occurrence's n-grams counted anew."""
    words = [w for line in lines for w in line.lower().split()]
    grams = {}
    for w in words:
        for n in range(2, MAX_NGRAM + 1):
            for i in range(len(w) - n + 1):
                grams[w[i:i + n]] = grams.get(w[i:i + n], 0) + 1
    toks = list(SPECIALS) + sorted({c for w in words for c in w})
    ranked = sorted((g for g, c in grams.items() if c >= MIN_NGRAM_COUNT),
                    key=lambda g: (-grams[g], g))
    return toks + ranked[:max(vocab_size - len(toks), 0)]


@pytest.mark.parametrize("vocab_size", [5, 60, 512, 4096])
def test_build_vocab_matches_per_occurrence_count(tiny_suite, vocab_size):
    lines = tiny_suite.vocab_lines() + ["Mixed CASE words", "tiny a aa aaa"]
    vocab = build_vocab(lines, vocab_size)
    assert list(vocab.token_to_id) == _vocab_per_occurrence(lines, vocab_size)


def pieces_to_names(vocab, ids):
    rev = {v: k for k, v in vocab.token_to_id.items()}
    return [rev[i] for i in ids]


def test_segment_greedy_longest_match():
    vocab = build_vocab(["abc abc ab ab"] * 2, 20)
    assert "abc" in vocab.token_to_id and "ab" in vocab.token_to_id
    names = pieces_to_names(vocab, vocab.segment_word("abcab"))
    assert names == ["abc", "ab"]


def test_segment_unknown_char_falls_back_to_unk():
    vocab = build_vocab(["ab ab"], 10)
    assert vocab.segment_word("a#b") == [
        vocab.token_to_id["a"], UNK_ID, vocab.token_to_id["b"],
    ]


def test_segment_piece_cap():
    vocab = build_vocab(["q q"], 10)
    assert len(vocab.segment_word("q" * 50)) == MAX_PIECES_PER_WORD


@given(st.text(alphabet="abcd", min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_segmentation_concatenates_back(word):
    vocab = build_vocab(["ab ab cd cd abcd abcd a b c d"] * 2, 40)
    pieces = vocab.segment_word(word)
    rev = {v: k for k, v in vocab.token_to_id.items()}
    rebuilt = "".join(rev[i] for i in pieces if i != UNK_ID)
    assert rebuilt == word[: len(rebuilt)]
    if UNK_ID not in pieces and len(pieces) < MAX_PIECES_PER_WORD:
        assert rebuilt == word


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab(["aa aa ab cc cc cc"], 16)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    back = Vocab.load(path)
    assert back.token_to_id == vocab.token_to_id


# -- tokenization --------------------------------------------------------


def test_tokenize_single_fixture():
    vocab = build_vocab(["aa aa ab"], 10)
    enc = tokenize("ab", None, vocab, 16)
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    assert enc.token_ids == [CLS_ID, a, b, SEP_ID]
    assert enc.word_spans == [(1, 3)]
    assert enc.segment_ids == [0, 0, 0, 0]
    assert enc.attention_mask == [1, 1, 1, 1]
    assert enc.n_words == 1


def test_tokenize_pair_segments():
    vocab = build_vocab(["aa aa ab"], 10)
    enc = tokenize("aa", "ab", vocab, 16)
    aa = vocab.token_to_id["aa"]
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    assert enc.token_ids == [CLS_ID, aa, SEP_ID, a, b, SEP_ID]
    assert enc.segment_ids == [0, 0, 0, 1, 1, 1]
    assert enc.n_words == 2
    assert enc.word_spans == [(1, 2), (3, 5)]


def test_tokenize_truncates_longer_segment_whole_words():
    vocab = build_vocab(["a b c d e f g h"] * 2, 30)
    # segment2 longer: words drop from it first, whole words at a time
    enc = tokenize("a b", "c d e f g h", vocab, 8)
    assert len(enc.token_ids) <= 8
    assert enc.token_ids[0] == CLS_ID
    assert enc.token_ids.count(SEP_ID) == 2
    seg1 = sum(1 for s, sp in zip(enc.segment_ids, enc.token_ids)
               if s == 0 and sp not in (CLS_ID, SEP_ID))
    seg2 = sum(1 for s, sp in zip(enc.segment_ids, enc.token_ids)
               if s == 1 and sp not in (CLS_ID, SEP_ID))
    assert seg1 == 2  # the shorter segment keeps all its words
    assert seg2 == 8 - 3 - seg1


def test_tokenize_tie_drops_from_second_segment():
    vocab = build_vocab(["a b c d"] * 2, 20)
    enc = tokenize("a b", "c d", vocab, 6)
    ids = vocab.token_to_id
    assert enc.token_ids == [CLS_ID, ids["a"], ids["b"], SEP_ID, ids["c"], SEP_ID]


def test_collate_shapes_and_padding():
    vocab = build_vocab(["aa aa ab"], 10)
    encs = [tokenize("ab", None, vocab, 16), tokenize("aa ab aa", None, vocab, 16)]
    batch = collate(encs)
    assert isinstance(batch, Batch)
    assert batch.size == 2
    assert batch.token_ids.shape[0] == 2
    assert batch.token_ids[0, batch.attention_mask[0] == 0].tolist() == [PAD_ID] * int(
        (batch.attention_mask[0] == 0).sum()
    )
    assert batch.word_counts.tolist() == [1, 3]


# -- encoder -------------------------------------------------------------


@pytest.fixture(scope="module")
def small_encoder():
    vocab = build_vocab(["aa aa ab ba ba b a"] * 3, 32)
    cfg = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=16,
                            n_layers=1, n_heads=2, d_ff=32, max_len=16)
    enc = TextEncoder(cfg, RngState(0, 0))
    return vocab, cfg, enc


def test_encoder_eval_deterministic(small_encoder):
    vocab, cfg, enc = small_encoder
    e = tokenize("aa ab", None, vocab, 16)
    with no_grad():
        tok1, cls1, _ = enc.forward_batch(collate([e]))
        tok2, cls2, _ = enc.forward_batch(collate([e]))
    assert np.array_equal(tok1.data, tok2.data)
    assert np.array_equal(cls1.data, cls2.data)


def test_word_pooling_is_token_mean(small_encoder):
    vocab, cfg, enc = small_encoder
    e = tokenize("aa ab", None, vocab, 16)
    with no_grad():
        tokens, _, words = enc.forward_batch(collate([e]))
    toks = tokens.data[0]
    for w, (s, t) in enumerate(e.word_spans):
        manual = toks[s:t].mean(axis=0)
        assert np.abs(words.data[0, w] - manual).max() < 1e-6


def test_padding_permutation_invariance(small_encoder):
    vocab, cfg, enc = small_encoder
    e_short = tokenize("aa", None, vocab, 16)
    e_long = tokenize("aa ab ba b a", None, vocab, 16)
    with no_grad():
        alone = enc.forward_batch(collate([e_short]))[2].data[0]
        padded = enc.forward_batch(collate([e_short, e_long]))[2].data[0]
    n_words = e_short.n_words
    assert np.abs(alone[:n_words] - padded[:n_words]).max() < 1e-6


def test_encoder_rejects_bad_ids(small_encoder):
    vocab, cfg, enc = small_encoder
    e = tokenize("aa", None, vocab, 16)
    bad = type(e)(token_ids=[99999] + e.token_ids[1:],
                  word_spans=e.word_spans, segment_ids=e.segment_ids,
                  attention_mask=e.attention_mask)
    with pytest.raises(ValueError):
        with no_grad():
            enc.forward_batch(collate([bad]))


@pytest.mark.parametrize("field, value", [("d_model", 0), ("n_layers", -1),
                                          ("n_heads", 0), ("d_ff", -3),
                                          ("max_len", 0)])
def test_encoder_config_rejects_sizes_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= "):
        TextEncoderConfig(vocab_size=10, **{field: value})
    assert TextEncoderConfig(vocab_size=10, n_layers=0).n_layers == 0


def test_encoder_gradcheck_small():
    """One sentence in eval mode, and two of unequal length, so that one
    row has pad slots, in training mode with dropout."""
    vocab = build_vocab(["aa aa ab"], 10)
    cfg = TextEncoderConfig(vocab_size=len(vocab.token_to_id), d_model=8,
                            n_layers=1, n_heads=2, d_ff=16, max_len=8)
    enc = TextEncoder(cfg, RngState(1, 0))
    for _, t in enc.named_parameters():
        t.data = t.data.astype(np.float64)
    params = dict(enc.named_parameters())

    from gazenlu.diffcore import Tensor, add, mul, tsum

    for train, texts in ((False, ["aa ab"]), (True, ["aa ab aa", "ab"])):
        enc.train(train)
        batch = collate([tokenize(t, None, vocab, 8) for t in texts])
        assert batch.attention_mask.min() == (0.0 if train else 1.0)
        r = RngState(2, int(train))
        w_words = r.substream("words").normal((batch.size, batch.pool.shape[1], cfg.d_model))
        w_cls = r.substream("cls").normal((batch.size, cfg.d_model))

        def build():
            _, cls, words = enc.forward_batch(
                batch, [RngState(4, 0), RngState(4, 1)] if train else None)
            return add(tsum(mul(words, Tensor(w_words))), tsum(mul(cls, Tensor(w_cls))))

        report = grad_check(build, params, sample=2, rng=RngState(3, 0))
        assert report.ok, (train, report.failures)
