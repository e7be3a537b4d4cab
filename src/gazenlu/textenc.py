"""Subword tokenizer and a small contextual text encoder.

The tokenizer lowercases, splits on whitespace, and segments each word
by greedy longest match against the vocabulary. The encoder is a
2-layer pre-norm transformer (4 heads, d=128 by default) with learned
position and segment embeddings; word vectors are arithmetic means of
the piece vectors inside each word span.

The encoder computes on real tokens only. It gathers a batch's tokens
once into (N, d) packed rows, and the embedding sum, every layer norm,
linear, ReLU, dropout and residual add run on those rows. Padding exists
only inside the ``attention`` node, which lays the rows out as
(B, heads, T, d / heads) and masks the pad keys, and in the (B, T, d)
token states the encoder returns, which are zero at the padding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffcore import (
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    RngState,
    Tensor,
    add,
    atomic_write,
    attention,
    dropout,
    matmul,
    relu,
    scatter_rows,
    stream_words,
)

CLS_ID, SEP_ID, PAD_ID, UNK_ID = 0, 1, 2, 3
SPECIALS = ("[CLS]", "[SEP]", "[PAD]", "[UNK]")
MAX_NGRAM = 8
# an n-gram earns a slot only when it repeats; hapax substrings stay
# covered by their single characters
MIN_NGRAM_COUNT = 2
MAX_PIECES_PER_WORD = 16
N_SEGMENTS = 2      # [CLS] t1 [SEP] is segment 0, t2 [SEP] segment 1
DROPOUT = 0.1


@dataclass(frozen=True)
class Vocab:
    token_to_id: dict[str, int]

    def __post_init__(self):
        for i, tok in enumerate(SPECIALS):
            if self.token_to_id.get(tok) != i:
                raise ValueError(f"special {tok} must sit at id {i}")
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ValueError("ids must be dense 0..V-1")

    def __len__(self) -> int:
        return len(self.token_to_id)

    @property
    def id_to_token(self) -> list[str]:
        out = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            out[i] = tok
        return out

    @cached_property
    def _max_piece_len(self) -> int:
        """Longest non-special token, computed once per vocabulary."""
        return max((len(t) for t in self.token_to_id if t not in SPECIALS), default=1)

    def segment_word(self, word: str) -> list[int]:
        """Greedy longest-match piece ids; unknown characters become [UNK]."""
        pieces: list[int] = []
        i, n = 0, len(word)
        longest = self._max_piece_len
        while i < n and len(pieces) < MAX_PIECES_PER_WORD:
            for L in range(min(longest, n - i), 0, -1):
                tid = self.token_to_id.get(word[i:i + L])
                if tid is not None and tid > UNK_ID:
                    pieces.append(tid)
                    i += L
                    break
            else:
                pieces.append(UNK_ID)
                i += 1
        return pieces

    def save(self, path) -> None:
        with atomic_write(path) as f:
            for tok in self.id_to_token:
                f.write(tok + "\n")

    @staticmethod
    def load(path) -> "Vocab":
        with open(path, encoding="utf-8") as f:
            toks = [line.rstrip("\n") for line in f]
        while toks and toks[-1] == "":
            toks.pop()
        return Vocab({t: i for i, t in enumerate(toks)})


def build_vocab(lines, vocab_size: int) -> Vocab:
    """Specials, then every character, then repeated n-grams by frequency.

    Characters are always admitted even when they overflow ``vocab_size``;
    only the n-gram slots honor the cap. n-grams are ranked by count then
    lexicographically, which makes identical corpora produce identical
    files.
    """
    if vocab_size < 5:
        raise ValueError(f"vocab_size must be >= 5, got {vocab_size}")
    words: Counter[str] = Counter()
    for line in lines:
        words.update(line.lower().split())
    if not words:
        raise ValueError("empty corpus")
    chars = sorted({c for w in words for c in w})
    # each distinct word's n-grams once, weighted by how often it occurs
    grams: Counter[str] = Counter()
    for w, count in words.items():
        for n in range(2, MAX_NGRAM + 1):
            for i in range(len(w) - n + 1):
                grams[w[i:i + n]] += count
    toks = list(SPECIALS) + chars
    room = vocab_size - len(toks)
    ranked = sorted(
        (g for g, c in grams.items() if c >= MIN_NGRAM_COUNT),
        key=lambda g: (-grams[g], g),
    )
    toks.extend(ranked[:max(room, 0)])
    return Vocab({t: i for i, t in enumerate(toks)})


@dataclass
class EncodedText:
    token_ids: list[int]
    word_spans: list[tuple[int, int]]
    segment_ids: list[int]
    attention_mask: list[int]

    @property
    def n_words(self) -> int:
        return len(self.word_spans)

    def __len__(self) -> int:
        return len(self.token_ids)


def _split_words(text: str) -> list[str]:
    return text.lower().split()


def tokenize(text1: str, text2: str | None, vocab: Vocab, max_len: int) -> EncodedText:
    """[CLS] t1 [SEP] (t2 [SEP]); spans cover content tokens of both parts.

    Over-length inputs lose whole words from the end of the longer
    segment (the second on ties) until the sequence fits.
    """
    if max_len < 4:
        raise ValueError(f"max_len must be >= 4, got {max_len}")
    words1 = _split_words(text1)
    if not words1:
        raise ValueError("text1 is empty after whitespace normalization")
    words2 = _split_words(text2) if text2 is not None else None
    if text2 is not None and not words2:
        raise ValueError("text2 is empty after whitespace normalization")
    seg1 = [vocab.segment_word(w) for w in words1]
    seg2 = [vocab.segment_word(w) for w in words2] if words2 is not None else None

    n_sep = 1 if seg2 is None else 2

    def total() -> int:
        t = 1 + n_sep + sum(len(p) for p in seg1)
        if seg2 is not None:
            t += sum(len(p) for p in seg2)
        return t

    while total() > max_len:
        len1 = sum(len(p) for p in seg1)
        len2 = sum(len(p) for p in seg2) if seg2 is not None else -1
        victim = seg1 if len1 > len2 else seg2
        if not victim:
            victim = seg1 if victim is seg2 else seg2
        if not victim:
            raise ValueError(f"cannot fit input into max_len={max_len}")
        victim.pop()

    ids = [CLS_ID]
    segments = [0]
    spans: list[tuple[int, int]] = []
    for pieces in seg1:
        spans.append((len(ids), len(ids) + len(pieces)))
        ids.extend(pieces)
        segments.extend([0] * len(pieces))
    ids.append(SEP_ID)
    segments.append(0)
    if seg2 is not None:
        for pieces in seg2:
            spans.append((len(ids), len(ids) + len(pieces)))
            ids.extend(pieces)
            segments.extend([1] * len(pieces))
        ids.append(SEP_ID)
        segments.append(1)
    return EncodedText(ids, spans, segments, [1] * len(ids))


def tokenize_whole(text: str, vocab: Vocab, max_len: int, what: str) -> EncodedText:
    """``tokenize`` for one sentence that must keep every word.

    A scanpath indexes the words of its whole sentence, so a sentence
    shortened to fit ``max_len`` would leave recorded fixations past its
    end, or get generated paths over its first words only. ``what`` names
    the sentence in the error.
    """
    enc = tokenize(text, None, vocab, max_len)
    n = len(_split_words(text))
    if enc.n_words < n:
        raise ValueError(f"{what}: max_len={max_len} keeps {enc.n_words} of "
                         f"its {n} words")
    return enc


@dataclass
class Batch:
    """Padded arrays for a list of encoded texts, plus span pooling."""

    token_ids: np.ndarray       # (B, T) int64, PAD-filled
    segment_ids: np.ndarray     # (B, T) int64
    attention_mask: np.ndarray  # (B, T) float32
    pool: np.ndarray            # (B, W, T) float32, rows average word spans
    word_counts: np.ndarray     # (B,) int64

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def collate(encs: list[EncodedText]) -> Batch:
    B = len(encs)
    T = max(len(e) for e in encs)
    W = max(e.n_words for e in encs)
    ids = np.full((B, T), PAD_ID, dtype=np.int64)
    seg = np.zeros((B, T), dtype=np.int64)
    att = np.zeros((B, T), dtype=np.float32)
    pool = np.zeros((B, W, T), dtype=np.float32)
    counts = np.zeros(B, dtype=np.int64)
    for b, e in enumerate(encs):
        n = len(e)
        ids[b, :n] = e.token_ids
        seg[b, :n] = e.segment_ids
        att[b, :n] = e.attention_mask
        counts[b] = e.n_words
        for w, (s, t) in enumerate(e.word_spans):
            pool[b, w, s:t] = 1.0 / (t - s)
    return Batch(ids, seg, att, pool, counts)


@dataclass
class TextEncoderConfig:
    vocab_size: int
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 512
    max_len: int = 128

    def __post_init__(self):
        for name, low in (("d_model", 1), ("n_layers", 0), ("n_heads", 1),
                          ("d_ff", 1), ("max_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


class MultiHeadAttention(Module):
    def __init__(self, d_model: int, n_heads: int, rng: RngState):
        super().__init__()
        if d_model % n_heads:
            raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.wq = Linear(d_model, d_model, rng.substream("q"))
        self.wk = Linear(d_model, d_model, rng.substream("k"))
        self.wv = Linear(d_model, d_model, rng.substream("v"))
        self.wo = Linear(d_model, d_model, rng.substream("o"))

    def __call__(self, x: Tensor, live: np.ndarray) -> Tensor:
        """Packed (N, d) token rows to packed rows; the (B, T) mask
        ``live`` marks the tokens' slots, and each token attends to the
        tokens of its own sentence."""
        return self.wo(attention(self.wq(x), self.wk(x), self.wv(x), live, self.n_heads))


class EncoderBlock(Module):
    def __init__(self, cfg: TextEncoderConfig, rng: RngState):
        super().__init__()
        self.ln1 = LayerNorm(cfg.d_model)
        self.attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng.substream("attn"))
        self.ln2 = LayerNorm(cfg.d_model)
        self.ff1 = Linear(cfg.d_model, cfg.d_ff, rng.substream("ff1"))
        self.ff2 = Linear(cfg.d_ff, cfg.d_model, rng.substream("ff2"))

    def __call__(self, x: Tensor, live: np.ndarray, words: np.ndarray | None) -> Tensor:
        """``words`` (N, 2, d) holds the attention and feed-forward
        dropout words of the packed rows, or is None for no dropout."""
        a = self.attn(self.ln1(x), live)
        if words is not None:
            a = dropout(a, DROPOUT, words[:, 0])
        x = add(x, a)
        f = self.ff2(relu(self.ff1(self.ln2(x))))
        if words is not None:
            f = dropout(f, DROPOUT, words[:, 1])
        return add(x, f)


class TextEncoder(Module):
    """Token + position + segment embeddings into pre-norm blocks."""

    def __init__(self, cfg: TextEncoderConfig, rng: RngState):
        super().__init__()
        self.cfg = cfg
        self.tok = Embedding(cfg.vocab_size, cfg.d_model, rng.substream("tok"))
        self.pos = Embedding(cfg.max_len, cfg.d_model, rng.substream("pos"))
        self.seg = Embedding(N_SEGMENTS, cfg.d_model, rng.substream("seg"))
        self.blocks = ModuleList(
            [EncoderBlock(cfg, rng.substream("block", i)) for i in range(cfg.n_layers)]
        )
        self.final_ln = LayerNorm(cfg.d_model)

    def forward_ids(
        self,
        token_ids: np.ndarray,
        segment_ids: np.ndarray,
        attention_mask: np.ndarray,
        rngs: list[RngState] | None = None,
    ) -> Tensor:
        """(B, T) int arrays to (B, T, d) contextual embeddings, zero at
        the padding.

        The N tokens that ``attention_mask`` marks are gathered once, and
        every token-wise layer runs on those (N, d) packed rows; only the
        attention node lays them out padded. In training, ``rngs`` holds
        one dropout stream per batch row, and one ``stream_words`` call
        draws every mask: row b's stream gives its n_b tokens, one after
        the other, d words for each of the 1 + 2 * n_layers dropout
        sites. A row's masks thus depend on its stream and its tokens
        alone, never on the rest of its batch.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.max(initial=0) >= self.cfg.vocab_size or token_ids.min(initial=0) < 0:
            raise ValueError(
                f"token id out of range for vocab of {self.cfg.vocab_size}"
            )
        B, T = token_ids.shape
        if T > self.cfg.max_len:
            raise ValueError(f"sequence length {T} exceeds max_len {self.cfg.max_len}")
        live = np.asarray(attention_mask) > 0
        real = np.flatnonzero(live)
        x = add(add(self.tok(token_ids.reshape(-1)[real]), self.pos(real % T)),
                self.seg(np.asarray(segment_ids).reshape(-1)[real]))
        words = None
        if self.training and rngs is not None:
            sites, d = 1 + 2 * len(self.blocks), self.cfg.d_model
            words = stream_words(rngs, live.sum(axis=1) * (sites * d))
            words = words.reshape(len(real), sites, d)
            x = dropout(x, DROPOUT, words[:, 0])
        for i, block in enumerate(self.blocks):
            x = block(x, live, None if words is None else words[:, 1 + 2 * i:3 + 2 * i])
        return scatter_rows(self.final_ln(x), live)

    def forward_batch(self, batch: Batch, rngs: list[RngState] | None = None):
        """Returns (token (B,T,d), cls (B,d), words (B,W,d)) tensors."""
        tokens = self.forward_ids(
            batch.token_ids, batch.segment_ids, batch.attention_mask, rngs
        )
        cls = tokens[:, 0, :]
        words = matmul(Tensor(batch.pool.astype(tokens.dtype)), tokens)
        return tokens, cls, words
