"""Counter-based random streams.

Every source of randomness in the package flows through :class:`RngState`,
a (seed, stream_id) pair backed by the Philox counter-based bit generator.
The stream's Philox key is the two words ``[seed, stream_id]``, so any draw
sequence is reproducible from its (seed, stream_id) alone, independent of
what other streams consumed. The words are converted as numpy converts a
``key=[seed, stream_id]`` list, by ``_key_words``, the one conversion both
draw paths below use: when one of the two is at or above 2^63 and the
other below, the pair goes through float64, so both keep only their top
53 significant bits. Distinct stream ids at or above 2^63 beside a seed
below 2^63 share a key when they round to the same float64 (about half of
all ``fold_key`` ids are at or above 2^63).

A stream's draws come in sequence: k uniforms drawn in one call are the
values k one-at-a-time calls would give. Callers rely on this to draw a
whole walk's or shuffle's uniforms in one call.

Four paths draw the same streams. Philox is counter-based: block j of a
stream (its uniforms 4j..4j+3) is Philox4x64-10 of counter j+1 under the
stream's key, so any block of any stream can be computed on its own
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
Which path to use depends on how many streams there are and how long:

- ``first_uniforms`` draws the first values of many fresh streams in
  vectorized numpy passes over fixed-size chunks of (stream, block)
  pairs. Use it for many short streams, as for the synthetic suite's
  thousands of streams of a few to a few dozen values: it draws a
  stream's first 4 values in about 0.8 us, where building a numpy
  generator costs about 6-8 us.
- ``stream_uniforms`` draws the first values of fresh streams of any
  length through one numpy Philox whose key is reset for each stream.
  Use it for a batch of long streams, as for the sampler's noise
  (hundreds of streams of about 1,000 values): numpy's C loop costs about
  8 ns per value against about 100 ns in the vectorized pass, and a key
  reset with its draw call costs about 3 us a stream, against about 6 us
  to build a generator.
- ``stream_words`` draws the first raw 32-bit words of fresh streams the
  same way, packed end to end. Dropout reads them: one stream per
  training row, so a row's masks never depend on its batch, and one call
  per text-encoder forward or scan, for the real cells only.
- ``RngState``'s own generator draws a stream in sequence, call after
  call, as for initialization.

Each gives bit for bit the values of the stream's own generator. These
times are from a 2-core x86-64 machine with numpy 2.4.

A model restored from a checkpoint is built from ``ZeroDraws``, which
draws nothing, since the checkpoint overwrites every value drawn.

Derived distributions (normal, Gumbel, integers, shuffle) are computed
here from raw uniforms instead of numpy's distribution methods, so the
exact draw sequence is pinned by this file rather than by numpy internals.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
# Guards log(0) in the inverse-CDF transforms below.
_EPS = 1e-20
# Philox4x64-10 (Random123): the round multipliers of counter words 0 and 2,
# split into 32-bit halves, and the key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & np.uint64(0xFFFFFFFF), _PHILOX_M >> np.uint64(32)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# (stream, block) pairs per vectorized Philox pass of ``first_uniforms``
_PHILOX_CHUNK = 1024


def _parts_bytes(parts) -> bytes:
    return "".join([f"{part!r}\x1f" for part in parts]).encode("utf-8")


def fold_key(*parts: int | str) -> int:
    """Stable 64-bit key from a mixed tuple of ints and strings.

    Unlike builtin ``hash`` this is identical across interpreter runs.
    """
    h = hashlib.blake2b(_parts_bytes(parts), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def _key_words(seed: int, stream_id: int) -> tuple[int, int]:
    """Philox key words of the stream ``(seed, stream_id)``, as numpy
    converts a ``key=[seed, stream_id]`` list: a pair with one word at or
    above 2^63 and the other below goes through float64, and a word that
    rounds up to 2^64 wraps to 0 (numpy's uint64 cast on x86-64)."""
    if (seed ^ stream_id) >> 63:
        return int(float(seed)) & _MASK64, int(float(stream_id)) & _MASK64
    return seed, stream_id


def _philox(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counters ``(counter, 0, 0, 0)`` under the keys
    ``key`` (``(2, N)`` words, updated in place): the ``(N, 4)`` output
    words, in the order numpy's Philox hands them out.

    ``a`` holds counter words 0 and 2, which a round multiplies, and ``b``
    words 1 and 3, which it XORs in. The 64x64-bit products are built from
    32-bit halves, so their high words are exact in uint64 arithmetic.
    """
    a = np.stack([counter, np.zeros_like(counter)])
    b = np.zeros_like(a)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        a_lo, a_hi = a & _LO32, a >> _SHIFT32
        lh, hl = _PHILOX_M_LO * a_hi, _PHILOX_M_HI * a_lo
        hi = _PHILOX_M_LO * a_lo
        hi >>= _SHIFT32
        hi += lh & _LO32
        hi += hl & _LO32
        hi >>= _SHIFT32              # the carry out of the middle words
        hi += _PHILOX_M_HI * a_hi
        hi += lh >> _SHIFT32
        hi += hl >> _SHIFT32
        del a_lo, a_hi, lh, hl       # freed before the next round's arrays
        # words 0 and 2 take the crossed high words, 1 and 3 the low words
        a *= _PHILOX_M
        a, b = hi[::-1] ^ b, a[::-1]
        a ^= key
    return np.stack([a[0], b[0], a[1], b[1]], axis=1)


def first_uniforms(streams: Sequence["RngState"], n: int, start: int = 0) -> np.ndarray:
    """Uniforms ``start .. start+n-1`` of each stream, as one
    ``(len(streams), n)`` array.

    Row i is bit for bit what ``streams[i].uniform((start + n,))[start:]``
    gives on a fresh stream: each stream is read from its start, whatever
    its own generator has drawn, and none is advanced. The (stream, block)
    pairs run through vectorized Philox passes of at most ``_PHILOX_CHUNK``
    pairs each, instead of one numpy generator per stream (the module
    docstring says when to use which), so the passes' temporaries stay
    bounded however many streams one call draws.
    """
    out = np.empty((len(streams), n))
    if not streams or n == 0:
        return out
    first, stop = start // 4, -(-(start + n) // 4)
    n_blocks = stop - first
    skip = start - 4 * first
    # block j of a stream runs Philox on counter j + 1
    blocks = np.arange(first + 1, stop + 1, dtype=np.uint64)
    per_chunk = max(1, _PHILOX_CHUNK // n_blocks)
    for at in range(0, len(streams), per_chunk):
        chunk = streams[at:at + per_chunk]
        pairs = itertools.chain.from_iterable(
            [_key_words(s.seed, s.stream_id) for s in chunk])
        key = np.fromiter(pairs, np.uint64, 2 * len(chunk)).reshape(-1, 2).T
        words = _philox(np.tile(blocks, len(chunk)), np.repeat(key, n_blocks, axis=1))
        words = words.reshape(len(chunk), 4 * n_blocks)[:, skip:skip + n]
        # a double from the top 53 bits, as numpy's Philox makes it
        words >>= np.uint64(11)
        np.multiply(words, 1.0 / 9007199254740992.0, out=out[at:at + len(chunk)])
    return out


def _fresh_generators(streams: Sequence["RngState"]):
    """For each stream in turn, one reused numpy generator whose Philox is
    reset to that stream's start: counter 0, an empty output buffer and
    the stream's key, set through the ``state`` setter, in place of one
    generator per stream (the module docstring says when to use which)."""
    bits = np.random.Philox(_KeyWords(np.zeros(2, np.uint64)))
    gen = np.random.Generator(bits)
    # lists, which the setter reads faster than arrays
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for s in streams:
        state["state"]["key"] = _key_words(s.seed, s.stream_id)
        bits.state = state
        yield gen


def _counts(streams: Sequence["RngState"], counts) -> list[int]:
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if len(counts) != len(streams):
        raise ValueError(f"{len(counts)} counts for {len(streams)} streams")
    return counts.tolist()


def stream_uniforms(streams: Sequence["RngState"], counts) -> np.ndarray:
    """The first ``counts[i]`` uniforms of each stream, as one
    ``(len(streams), max(counts))`` array padded with zeros.

    Row i is bit for bit what ``streams[i].uniform((counts[i],))`` gives
    on a fresh stream: each stream is read from its start, whatever its
    own generator has drawn, and none is advanced.
    """
    counts = _counts(streams, counts)
    out = np.zeros((len(streams), max(counts, default=0)))
    for row, gen, n in zip(out, _fresh_generators(streams), counts):
        gen.random(out=row[:n])
    return out


def stream_words(streams: Sequence["RngState"], counts) -> np.ndarray:
    """The first ``counts[i]`` raw 32-bit words of each stream, laid end
    to end in one uint32 array of ``sum(counts)`` words, with no padding.

    Stream i's words are its own generator's raw 64-bit outputs, each
    split into its low and high word (``random_raw`` viewed as uint32),
    read from the stream's start; none is advanced.
    """
    counts = _counts(streams, counts)
    out = np.empty(sum(counts), dtype=np.uint32)
    at = 0
    for gen, n in zip(_fresh_generators(streams), counts):
        out[at:at + n] = gen.bit_generator.random_raw(-(-n // 2)).view(np.uint32)[:n]
        at += n
    return out


def gumbel_of(u) -> np.ndarray:
    """Standard Gumbel(0, 1) noise -log(-log(U)) of uniforms ``u``."""
    return -np.log(-np.log(u + _EPS) + _EPS)


def scaled_ints(u, low, high) -> np.ndarray:
    """Ints in ``[low, high)`` from uniforms ``u``: the floor of ``u``
    scaled to the range, clipped below ``high``. ``low`` and ``high`` may
    be arrays that broadcast against ``u``."""
    out = (low + np.floor(u * (high - low))).astype(np.int64)
    return np.minimum(out, high - 1)


class _KeyWords(ISeedSequence):
    """Hands Philox its key words directly.

    ``Philox(key=...)`` first builds a ``SeedSequence`` from OS entropy and
    then overwrites its output with the key; passing the words as the seed
    sequence skips that draw and yields the same generator.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RngState:
    """One deterministic draw stream identified by (seed, stream_id)."""

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen: np.random.Generator | None = None

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, *parts: int | str) -> "RngState":
        """Fresh non-overlapping stream keyed by this stream plus ``parts``."""
        return RngState(self.seed, fold_key(self.stream_id, *parts))

    def substreams(self, *parts: int | str, tails: Iterable[tuple]) -> list["RngState"]:
        """``[self.substream(*parts, *tail) for tail in tails]``, hashing
        the shared ``parts`` once."""
        base = hashlib.blake2b(_parts_bytes((self.stream_id, *parts)), digest_size=8)
        out = []
        for tail in tails:
            h = base.copy()
            h.update(_parts_bytes(tail))
            out.append(RngState(self.seed, int.from_bytes(h.digest(), "little")))
        return out

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            words = np.array(_key_words(self.seed, self.stream_id), np.uint64)
            self._gen = np.random.Generator(np.random.Philox(_KeyWords(words)))
        return self._gen

    # -- draw helpers ---------------------------------------------------

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform [0, 1) doubles."""
        return self.generator.random(shape)

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller from raw uniforms."""
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        u1 = np.clip(self.generator.random(half), _EPS, None)
        u2 = self.generator.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
        out = z[:n].reshape(shape)
        return out if shape else float(out)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform ints in [low, high) via floor of scaled uniforms."""
        return scaled_ints(self.generator.random(shape), low, high)

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffled copy of ``items``.

        Swap k (i = n-1-k) takes ``j`` from uniform k of one call, as
        ``integers(0, i+1)`` computes it.
        """
        out = list(items)
        n = len(out)
        u = self.generator.random(max(n - 1, 0))
        swaps = scaled_ints(u, 0, np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            out[i], out[j] = out[j], out[i]
        return out


class ZeroDraws:
    """A draw source that draws nothing, for building a model whose every
    parameter a checkpoint is about to fill: each substream is itself, and
    ``uniform`` and ``normal`` return zeros of ``RngState``'s shapes.

    Model constructors draw only through ``substream``, ``uniform`` and
    ``normal``, and every value they draw becomes a parameter. Loading a
    state overwrites each parameter and refuses a state that lacks one, so
    no zero drawn here survives a successful load.
    """

    __slots__ = ()

    def substream(self, *parts: int | str) -> "ZeroDraws":
        return self

    def uniform(self, shape=()) -> np.ndarray:
        return np.zeros(shape)

    def normal(self, shape=()) -> np.ndarray | float:
        return np.zeros(shape) if shape else 0.0
