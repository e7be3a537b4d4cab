"""Counter-based random streams.

Every source of randomness in the package flows through :class:`RngState`,
a (seed, stream_id) pair backed by the Philox counter-based bit generator.
The stream's Philox key is the two words ``[seed, stream_id]``, so any draw
sequence is reproducible from its (seed, stream_id) alone, independent of
what other streams consumed. The words are converted as numpy converts a
``key=[seed, stream_id]`` list: when one of the two is at or above 2^63
and the other below, the pair goes through float64, so both keep only
their top 53 significant bits. Distinct stream ids at or above 2^63 beside
a seed below 2^63 share a key when they round to the same float64 (about
half of all ``fold_key`` ids are at or above 2^63).

A stream's draws come in sequence: k uniforms drawn in one call are the
values k one-at-a-time calls would give. Callers rely on this to draw a
whole walk's or shuffle's uniforms in one call.

Derived distributions (normal, Gumbel, integers, shuffle) are computed
here from raw uniforms instead of numpy's distribution methods, so the
exact draw sequence is pinned by this file rather than by numpy internals.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
# Guards log(0) in the inverse-CDF transforms below.
_EPS = 1e-20


def fold_key(*parts: int | str) -> int:
    """Stable 64-bit key from a mixed tuple of ints and strings.

    Unlike builtin ``hash`` this is identical across interpreter runs.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


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

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            # the same conversion numpy applies to ``key=[seed, stream_id]``
            words = np.asarray([self.seed, self.stream_id]).astype(np.uint64)
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

    def gumbel(self, shape=()) -> np.ndarray:
        """Standard Gumbel(0, 1) noise, -log(-log(U))."""
        u = self.generator.random(shape)
        return -np.log(-np.log(u + _EPS) + _EPS)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform ints in [low, high) via floor of scaled uniforms."""
        u = self.generator.random(shape)
        out = (low + np.floor(u * (high - low))).astype(np.int64)
        return np.minimum(out, high - 1)

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffled copy of ``items``.

        Swap k (i = n-1-k) takes ``j = min(floor(u_k * (i+1)), i)`` from
        one call's uniforms, which is what ``integers(0, i+1)`` computes.
        """
        out = list(items)
        u = self.generator.random(max(len(out) - 1, 0)).tolist()
        for i, u_k in zip(range(len(out) - 1, 0, -1), u):
            j = min(int(u_k * (i + 1)), i)
            out[i], out[j] = out[j], out[i]
        return out
