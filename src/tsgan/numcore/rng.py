"""Seeded counter-based random streams.

Built on numpy's Philox bit generator, so an identical seed and draw sequence
yields bit-identical values across runs and platforms. A stream builds its
generator on its first draw: deriving a child that is never drawn from (the
dropout stream of a generator without dropout) costs no SeedSequence or
Philox set-up.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_to_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _entropy_words(parts) -> np.ndarray:
    """The uint32 words SeedSequence makes of a list of non-negative ints: each part's
    32-bit words, least significant first, and one word for 0. Handed over as one
    array, numpy uses them as they are instead of converting each int in Python."""
    words = []
    for part in parts:
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & 0xFFFFFFFF)
        part >>= 32
        while part:
            words.append(part & 0xFFFFFFFF)
            part >>= 32
    return np.array(words, dtype=np.uint32)


class RngStream:
    """Deterministic random source keyed by (seed, derivation key)."""

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(_key_to_int(k) for k in key)
        self._gen = None

    def _bits(self) -> np.random.Generator:
        """The stream's generator; its state depends only on (seed, key), not on when it is built."""
        if self._gen is None:
            entropy = _entropy_words((self.seed & 0xFFFFFFFFFFFFFFFF, *self.key))
            self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        return self._gen

    def child(self, *key_parts) -> "RngStream":
        """Derive an independent stream; same (seed, key parts) always gives the same stream."""
        return RngStream(self.seed, self.key + tuple(key_parts))

    def normal(self, shape, loc=0.0, scale=1.0) -> np.ndarray:
        return self._bits().normal(loc, scale, size=shape).astype(np.float64, copy=False)

    def uniform(self, low, high, shape) -> np.ndarray:
        return self._bits().uniform(low, high, size=shape).astype(np.float64, copy=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._bits().permutation(n)

    def integers(self, low, high, shape=None) -> np.ndarray:
        return self._bits().integers(low, high, size=shape)
