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


# Each string key part's int, filled the first time a stream meets the part, so that
# a training loop's child streams run one SHA-256 per distinct part per process
_STRING_KEYS: dict[str, int] = {}


def _key_ints(parts) -> tuple:
    """The key parts as ints: an int as it is, any other part the first 8 bytes
    (little-endian) of the SHA-256 of its str."""
    ints = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            ints.append(int(part))
            continue
        text = str(part)
        value = _STRING_KEYS.get(text)
        if value is None:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            value = _STRING_KEYS[text] = int.from_bytes(digest[:8], "little")
        ints.append(value)
    return tuple(ints)


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
        self.key = _key_ints(key)
        self._gen = None

    def _bits(self) -> np.random.Generator:
        """The stream's generator; its state depends only on (seed, key), not on when it is built."""
        if self._gen is None:
            entropy = _entropy_words((self.seed & 0xFFFFFFFFFFFFFFFF, *self.key))
            self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        return self._gen

    def child(self, *key_parts) -> "RngStream":
        """Derive an independent stream; same (seed, key parts) always gives the same stream."""
        return RngStream(self.seed, self.key + key_parts)

    def normal(self, shape, loc=0.0, scale=1.0) -> np.ndarray:
        return self._bits().normal(loc, scale, size=shape).astype(np.float64, copy=False)

    def uniform(self, low, high, shape) -> np.ndarray:
        return self._bits().uniform(low, high, size=shape).astype(np.float64, copy=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._bits().permutation(n)

    def integers(self, low, high, shape=None) -> np.ndarray:
        return self._bits().integers(low, high, size=shape)
