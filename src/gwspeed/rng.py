"""Deterministic random-stream fan-out.

Every stochastic operation derives its generators from a single master seed
through ``substream(seed, domain, *key)``. The key is a tuple of small
integers, so two call sites never collide and adding more replicas, chunks or
trials never perturbs streams that already existed. Results are therefore
bit-reproducible for a fixed seed regardless of evaluation order or worker
count.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Domain tags for the spawn key. One per independent consumer of randomness.
D_TREE = 1        # standalone tree realizations
D_WALK_TREE = 2   # per-replica tree growth during walk simulation
D_WALK = 3        # per-replica walk steps
D_POOL = 4        # per-chunk tree-method sample pools
D_POOL_POP = 5    # population-method pool iteration
D_TUPLE = 6       # tuple assembly for the speed formula
D_HIT = 7         # hitting-probability trials

_CHUNK = 1024  # streams derived per batch of substreams
# numpy's SeedSequence hash constants (bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 state words derived elsewhere."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _n_words(x: int) -> int:
    """32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-int(x).bit_length() // 32))


def substreams(seed: int, *prefix: int, count: int):
    """Yield ``substream(seed, *prefix, i)`` for each ``i < count``, in order:
    numpy's mixing of the index words into the pool of SeedSequence(seed,
    spawn_key=prefix) and ``generate_state(4, np.uint64)``, as uint32 array
    arithmetic over _CHUNK indices, a chunk derived only when it is reached."""
    base = np.random.SeedSequence(seed, spawn_key=prefix)  # refuses negative ints
    mixed = max(4, _n_words(seed)) + sum(map(_n_words, prefix)) - 4  # words after the pool's 4
    a = 0
    while a < count:
        w = _n_words(a)  # each chunk's indices split into the same word count
        b = min(a + _CHUNK, count, 1 << 32 * w)
        pool = [np.full(b - a, p, dtype=np.uint32) for p in base.pool]
        hc = _INIT_A * pow(_MULT_A, 16 + 4 * mixed, 1 << 32) & _MASK
        for j in range(w):
            word = np.array([i >> 32 * j & _MASK for i in range(a, b)], dtype=np.uint32)
            for d in range(4):
                v = word ^ hc
                hc = hc * _MULT_A & _MASK
                v *= hc
                x = _MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)
                pool[d] = x ^ x >> 16
        hc, state = _INIT_B, []
        for j in range(8):
            v = pool[j % 4] ^ hc
            hc = hc * _MULT_B & _MASK
            v *= hc
            state.append(v ^ v >> 16)
        for row in np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64):
            yield np.random.Generator(np.random.PCG64(_Words(row)))
        a = b
