"""Many np.random.default_rng generators for the price of one hash.

default_rngs(entropies) yields, for each entropy, a Generator equal to
np.random.default_rng(entropy) bit for bit, bit_generator.state included.
default_rng spends most of its time in SeedSequence: the pool hash of NumPy
NEP 19 (pool size 4) and the four uint64 words it hands to PCG64. Here that
hash runs once over the whole batch in uint32 array arithmetic, and each
PCG64 is built from its precomputed words, so a batch of per-block streams
costs PCG64 set-up per block and one vectorised hash.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_INTS = (int, np.integer)


def _words(entropy) -> list[int]:
    """An entropy as SeedSequence reads it: the little-endian 32-bit words of
    a non-negative int, or the words of each item of a sequence in turn."""
    if isinstance(entropy, _INTS):
        return _int_words(int(entropy))
    words = []
    for item in entropy:
        words += _int_words(int(item)) if isinstance(item, _INTS) else _words(item)
    return words


def _int_words(n: int) -> list[int]:
    """The words of a non-negative int; at least one, so 0 is [0]."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    if n >> 32 == 0:
        return [n]
    if n >> 64 == 0:
        return [n & _MASK32, n >> 32]
    return [(n >> shift) & _MASK32 for shift in range(0, n.bit_length(), 32)]


@lru_cache(maxsize=None)
def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first count constants of a hash chain: init, init*mult, ...
    hashmix call k xors with constant k and multiplies by constant k + 1."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    consts = np.array(out, np.uint32)
    consts.setflags(write=False)
    return consts


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, width: int) -> np.ndarray:
    """SeedSequence's hashmix calls k..k+width-1, one per column of width
    columns (value broadcasts against them)."""
    value = (value ^ consts[k : k + width]) * consts[k + 1 : k + width + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> np.uint32(16))


def _pcg64_words(words: list[list[int]]) -> np.ndarray:
    """(N, 4) uint64: SeedSequence(e).generate_state(4, np.uint64) for the
    word lists of N entropies, in the reference's order of hashmix calls."""
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    width = max(_POOL, int(lengths.max()))
    entropy = np.zeros((len(words), width), np.uint32)
    entropy[np.arange(width) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(words), np.uint32
    )
    # 4 calls fill the pool, 12 mix it, and 4 more per entropy word past it.
    hash_a = _consts(_INIT_A, _MULT_A, 4 * width + 1)
    # A word past an entropy's end enters the pool as 0, as in the reference.
    pool = _hashmix(entropy[:, :_POOL], hash_a, 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], hash_a, k, _POOL - 1))
        k += _POOL - 1
    # Words past the pool are mixed into every pool word, only where they exist.
    for src in range(_POOL, width):
        mixed = _mix(pool, _hashmix(entropy[:, src, None], hash_a, k, _POOL))
        pool = np.where((src < lengths)[:, None], mixed, pool)
        k += _POOL
    state = _hashmix(np.tile(pool, 2), _consts(_INIT_B, _MULT_B, 2 * _POOL + 1), 0, 2 * _POOL)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def default_rngs(entropies: Iterable) -> Iterator[Generator]:
    """np.random.default_rng(e) for each entropy e (a non-negative int or a
    sequence of them), yielded one at a time. Every entropy is read and
    hashed up front, so a negative one raises ValueError here."""
    words = [_words(e) for e in entropies]
    if not words:
        return iter(())
    return (Generator(PCG64(_Words(row))) for row in _pcg64_words(words))
