"""Many np.random.default_rng generators for the price of one hash.

stream_states(head, values) gives, for each value v, the four uint64 words
that SeedSequence((head, v)), or SeedSequence(v) without a head, hands to
PCG64; default_rngs(states) yields one Generator per row, equal to
np.random.default_rng of that entropy bit for bit, bit_generator.state
included. default_rng spends most of its time in SeedSequence: the pool hash
of NumPy NEP 19 (pool size 4). Here the entropies' 32-bit words form one
zero-padded uint32 table, built from the values with numpy, and the hash runs
once over the whole table in uint32 array arithmetic. A caller that draws a
range of streams in parts hashes the range once and builds each part's
generators from its rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def stream_states(head: int | None, values) -> np.ndarray:
    """(N, 4) uint64: SeedSequence(e).generate_state(4, np.uint64) for e =
    (head, v), or e = v when head is None, per v of `values`, an integer
    array of values below 2^64. ValueError, as from default_rng, if head or a
    value is negative."""
    values = np.asarray(values)
    if values.dtype.kind == "i" and values.size and values.min() < 0:
        raise ValueError("expected non-negative integer")
    values = values.astype(np.uint64)
    head_words = [] if head is None else _int_words(int(head))
    # SeedSequence reads a sequence item by item, an int as its little-endian
    # 32-bit words, at least one: a value takes 1 word below 2^32, else 2
    col = len(head_words)
    entropy = np.zeros((len(values), max(_POOL, col + 2)), np.uint32)
    entropy[:, :col] = head_words
    entropy[:, col] = values & np.uint64(_MASK32)
    entropy[:, col + 1] = values >> np.uint64(32)
    lengths = col + 1 + (entropy[:, col + 1] != 0)
    return _pcg64_words(entropy, lengths)


def _int_words(n: int) -> list[int]:
    """The words of a non-negative int; at least one, so 0 is [0]."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


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


def _pcg64_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(N, 4) uint64: SeedSequence(e).generate_state(4, np.uint64) for N
    entropies whose words are the rows of the (N, W) uint32 table, zero past
    each row's length, W >= 4; in the reference's order of hashmix calls."""
    width = entropy.shape[1]
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


def default_rngs(states: np.ndarray) -> Iterator[Generator]:
    """A Generator(PCG64) per row of stream_states, yielded one at a time."""
    return (Generator(PCG64(_Words(row))) for row in states)
