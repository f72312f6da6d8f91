"""AWGN / quasi-static Rayleigh channel and the channel-use/power budget.

Conventions: snr_db is the average received SNR per complex channel use
under unit average transmit power and E[|h|^2] = 1, so noise_var =
10^(-snr_db/10) per complex use (noise_var/2 per real dimension). The
receiver knows h exactly. Each block consumes its own RNG stream,
default_rng(seed XOR block_index), h first, then noise, so parallel trial
execution reproduces serial results bit for bit.
Block t's stream state is row t - t0 of channel_states(seed, t0, t1).
Draw contract: draw_blocks(snr_db, fading, states, uses) gives one block per
row of states, as complex128 gains h (T,) and noise (T, uses), the noise a
view of its own draw buffer, and reads the states without writing them.
ChannelState.for_block is one block's gain and stream, from which each
transmit call draws noise; its first transmit call draws the noise that
draw_blocks gives the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationError, ParameterError
from .streams import default_rngs, stream_states

_SEED_MASK = (1 << 64) - 1


@dataclass
class ChannelState:
    noise_var: float
    h: complex
    rng: np.random.Generator = field(repr=False)

    @classmethod
    def for_block(
        cls, snr_db: float, fading: str, seed: int, block_index: int = 0
    ) -> "ChannelState":
        """Block block_index's channel; fading is 'awgn' or 'rayleigh'.

        The block's stream is default_rng(seed ^ block_index), so seed must
        already be hashed (harness.derive_seed): a raw seed that also seeds
        another stream would collide with it at block 0.
        """
        _check_fading(fading)
        rng = np.random.default_rng((seed ^ block_index) & _SEED_MASK)
        h = _rayleigh(rng.standard_normal((1, 2)))[0] if fading == "rayleigh" else 1.0 + 0.0j
        return cls(noise_var=noise_variance(snr_db), h=complex(h), rng=rng)

    @classmethod
    def awgn(cls, snr_db: float, seed: int = 0, block_index: int = 0) -> "ChannelState":
        return cls.for_block(snr_db, "awgn", seed, block_index)


def draw_blocks(
    snr_db: float, fading: str, states: np.ndarray, uses: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gains h (T,) and noise (T, uses) of one block per row of states
    (channel_states): the values that for_block and then one transmit call
    of `uses` symbols per block give.

    Each block's stream yields h's two normals (Rayleigh only) and its noise
    normals in one standard_normal call, which draws them in that order. The
    noise is scaled in place and returned as a view of that draw buffer.
    """
    _check_fading(fading)
    lead = 2 if fading == "rayleigh" else 0
    raw = np.empty((len(states), lead + 2 * uses))
    for row, rng in zip(raw, default_rngs(states)):
        rng.standard_normal(out=row)
    h = _rayleigh(raw[:, :2]) if lead else np.ones(len(raw), dtype=np.complex128)
    return h, _complex_noise(raw[:, lead:], noise_variance(snr_db))


def noise_variance(snr_db: float) -> float:
    """10^(-snr_db/10), the noise variance per complex use. ParameterError
    naming snr unless it is a positive finite float: NaN, an SNR so low that
    it overflows, or so high that it underflows to 0."""
    try:
        var = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        var = np.inf
    if not 0.0 < var < np.inf:
        raise ParameterError(
            f"snr {snr_db} dB is out of range: 10^(-snr/10) must be a positive finite float"
        )
    return var


def _check_fading(fading: str) -> None:
    if fading not in ("awgn", "rayleigh"):
        raise ParameterError(f"unknown channel {fading!r}")


def channel_states(seed: int, t0: int, t1: int) -> np.ndarray:
    """(T, 4) uint64: the PCG64 state words of blocks t0..t1-1's streams,
    default_rng((seed ^ t) mod 2^64), from one hash (streams.stream_states).
    A negative t enters as its two's complement, as in (seed ^ t) & mask."""
    blocks = np.arange(t0, t1).astype(np.uint64)
    return stream_states(None, np.uint64(seed & _SEED_MASK) ^ blocks)


def _rayleigh(pairs: np.ndarray) -> np.ndarray:
    """Unit mean-square complex gains from unit normals (T, 2) read as
    (re, im): each part divided by sqrt(2), (T,) complex."""
    return (pairs / np.sqrt(2.0)).view(np.complex128)[:, 0]


@dataclass(frozen=True)
class ChannelBudget:
    """Channel-use and power split between the analog and digital branches."""

    total_uses: int
    n_analog: int
    n_digital: int
    power_total: float
    power_analog: float
    power_digital: float

    def validate(self) -> None:
        if min(self.total_uses, self.n_analog, self.n_digital) < 0:
            raise AllocationError("channel-use counts must be non-negative")
        if self.n_analog + self.n_digital > self.total_uses:
            raise AllocationError(
                f"uses over budget: {self.n_analog}+{self.n_digital} > {self.total_uses}"
            )
        if min(self.power_total, self.power_analog, self.power_digital) < 0:
            raise AllocationError("powers must be non-negative")
        if self.power_analog + self.power_digital > self.power_total * (1 + 1e-9):
            raise AllocationError(
                f"power over budget: {self.power_analog}+{self.power_digital} "
                f"> {self.power_total}"
            )


def transmit(symbols: np.ndarray, state: ChannelState) -> np.ndarray:
    """y = h*x + w with w circularly-symmetric, variance noise_var per use."""
    x = np.asarray(symbols, dtype=np.complex128)
    if not np.all(np.isfinite(x)):
        raise ParameterError("transmit requires finite symbols")
    noise = _complex_noise(state.rng.standard_normal(2 * x.size), state.noise_var)
    return state.h * x + noise.reshape(x.shape)


def _complex_noise(raw: np.ndarray, noise_var: float) -> np.ndarray:
    """Circularly-symmetric noise of variance noise_var from unit normals
    (..., 2m) that the caller drew: scaled in place by sqrt(noise_var / 2)
    and read as (re, im) pairs, a (..., m) complex view of raw."""
    raw *= np.sqrt(noise_var / 2.0)
    return raw.view(np.complex128)
