"""AWGN / quasi-static Rayleigh channel and the channel-use/power budget.

Conventions: snr_db is the average received SNR per complex channel use
under unit average transmit power and E[|h|^2] = 1, so noise_var =
10^(-snr_db/10) per complex use (noise_var/2 per real dimension). The
receiver knows h exactly. Each block consumes its own RNG stream derived
as seed XOR block_index, with draws ordered (h, then noise per transmit
call), so parallel trial execution reproduces serial results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationError, ParameterError

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
        """Channel realization for one block; fading is 'awgn' or 'rayleigh'.

        The stream is default_rng(seed ^ block_index), so seed must already be
        hashed (harness.derive_seed): a raw seed that also seeds another
        stream would collide with it at block 0.
        """
        rng = np.random.default_rng((seed ^ block_index) & _SEED_MASK)
        if fading == "awgn":
            h = 1.0 + 0.0j
        elif fading == "rayleigh":
            re, im = rng.standard_normal(2)
            h = complex(re, im) / np.sqrt(2.0)
        else:
            raise ParameterError(f"unknown fading kind {fading!r}")
        return cls(noise_var=10.0 ** (-snr_db / 10.0), h=h, rng=rng)

    @classmethod
    def awgn(cls, snr_db: float, seed: int = 0, block_index: int = 0) -> "ChannelState":
        return cls.for_block(snr_db, "awgn", seed, block_index)

    @classmethod
    def rayleigh(
        cls, snr_db: float, seed: int = 0, block_index: int = 0
    ) -> "ChannelState":
        return cls.for_block(snr_db, "rayleigh", seed, block_index)


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
    return state.h * x + _complex_noise(state.rng, x.size, state.noise_var).reshape(x.shape)


def _complex_noise(rng: np.random.Generator, size: int, noise_var: float) -> np.ndarray:
    """size circularly-symmetric samples of variance noise_var: one
    standard_normal(2 * size) draw read as interleaved (re, im) pairs."""
    noise = rng.standard_normal(2 * size) * np.sqrt(noise_var / 2.0)
    return noise[0::2] + 1j * noise[1::2]
