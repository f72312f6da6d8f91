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
    snr_db: float
    noise_var: float
    h: complex
    seed: int
    rng: np.random.Generator = field(repr=False, default=None)

    @classmethod
    def for_block(
        cls, snr_db: float, fading: str, seed: int, block_index: int = 0
    ) -> "ChannelState":
        """Channel realization for one block; fading is 'awgn' or 'rayleigh'."""
        rng = np.random.default_rng((seed ^ block_index) & _SEED_MASK)
        if fading == "awgn":
            h = 1.0 + 0.0j
        elif fading == "rayleigh":
            re, im = rng.standard_normal(2)
            h = complex(re, im) / np.sqrt(2.0)
        else:
            raise ParameterError(f"unknown fading kind {fading!r}")
        return cls(
            snr_db=snr_db,
            noise_var=10.0 ** (-snr_db / 10.0),
            h=h,
            seed=seed,
            rng=rng,
        )

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

    @property
    def analog_per_use(self) -> float:
        return self.power_analog / self.n_analog if self.n_analog else 0.0

    @property
    def digital_per_use(self) -> float:
        return self.power_digital / self.n_digital if self.n_digital else 0.0


def transmit(symbols: np.ndarray, state: ChannelState) -> np.ndarray:
    """y = h*x + w with w circularly-symmetric, variance noise_var per use."""
    x = np.asarray(symbols, dtype=np.complex128)
    if not np.all(np.isfinite(x)):
        raise ParameterError("transmit requires finite symbols")
    sigma = np.sqrt(state.noise_var / 2.0)
    noise = state.rng.standard_normal(2 * x.size) * sigma
    w = noise[0::2] + 1j * noise[1::2]
    return state.h * x + w.reshape(x.shape)
