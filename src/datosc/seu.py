"""Model-update sessions: floats ride the analog branch, integers are
corrected by parity-only coding against the device's outdated copy.

The receiver never sees the updated integer bits themselves. It combines
its outdated bits (weighted by the assumed drift rate p_hat) with the
transmitted parity LLRs in an iterative turbo decoder; a CRC failure leaves
that frame's integers untouched.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .analog import analog_decode, analog_encode
from .channel import ChannelState, transmit
from .digital import (
    TURBO_MAX_ITERATIONS,
    bits_to_cells,
    cells_to_bits,
    demodulate,
    llr_clip,
    modulate,
    turbo_decode,
    turbo_encode,
)
from .errors import ParameterError

# Frames hold at most 1166 info bits, so each constituent trellis (info +
# CRC + tail) stays within 1186 steps.
MAX_FRAME_INFO_BITS = 1166


@dataclass(frozen=True)
class ModelParams:
    floats: np.ndarray
    ints: np.ndarray
    int_bits: int  # precision of the integer layer parameters

    def __post_init__(self):
        if self.int_bits not in (4, 8):
            raise ParameterError(f"integer precision must be 4 or 8, got {self.int_bits}")
        if np.any(np.asarray(self.ints) >= (1 << self.int_bits)) or np.any(
            np.asarray(self.ints) < 0
        ):
            raise ParameterError("integer parameters exceed their precision")


@dataclass(frozen=True)
class DriftSpec:
    float_noise_std: float = 0.0
    bit_flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.bit_flip_prob < 0.5:
            raise ParameterError("bit flip probability must lie in [0, 0.5)")


@dataclass(frozen=True)
class FrameRecord:
    frame_idx: int
    pattern: str
    parity_bits: int
    crc_ok: bool
    bit_errors_before: int
    bit_errors_after: int


@dataclass
class SeuSessionResult:
    corrected_ints: np.ndarray
    crc_ok: bool                 # every frame verified
    overhead_ratio: float        # parity bits sent / total integer bits
    frames: list[FrameRecord] = field(default_factory=list)
    parity_bits_sent: int = 0
    analog_uses_spent: int = 0
    total_int_bits: int = 0


def drift(params: ModelParams, spec: DriftSpec, seed: int) -> ModelParams:
    """Outdated copy: floats gain white noise, integer bits flip iid."""
    rng = np.random.default_rng(seed)
    floats = params.floats + spec.float_noise_std * rng.standard_normal(
        params.floats.shape
    )
    bits = cells_to_bits(params.ints, params.int_bits)
    flips = rng.random(bits.shape) < spec.bit_flip_prob
    outdated = bits_to_cells(bits ^ flips.astype(np.uint8), params.int_bits)
    return ModelParams(floats=floats, ints=outdated, int_bits=params.int_bits)


def seu_send_floats(
    floats: np.ndarray,
    prior_vars: np.ndarray,
    per_use_power: float,
    state: ChannelState,
) -> tuple[np.ndarray, np.ndarray]:
    """Deliver float parameters over the analog branch; returns MMSE
    estimates and their posterior error variances."""
    values = np.asarray(floats, dtype=np.float64)
    prior = np.broadcast_to(np.asarray(prior_vars, dtype=np.float64), values.shape)
    symbols, gains = analog_encode(values, prior, per_use_power)
    received = transmit(symbols, state)
    return analog_decode(received, state.h, gains, prior, state.noise_var)


def _frame_slices(total_bits: int) -> list[slice]:
    starts = range(0, total_bits, MAX_FRAME_INFO_BITS)
    return [slice(s, min(s + MAX_FRAME_INFO_BITS, total_bits)) for s in starts]


# Per-frame cap on CRC-checked candidates: the turbo decoder checks one hard
# decision per iteration.
LIST_SIZE = TURBO_MAX_ITERATIONS


def seu_update_ints(
    updated: np.ndarray,
    outdated: np.ndarray,
    int_bits: int,
    pattern: str,
    state: ChannelState,
    p_hat: float,
) -> SeuSessionResult:
    """Correct the outdated integer parameters from parity bits alone.

    The sender turbo-encodes the updated bits and transmits only the
    punctured parity, parity_length(frame bits, pattern) per frame, as
    unit-power BPSK; the receiver forms systematic LLRs from its outdated
    copy, (1 - 2*old_bit) * log((1-p_hat)/p_hat). Frames hold
    MAX_FRAME_INFO_BITS bits, the last one the rest. The full frames are
    encoded and sent as one batch, then the last frame, and the receiver
    decodes every frame of the session, the shorter one included, in one
    turbo_decode call. Frames whose CRC never verifies keep the outdated
    values.
    """
    if not 0.0 < p_hat < 0.5:
        raise ParameterError("assumed drift rate must lie in (0, 0.5)")
    up_bits = cells_to_bits(updated, int_bits)
    old_bits = cells_to_bits(outdated, int_bits)
    if up_bits.size != old_bits.size:
        raise ParameterError("updated/outdated parameter counts differ")
    if not up_bits.size:
        raise ParameterError("a session needs at least one integer parameter")
    side_mag = float(np.log((1.0 - p_hat) / p_hat))

    total = up_bits.size
    full_end = total - total % MAX_FRAME_INFO_BITS
    parity_llrs: list[np.ndarray] = []
    # frame order, and the order of the channel's noise draws
    for start, stop in ((0, full_end), (full_end, total)):
        if start == stop:
            continue
        width = min(MAX_FRAME_INFO_BITS, stop - start)
        parity = turbo_encode(up_bits[start:stop].reshape(-1, width), pattern)
        received = transmit(modulate(parity, "bpsk"), state)
        parity_llrs += list(
            demodulate(received, state.h, state.noise_var, "bpsk", n_bits=parity.shape[1])
        )
    slices = _frame_slices(total)
    side = llr_clip((1.0 - 2.0 * old_bits.astype(np.float64)) * side_mag)
    decoded, crc_ok = turbo_decode([side[sl] for sl in slices], parity_llrs, pattern)
    corrected = old_bits.copy()
    for sl, bits, ok in zip(slices, decoded, crc_ok):
        if ok:
            corrected[sl] = bits[: sl.stop - sl.start]
    parity_bits = [len(p) for p in parity_llrs]

    frames = [
        FrameRecord(
            frame_idx=idx,
            pattern=pattern,
            parity_bits=parity_bits[idx],
            crc_ok=bool(crc_ok[idx]),
            bit_errors_before=int(np.sum(old_bits[sl] != up_bits[sl])),
            bit_errors_after=int(np.sum(corrected[sl] != up_bits[sl])),
        )
        for idx, sl in enumerate(slices)
    ]
    parity_total = sum(parity_bits)
    return SeuSessionResult(
        corrected_ints=bits_to_cells(corrected, int_bits),
        crc_ok=bool(crc_ok.all()),
        overhead_ratio=parity_total / up_bits.size,
        frames=frames,
        parity_bits_sent=parity_total,
        analog_uses_spent=0,
        total_int_bits=int(up_bits.size),
    )


@dataclass(frozen=True)
class OverheadReport:
    parity_bits_sent: int
    analog_uses_spent: int
    full_retransmission_bits: int
    reduction_factor: float


def seu_overhead_report(session: SeuSessionResult) -> OverheadReport:
    """Control-overhead summary versus retransmitting every integer bit."""
    full = session.total_int_bits
    parity = sum(f.parity_bits for f in session.frames)
    return OverheadReport(
        parity_bits_sent=parity,
        analog_uses_spent=session.analog_uses_spent,
        full_retransmission_bits=full,
        reduction_factor=1.0 - parity / full if full else 0.0,
    )


# log columns follow FrameRecord's field order, so reordering fields changes the format
SESSION_LOG_HEADER = [f.name for f in fields(FrameRecord)]


def write_session_log(path, frames: list[FrameRecord], append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not append:
            writer.writerow(SESSION_LOG_HEADER)
        for f in frames:
            writer.writerow(astuple(replace(f, crc_ok=int(f.crc_ok))))
