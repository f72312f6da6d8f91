"""Model-update sessions: floats ride the analog branch, integers are
corrected by parity-only coding against the device's outdated copy.

The receiver never sees the updated integer bits themselves. It combines
its outdated bits (weighted by the assumed drift rate p_hat) with the
transmitted parity LLRs in an iterative turbo decoder; a CRC failure leaves
that frame's integers untouched.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields, replace
from itertools import groupby
from typing import NamedTuple

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
        _check_ints(self.ints, self.int_bits, "integer parameters")


def _check_ints(ints: np.ndarray, int_bits: int, what: str) -> None:
    """int_bits is 4 or 8, and every value is a whole number in [0, 2^int_bits)."""
    if int_bits not in (4, 8):
        raise ParameterError(f"integer precision must be 4 or 8, got {int_bits}")
    v = np.asarray(ints)
    # cells_to_bits casts to int64, which would truncate 3.7 and NaN silently
    if v.dtype.kind not in "biu" and not np.all(np.isfinite(v) & (v == np.trunc(v))):
        raise ParameterError(f"{what} must be whole numbers")
    if np.any(v < 0) or np.any(v >= 1 << int_bits):
        raise ParameterError(f"{what} exceed their {int_bits}-bit precision")


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


@dataclass(frozen=True)
class SeuSessionResult:
    corrected_ints: np.ndarray
    frames: list[FrameRecord]
    total_int_bits: int

    @property
    def crc_ok(self) -> bool:
        """Every frame verified."""
        return all(f.crc_ok for f in self.frames)

    @property
    def parity_bits_sent(self) -> int:
        return sum(f.parity_bits for f in self.frames)

    @property
    def overhead_ratio(self) -> float:
        """Parity bits sent per integer bit."""
        return self.parity_bits_sent / self.total_int_bits


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


def _frame_length(sl: slice) -> int:
    return sl.stop - sl.start


# Per-frame cap on CRC-checked candidates: the turbo decoder checks one hard
# decision per iteration.
LIST_SIZE = TURBO_MAX_ITERATIONS


# Frames per turbo_decode call when the frames of many sessions decode
# together. Chosen by measurement (criterion-8 sessions, 2 vCPUs): per
# session, 44 ms at 4 frames a call, 14-19 ms at 16, and 10-13 ms from 48
# to 128; each frame adds about 0.65 MB to the decoder's work buffer.
DECODE_CHUNK = 48


def seu_update_ints(
    updated: np.ndarray,
    outdated: np.ndarray,
    int_bits: int,
    pattern: str,
    state: ChannelState,
    p_hat: float,
) -> SeuSessionResult:
    """Correct the outdated integers, each in [0, 2^int_bits) with int_bits
    4 or 8, from parity alone: one session of seu_update_sessions, whose
    frames (up to DECODE_CHUNK of them) decode in one turbo_decode call."""
    (result,) = seu_update_sessions([(updated, outdated, state)], int_bits, pattern, p_hat)
    return result


def seu_update_sessions(
    sessions, int_bits: int, pattern: str, p_hat: float
) -> list[SeuSessionResult]:
    """One result per (updated, outdated, ChannelState) session, in order.

    Per session, the sender turbo-encodes the updated bits and transmits
    only the punctured parity, parity_length(frame bits, pattern) per frame,
    as unit-power BPSK; the receiver forms systematic LLRs from its outdated
    copy, (1 - 2*old_bit) * log((1-p_hat)/p_hat). Frames hold
    MAX_FRAME_INFO_BITS bits, the last one the rest; frames of equal length
    encode as one batch, and a session's parity goes out as one wire on its
    own channel, in frame order. Sessions are encoded and sent one after
    another, and every session is held until all are sent: its bits and its
    parity LLRs, while the side LLRs of a frame are formed when its chunk
    decodes.

    Then the frames of all sessions, sorted longest first (a stable sort, so
    one session's frames keep their order), decode in chunks of DECODE_CHUNK
    frames, one ragged turbo_decode call each. A frame decodes bit for bit
    as it would alone, so results do not depend on which sessions share a
    call. Frames whose CRC never verifies keep the outdated values.
    """
    if not 0.0 < p_hat < 0.5:
        raise ParameterError("assumed drift rate must lie in (0, 0.5)")
    side_mag = float(np.log((1.0 - p_hat) / p_hat))
    sent = [_send(*session, int_bits, pattern) for session in sessions]
    # (session, frame), longest first; the sort is stable, so one session's
    # frames keep their order
    frames = sorted(
        ((s, f) for s, session in enumerate(sent) for f in range(len(session.slices))),
        key=lambda sf: -_frame_length(sent[sf[0]].slices[sf[1]]),
    )
    decoded = [[None] * len(session.slices) for session in sent]
    for start in range(0, len(frames), DECODE_CHUNK):
        chunk = frames[start : start + DECODE_CHUNK]
        # float64 side LLRs held for every session would be most of what
        # the runner holds (32 KB of a 1,024-int session's 51 KB)
        sides = [_side_llrs(sent[s].old_bits[sent[s].slices[f]], side_mag) for s, f in chunk]
        parities = [sent[s].parity_llrs[f] for s, f in chunk]
        bits, crc_ok = turbo_decode(sides, parities, pattern)
        for (s, f), side, row, ok in zip(chunk, sides, bits, crc_ok):
            if ok:
                decoded[s][f] = row[: len(side)]
    return [
        _session_result(session, pattern, int_bits, frame_bits)
        for session, frame_bits in zip(sent, decoded)
    ]


class _Sent(NamedTuple):
    """One session after transmission: its bits, frame slices, and per
    frame the received parity LLRs."""

    up_bits: np.ndarray
    old_bits: np.ndarray
    slices: list[slice]
    parity_llrs: list[np.ndarray]


def _send(updated, outdated, state: ChannelState, int_bits: int, pattern: str):
    """Check, encode and transmit one session."""
    _check_ints(updated, int_bits, "updated integers")
    _check_ints(outdated, int_bits, "outdated integers")
    up_bits = cells_to_bits(updated, int_bits)
    old_bits = cells_to_bits(outdated, int_bits)
    if up_bits.size != old_bits.size:
        raise ParameterError("updated/outdated parameter counts differ")
    if not up_bits.size:
        raise ParameterError("a session needs at least one integer parameter")
    slices = _frame_slices(up_bits.size)
    parity = [
        frame
        for _, group in groupby(slices, key=_frame_length)
        for frame in turbo_encode(np.stack([up_bits[sl] for sl in group]), pattern)
    ]
    received = transmit(modulate(np.concatenate(parity), "bpsk"), state)
    llrs = demodulate(received, state.h, state.noise_var, "bpsk")
    parity_llrs = np.split(llrs, np.cumsum([len(p) for p in parity])[:-1])
    return _Sent(up_bits, old_bits, slices, parity_llrs)


def _side_llrs(old_bits: np.ndarray, side_mag: float) -> np.ndarray:
    """Systematic LLRs of outdated bits: +side_mag for a 0, -side_mag for a 1."""
    return llr_clip((1.0 - 2.0 * old_bits.astype(np.float64)) * side_mag)


def _session_result(session: _Sent, pattern: str, int_bits: int, frame_bits) -> SeuSessionResult:
    """The corrected integers and frame records of one session, from the
    decoded bits of each frame (None for a frame whose CRC never verified)."""
    up_bits, old_bits, slices, parity_llrs = session
    corrected = old_bits.copy()
    for sl, bits in zip(slices, frame_bits):
        if bits is not None:
            corrected[sl] = bits
    frames = [
        FrameRecord(
            frame_idx=idx,
            pattern=pattern,
            parity_bits=len(parity_llrs[idx]),
            crc_ok=frame_bits[idx] is not None,
            bit_errors_before=int(np.sum(old_bits[sl] != up_bits[sl])),
            bit_errors_after=int(np.sum(corrected[sl] != up_bits[sl])),
        )
        for idx, sl in enumerate(slices)
    ]
    return SeuSessionResult(
        corrected_ints=bits_to_cells(corrected, int_bits),
        frames=frames,
        total_int_bits=int(up_bits.size),
    )


# log columns follow FrameRecord's field order, so reordering fields changes the format
SESSION_LOG_HEADER = [f.name for f in fields(FrameRecord)]


def write_session_log(path, frames: list[FrameRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SESSION_LOG_HEADER)
        for f in frames:
            writer.writerow(astuple(replace(f, crc_ok=int(f.crc_ok))))
