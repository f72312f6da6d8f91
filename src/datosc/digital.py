"""Digital branch: quantizer, parity-only coding, modem, and the DSC decoders.

The uplink code is a memory-2 systematic recursive convolutional code with
octal generators (1, 5/7). A 16-bit CRC (CCITT polynomial 0x1021, init
0xFFFF, no reflection, no final xor) is appended to the info bits, the
trellis is driven back to the zero state with 2 tail bits, and only a
punctured fraction of the parity stream ever reaches the modulator: the
receiver supplies the systematic evidence itself (analog-side LLRs, or an
outdated copy of the data). Bit arrays are uint8 0/1; LLRs are positive when
bit 0 is the more likely value and are clipped to +/-30.

Model updates use a stronger code with the same parity budget: a turbo code
of two 16-state (1, 35/23) constituents, decoded by iterated max-log-MAP
until the CRC verifies (see turbo_encode / turbo_decode).

The coding and decoding functions take a (T, L) batch of frames and
return batched results; a single (L,) frame is a batch of one and comes
back as (1, ...). turbo_decode also takes a sequence of frames of unequal
length. No function writes into its arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from .errors import ParameterError

LLR_CLIP = 30.0

CRC_POLY = 0x1021
CRC_INIT = 0xFFFF
CRC_BITS = 16

# Each recursive systematic convolutional (RSC) code is described once, as
# (memory, feedback delays, forward delays): the register input is
# a_t = u_t ^ a_{t-d} over the feedback delays d, and the parity bit
# a_t ^ a_{t-d} over the forward delays. The encoder (_rsc_encode) and the
# branch table both decoders read (_branches) are built from it. Uplink
# (1, 5/7): feedback 7 = 1 + D + D^2, forward 5 = 1 + D^2. Model-update
# constituent (1, 35/23): feedback 23 = 1 + D^3 + D^4 (primitive, period 15),
# forward 35 = 1 + D + D^2 + D^4.
UPLINK = (2, (1, 2), (2,))
TURBO = (4, (3, 4), (1, 2, 4))
TAIL_BITS = UPLINK[0]  # termination steps, one per register stage
TURBO_TAIL_BITS = TURBO[0]
_NEG_METRIC = -1e30  # log-metric of an unreachable state or barred branch

PATTERN_FRACTIONS = {
    "R12": Fraction(1, 1),
    "R23": Fraction(1, 2),
    "R34": Fraction(1, 3),
}


def llr_clip(llrs: np.ndarray) -> np.ndarray:
    return np.clip(llrs, -LLR_CLIP, LLR_CLIP)


# ---------------------------------------------------------------------------
# quantizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizerSpec:
    """Midrise uniform quantizer: 2^bits cells over [-clip_i, clip_i]."""

    bits: int
    clips: np.ndarray  # (n,) per-index clip range c_i

    def __post_init__(self):
        if not 1 <= self.bits <= 8:
            raise ParameterError(f"quantizer depth must be 1..8, got {self.bits}")
        if np.any(np.asarray(self.clips) <= 0):
            raise ParameterError("clip ranges must be positive")

    @classmethod
    def from_prior_vars(cls, prior_vars: np.ndarray, bits: int) -> "QuantizerSpec":
        return cls(bits=bits, clips=4.0 * np.sqrt(np.asarray(prior_vars, dtype=np.float64)))

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def deltas(self) -> np.ndarray:
        return 2.0 * self.clips / self.levels


def quantize_cells(coeffs: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Cell index per coefficient; out-of-range values clip to the end cells."""
    idx = np.asarray(coeffs, dtype=np.float64) + spec.clips
    idx /= spec.deltas
    np.floor(idx, out=idx)
    return np.clip(idx, 0, spec.levels - 1, out=idx).astype(np.int64)


def cells_to_bits(cells: np.ndarray, bits: int) -> np.ndarray:
    """Natural binary, most-significant bit first, flattened per coefficient.
    Each bit is written straight into the uint8 result, one bit position at
    a time, so no int64 array of the result's size is built."""
    c = np.asarray(cells, dtype=np.int64)
    out = np.empty(c.shape + (bits,), dtype=np.uint8)
    for j in range(bits):
        np.bitwise_and(c >> (bits - 1 - j), 1, out=out[..., j], casting="unsafe")
    return out.reshape(*c.shape[:-1], c.shape[-1] * bits)


def bits_to_cells(bitstream: np.ndarray, bits: int) -> np.ndarray:
    """int64 cells of a bitstream, most-significant bit first: the inverse
    of cells_to_bits, accumulated one bit position at a time."""
    b = np.asarray(bitstream)
    if b.shape[-1] % bits:
        raise ParameterError("bitstream length is not a multiple of the depth")
    grouped = b.reshape(*b.shape[:-1], b.shape[-1] // bits, bits)
    cells = np.zeros(grouped.shape[:-1], dtype=np.int64)
    for j in range(bits):
        cells <<= 1
        cells += grouped[..., j].astype(np.int64, copy=False)
    return cells


def dequantize_cells(cells: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return _cell_points(cells, spec, 0.5)


def _cell_points(cells: np.ndarray, spec: QuantizerSpec, offset: float) -> np.ndarray:
    """-clips + (cells + offset) * deltas, in one float buffer: the point
    `offset` cells above each cell's lower edge (0 the lower edge, 0.5 the
    midpoint, 1 the upper edge)."""
    points = np.add(cells, offset, dtype=np.float64)
    points *= spec.deltas
    points += -spec.clips
    return points


def quantize(coeffs: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return cells_to_bits(quantize_cells(coeffs, spec), spec.bits)


# ---------------------------------------------------------------------------
# CRC-16 and the convolutional code
# ---------------------------------------------------------------------------

def crc16(bits: np.ndarray) -> np.ndarray:
    """CRC-16-CCITT over a bit array; returns 16 bits, MSB first.

    Maps (T, L) bits to (T, 16); an (L,) input is a batch of one. The register
    update is affine over GF(2), so the CRC is the XOR of a fixed 16-bit term
    per set bit with the CRC of the all-zero message. The terms of the 8 bits
    of a byte combine into one 256-entry table per byte position (Sarwate's
    table look-up, 1988, with a table per position instead of a register
    loop), so the CRC is one look-up per byte of np.packbits' output and one
    XOR-reduce over the bytes (see _crc_tables). XOR is exact, so every bit
    equals that of the bit-serial register.
    """
    b = np.atleast_2d(np.asarray(bits))
    tables, zero_crc = _crc_tables(b.shape[1])
    # left-padded to whole bytes: leading zeros add no term
    pad = -b.shape[1] % 8
    if pad:
        b = np.concatenate([np.zeros((len(b), pad), dtype=b.dtype), b], axis=1)
    packed = np.packbits(b, axis=1)
    terms = tables[np.arange(packed.shape[1]), packed]
    reg = np.bitwise_xor.reduce(terms, axis=1) ^ zero_crc
    return cells_to_bits(reg[:, None], CRC_BITS)


@functools.lru_cache(maxsize=16)
def _crc_tables(length: int) -> tuple[np.ndarray, np.uint16]:
    """(ceil(length / 8), 256) uint16: per byte of a `length`-bit message,
    left-padded with zeros to whole bytes, the register contribution of each
    byte value there; and the CRC of `length` zero bits from CRC_INIT.

    The contribution of a lone 1 at a bit position is that 1 fed into an
    empty register, then shifted through the rest of the message with zero
    input; a byte value's is the XOR of its set bits' contributions."""

    def shift(reg: int) -> int:
        return ((reg << 1) ^ (CRC_POLY if reg & 0x8000 else 0)) & 0xFFFF

    nbytes = -(-length // 8)
    terms = np.zeros(8 * nbytes, dtype=np.uint16)
    reg, zero_crc = CRC_POLY, CRC_INIT
    for k in range(length):
        terms[-1 - k] = reg
        reg = shift(reg)
        zero_crc = shift(zero_crc)
    value_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(bool)
    tables = np.bitwise_xor.reduce(
        np.where(value_bits, terms.reshape(nbytes, 1, 8), np.uint16(0)), axis=2
    )
    tables.setflags(write=False)
    return tables, np.uint16(zero_crc)


def rsc_encode(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the uplink RSC over the input and terminate to the zero state.

    Returns (sys_bits, parity_bits), each input length + 2 tail positions.
    """
    return _rsc_encode(np.atleast_2d(np.asarray(bits, dtype=np.uint8)), UPLINK)


def _rsc_encode(bits: np.ndarray, code: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(T, L) inputs through the RSC `code`, then `memory` termination steps
    whose input equals the feedback, so that a = 0 and the register returns
    to zero. Returns (input bits, parity bits), each (T, L + memory).

    Closed form over GF(2): the register sequence is a = u / f(D), with
    f(D) = 1 + the sum of D^d over the feedback delays, and 1 / f(D) =
    g(D) / (1 + D^P) (see _feedback_inverse). So a is the XOR of copies of
    b = u / (1 + D^P), shifted by the exponents of g, where
    b_t = u_t ^ u_{t-P} ^ u_{t-2P} ^ ... is a prefix XOR within each residue
    class mod P, taken in log2(L / P) shifted XORs. The arithmetic is on
    integers only, so every bit equals that of the step-by-step recursion.
    """
    memory, feedback, forward = code
    period, inverse = _feedback_inverse(feedback)
    length = bits.shape[1]
    b = bits.astype(np.uint8)
    shift = period
    while shift < length:
        b[:, shift:] ^= b[:, :-shift]
        shift *= 2
    # a_t in column t + memory: `memory` zeros of start state, then L register
    # values, then the `memory` zero register inputs of the termination
    a = np.zeros((len(b), length + 2 * memory), dtype=np.uint8)
    for e in inverse:
        if e < length:
            a[:, memory + e : memory + length] ^= b[:, : length - e]
    return _taps(a, memory, feedback), _taps(a, memory, forward)


@functools.lru_cache(maxsize=4)
def _feedback_inverse(feedback: tuple) -> tuple[int, tuple]:
    """The least P with f(D) dividing 1 + D^P, for f(D) = 1 + the sum of D^d
    over the feedback delays, and the exponents of g(D) = (1 + D^P) / f(D).
    P is 15 for TURBO's 1 + D^3 + D^4 and 3 for UPLINK's 1 + D + D^2.
    Polynomials over GF(2) are ints, the coefficient of D^e in bit e."""
    f = 1 | sum(1 << d for d in feedback)
    degree = max(feedback)
    period = 1
    while True:
        quotient, rest = 0, (1 << period) | 1
        while rest.bit_length() > degree:
            shift = rest.bit_length() - 1 - degree
            quotient |= 1 << shift
            rest ^= f << shift
        if not rest:
            return period, tuple(e for e in range(quotient.bit_length()) if quotient >> e & 1)
        period += 1


def _taps(a: np.ndarray, memory: int, delays: tuple) -> np.ndarray:
    """a_t ^ a_{t-d} over the delays, for every t >= memory of register
    values a (time last): the input bit for the feedback delays, the parity
    bit for the forward ones."""
    out = a[..., memory:].copy()
    for d in delays:
        out ^= a[..., memory - d : a.shape[-1] - d]
    return out


def _branches(code: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Input bit and parity bit of every branch of the RSC `code`'s trellis.

    A state holds a_{t-1} in bit 0 through a_{t-memory} in bit memory - 1.
    With half = 2^(memory-1) states per value of the oldest bit b, register
    input a takes state half*b + r to state 2r + a, so both tables are
    (2, half, 2) over (b, r, a), and a trellis step is a max over b.
    """
    memory, feedback, forward = code
    # branch 2*(half*b + r) + a holds a_{t-d} in bit d: a_{t-memory}..a_t last
    branch = np.arange(4 << (memory - 1)).reshape(2, -1, 2, 1)
    a = (branch >> np.arange(memory, -1, -1)) & 1
    return _taps(a, memory, feedback)[..., 0], _taps(a, memory, forward)[..., 0]


def parity_length(info_len: int, pattern: str) -> int:
    """Punctured parity bit count of both codes: round(fraction * (info + CRC
    + tail)). The one check of the pattern id: ParameterError if unknown."""
    frac = PATTERN_FRACTIONS.get(pattern)
    if frac is None:
        raise ParameterError(f"unknown code pattern {pattern!r}")
    return int(round(Fraction(info_len + CRC_BITS + TAIL_BITS) * frac))


def puncture_keep_indices(info_len: int, pattern: str) -> np.ndarray:
    """Surviving parity positions of the uplink code: parity_length(info_len,
    pattern) of its info_len + CRC_BITS + TAIL_BITS trellis steps.

    The CRC and tail steps carry no receiver-side systematic evidence, so
    their parity is never punctured: the last CRC_BITS + TAIL_BITS positions
    survive first and the remaining budget spreads evenly over the info
    region. (Without this, a punctured trellis tail is under-determined and
    even noiseless frames fail their CRC check.)
    """
    length = info_len + CRC_BITS + TAIL_BITS
    return _spread_keep(length, parity_length(info_len, pattern), CRC_BITS + TAIL_BITS)


def _spread_keep(length: int, m: int, protected: int) -> np.ndarray:
    """m of `length` positions, ascending: the last `protected` positions
    first, the rest of the budget spread evenly over the positions before."""
    if m >= length:
        return np.arange(length)
    protected = min(protected, length)
    head = length - protected
    if m <= protected:
        return head + (np.arange(m) * protected) // m
    m_head = m - protected
    head_keep = (np.arange(m_head) * head) // m_head
    return np.concatenate([head_keep, np.arange(head, length)])


def _with_crc(info_bits: np.ndarray) -> np.ndarray:
    """(T, K) info bits, an (K,) frame a batch of one, with their CRC
    appended: the (T, K + CRC_BITS) stream both encoders code."""
    info = np.atleast_2d(np.asarray(info_bits, dtype=np.uint8))
    return np.concatenate([info, crc16(info)], axis=1)


def dsc_encode(info_bits: np.ndarray, pattern: str) -> tuple[np.ndarray, np.ndarray]:
    """Append CRC and tail, run the RSC, and puncture its parity.

    Returns (systematic, parity): the info + CRC + tail bits, and the
    parity_length(info_len, pattern) surviving parity bits. A parity-only
    link sends the parity alone; a plain digital link sends both.
    """
    stream = _with_crc(info_bits)
    systematic, parity = rsc_encode(stream)
    return systematic, parity[:, puncture_keep_indices(stream.shape[1] - CRC_BITS, pattern)]


# ---------------------------------------------------------------------------
# modem
# ---------------------------------------------------------------------------

def modulate(bits: np.ndarray, scheme: str, amplitude: float = 1.0) -> np.ndarray:
    """BPSK maps 0 -> +a; QPSK Gray-maps bit pairs to a*(+/-1 +/- 1j)/sqrt(2).

    An odd QPSK bit count is padded with one zero bit (the receiver trims it).
    Each bit is +c for a 0 and -c for a 1 on its real dimension (_level),
    written straight into the float64 view of a C-ordered symbol array,
    whatever the bits' memory order: the real parts for BPSK, whose
    imaginary parts are 0, and the I and Q of each symbol for QPSK.
    """
    b = np.asarray(bits, dtype=np.uint8)
    bps = bits_per_symbol(scheme)
    length = b.shape[-1]
    symbols = np.empty(b.shape[:-1] + (-(-length // bps),), dtype=np.complex128)
    parts = symbols.view(np.float64)
    c = _level(scheme, amplitude)
    if bps == 1:
        parts[..., 1::2] = 0.0
        dims = parts[..., 0::2]
    else:
        parts[..., length:] = c  # the padding bit
        dims = parts[..., :length]
    # 0 * -2c + c = c and 1 * -2c + c = -c, both exact
    np.multiply(b, -2.0 * c, out=dims)
    dims += c
    return symbols


def _level(scheme: str, amplitude: float) -> float:
    """c of modulate: amplitude a for BPSK, and for QPSK the I of the
    mapping formula's symbol for bits 00, a*(1 + 1j)/sqrt(2), rounded as
    numpy rounds that complex arithmetic."""
    if scheme == "bpsk":
        return float(amplitude)
    return float((amplitude * np.array([1.0 + 1.0j]) / np.sqrt(2.0))[0].real)


def bits_per_symbol(scheme: str) -> int:
    if scheme == "bpsk":
        return 1
    if scheme == "qpsk":
        return 2
    raise ParameterError(f"unknown modulation {scheme!r}")


def symbol_count(n_bits: int, scheme: str) -> int:
    bps = bits_per_symbol(scheme)
    return -(-n_bits // bps)


def demodulate(
    received: np.ndarray,
    h,
    noise_var: float,
    scheme: str,
    amplitude: float = 1.0,
    n_bits: int | None = None,
) -> np.ndarray:
    """Per-bit LLRs after matched filtering with the known channel gain.

    BPSK: 4 * a * Re(conj(h) y) / noise_var; QPSK applies the same per real
    dimension with amplitude a / sqrt(2). h is one gain or a column of
    gains, one per frame row.

    The matched filter writes conj(h) y into a new C-ordered buffer, and
    matched_llrs scales the LLRs in place in it: no argument is written and
    no second buffer of LLRs is built (189 us per call on a 256-row block of
    the default digital link on a 2-vCPU host, against 905 us with one).
    """
    bits_per_symbol(scheme)  # checks the scheme
    y = np.asarray(received, dtype=np.complex128)
    matched = np.multiply(np.conj(h), y, order="C")
    return matched_llrs(matched, noise_var, scheme, amplitude, n_bits)


def matched_llrs(
    matched: np.ndarray,
    noise_var: float,
    scheme: str,
    amplitude: float = 1.0,
    n_bits: int | None = None,
) -> np.ndarray:
    """demodulate's LLRs of matched-filter outputs conj(h) y, formed in
    place in `matched`, a C-ordered complex128 array, and returned as a
    float64 view of it: QPSK's (re, im) pairs are already in bit order, and
    BPSK's LLRs are the real parts."""
    llrs = matched.view(np.float64)
    if scheme == "bpsk":
        llrs = llrs[..., 0::2]
        np.multiply(llrs, 4.0 * amplitude, out=llrs)
        llrs /= noise_var
    elif scheme == "qpsk":
        llrs *= 4.0 * (amplitude / np.sqrt(2.0)) / noise_var
    else:
        raise ParameterError(f"unknown modulation {scheme!r}")
    if n_bits is not None:
        llrs = llrs[..., :n_bits]
    return np.clip(llrs, -LLR_CLIP, LLR_CLIP, out=llrs)


# ---------------------------------------------------------------------------
# side-information LLRs
# ---------------------------------------------------------------------------

# rows of beliefs per _bit_llrs call in side_info_llrs: its CDF and cell
# probabilities, the largest temporaries, are about 0.25 MiB each at 64 rows
# of the default link's 32 carried coefficients. No value depends on it.
_SIDE_ROWS = 64


def side_info_llrs(est: np.ndarray, err_var: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Systematic-position LLRs from Gaussian coefficient beliefs.

    Each coefficient is modelled as Normal(est, err_var); cell probabilities
    are CDF differences over the quantizer cells with the end cells absorbing
    the tails, and each bit's LLR aggregates the cells where that bit is 0
    versus 1. Output is flattened MSB-first per coefficient, shaped like the
    quantized bitstream. CRC and tail positions are not covered here: the
    decoder gives them zero prior on its own.

    A coefficient whose (est, err_var) is the same in every row, such as one
    the analog branch does not carry, is computed once and broadcast; its
    LLRs equal those of a row-by-row call. The others are computed _SIDE_ROWS
    rows at a time, so the temporaries stay bounded whatever the row count:
    at most about 1.5 MiB, result included, for a block of
    harness.ROW_BLOCK rows of the default link (tracemalloc).
    """
    mu, var = np.broadcast_arrays(
        np.asarray(est, dtype=np.float64), np.asarray(err_var, dtype=np.float64)
    )
    n = mu.shape[-1]
    mu_rows, var_rows = mu.reshape(-1, n), var.reshape(-1, n)
    const = np.all(mu_rows == mu_rows[:1], axis=0) & np.all(var_rows == var_rows[:1], axis=0)
    # (levels - 1, n): the inner cell edges, one row per edge
    edges = -spec.clips + np.arange(1, spec.levels)[:, None] * spec.deltas
    edges = np.broadcast_to(edges, (spec.levels - 1, n))
    out = np.empty((len(mu_rows), n, spec.bits))
    shared, own = np.flatnonzero(const), np.flatnonzero(~const)
    out[:, shared] = _bit_llrs(mu_rows[:1, shared], var_rows[:1, shared], edges[:, shared], spec.bits)
    for a in range(0, len(mu_rows), _SIDE_ROWS):
        rows = slice(a, a + _SIDE_ROWS)
        out[rows, own] = _bit_llrs(mu_rows[rows, own], var_rows[rows, own], edges[:, own], spec.bits)
    return out.reshape(*mu.shape[:-1], n * spec.bits)


def _bit_llrs(mu: np.ndarray, var: np.ndarray, edges: np.ndarray, bits: int) -> np.ndarray:
    """(R, m, bits) LLRs of the beliefs (R, m) on quantizers with inner cell
    edges (levels - 1, m).

    The CDF at every cell edge is edge-major, one contiguous (R, m) slab per
    edge, with 0 and 1 as the open ends' edges; a cell's probability is the
    difference of its two edges' CDFs, and the CDF is freed once they are
    formed. Each bit's probability of 1 and of 0 sums the cells where it is
    1 and 0 (one matrix product each, against float tables built once per
    depth, which runs one product per row, so a row's result does not
    depend on the rows beside it); the LLR is the log of their ratio, both
    logs taken in place, clipped to +/-LLR_CLIP, and 0 where it is NaN.
    """
    sigma = np.sqrt(np.maximum(var, 1e-300))
    levels = len(edges) + 1
    cdf = np.empty((levels + 1,) + mu.shape)
    cdf[0], cdf[-1] = 0.0, 1.0
    inner = cdf[1:-1]
    np.subtract(edges[:, None], mu, out=inner)
    inner /= sigma
    ndtr(inner, out=inner)
    probs = np.empty(mu.shape + (levels,))
    np.subtract(cdf[1:].transpose(1, 2, 0), cdf[:-1].transpose(1, 2, 0), out=probs)
    del cdf, inner

    ones, zeros = _cell_bit_tables(bits)
    with np.errstate(divide="ignore"):
        llrs = probs @ zeros
        np.log(llrs, out=llrs)
        log_ones = probs @ ones
        del probs
        np.log(log_ones, out=log_ones)
        llrs -= log_ones
    np.clip(llrs, -LLR_CLIP, LLR_CLIP, out=llrs)
    llrs[np.isnan(llrs)] = 0.0
    return llrs


@functools.lru_cache(maxsize=8)
def _cell_bit_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels, bits) float tables of the cells' bits, MSB first: 1.0 where a
    cell's bit is 1, and 1.0 where it is 0."""
    ones = cells_to_bits(np.arange(1 << bits)[:, None], bits).astype(np.float64)
    zeros = 1.0 - ones
    for table in (ones, zeros):
        table.setflags(write=False)
    return ones, zeros


# ---------------------------------------------------------------------------
# Viterbi decoding
# ---------------------------------------------------------------------------

def viterbi_decode(sys_llrs: np.ndarray, parity_llrs: np.ndarray) -> np.ndarray:
    """Max-likelihood sequence decision on the terminated uplink RSC trellis.

    sys_llrs and parity_llrs cover every trellis step (punctured parity
    positions carry 0). The path starts and ends in state 0; the last
    TAIL_BITS steps admit register input a = 0 only. Of two equal
    candidates the predecessor with oldest bit b = 0 survives. Returns the
    decided input bits, tail included, as (T, L).
    """
    sys_l = np.atleast_2d(np.asarray(sys_llrs, dtype=np.float64))
    par_l = np.atleast_2d(np.asarray(parity_llrs, dtype=np.float64))
    if sys_l.shape != par_l.shape:
        raise ParameterError("systematic/parity LLR shapes differ")
    batch, length = sys_l.shape
    if length < TAIL_BITS:
        raise ParameterError("trellis shorter than its tail")
    states, s_runs, p_runs, barred, bit_of, prev_of = _viterbi_layout()
    # time-major with the batch axis last, so that each step reads contiguous
    # LLR rows (an input that is the transpose of a time-major array is read
    # without a copy); every buffer is allocated once
    steps = zip(np.ascontiguousarray(sys_l.T), np.ascontiguousarray(par_l.T))
    pm = np.full((states, batch), _NEG_METRIC)
    pm[0] = 0.0
    ext = np.empty((2 * states, batch))
    # the step's operations, each on contiguous rows: + s and - s from the
    # metrics, then + p and - p in place. Ufuncs bound to local names and
    # outputs passed by position (maximum keeps out=, as numpy 2.4
    # deprecates a positional output there) shave their call overhead.
    add, subtract, greater, maximum = np.add, np.subtract, np.greater, np.maximum
    signs = (add, subtract)
    s_ops = [(op, pm[m], ext[e]) for op, runs in zip(signs, s_runs) for e, m in runs]
    p_ops = [(op, ext[e]) for op, runs in zip(signs, p_runs) for (e,) in runs]
    cand_0, cand_1 = ext[:states], ext[states:]
    decisions = np.empty((length, states, batch), dtype=np.uint8)
    for t, (s_llr, p_llr) in enumerate(steps):
        for op, metrics, rows in s_ops:
            op(metrics, s_llr, rows)
        for op, rows in p_ops:
            op(rows, p_llr, rows)
        greater(cand_1, cand_0, decisions[t])
        maximum(cand_0, cand_1, out=pm)
        if t >= length - TAIL_BITS:
            pm[barred] = _NEG_METRIC  # termination admits register input a = 0 only

    flat = decisions.reshape(length, states * batch)
    cols = np.arange(batch)
    bits = np.empty((length, batch), dtype=np.uint8)
    row = np.zeros(batch, dtype=np.intp)  # state 0 is in row 0
    pos = np.empty(batch, dtype=np.intp)
    for t in range(length - 1, -1, -1):
        np.multiply(row, batch, out=pos)
        pos += cols
        code = flat[t].take(pos) * states + row
        np.take(bit_of, code, out=bits[t])
        np.take(prev_of, code, out=row)
    del decisions, flat  # the decisions go before the bits' transposed copy
    return np.ascontiguousarray(bits.T)


# Row j of Viterbi's path metrics holds state _GRAY_ORDER[j]: the uplink's
# states 2r + a (a = a_{t-1}, r = a_{t-2}) in the Gray-code order of (a, r).
# Of the 24 row orders, this one needs the fewest contiguous runs per step.
_GRAY_ORDER = (0, 2, 3, 1)


@functools.lru_cache(maxsize=1)
def _viterbi_layout():
    """Row layout of viterbi_decode's trellis step.

    A candidate is (pm + s) + p with a sign on s and on p. A +-1 product is
    an exact negation, so each step adds or subtracts, in that order; the
    order fixes how each candidate rounds, and so which of two near-equal
    ones wins. The candidate of the branch (b, r, a), from state half*b + r
    to state 2r + a in row j, is row b * states + j of ext: the b = 0
    candidates are ext's first half and the b = 1 ones its second, row for
    row with the metrics, so that the compare and the max each run over
    whole contiguous arrays. It takes + s or - s from its start state's row
    by its input bit, then + p or - p by its parity bit. Each of those four
    sign groups is a few runs of consecutive rows (_runs), so each step is
    12 operations on contiguous rows and no gather; in numpy 2, one
    operation on a strided 2-D view measured about twice as slow per element
    as on contiguous rows.

    Returns the state count; the (ext rows, metric rows) runs of + s and of
    - s; the ext-row runs of + p and of - p; the rows of the states that
    termination bars (register input a = 1); and, for the traceback, per
    decision b and row j flattened as b * states + j, the decided input bit
    and the row of the predecessor state.
    """
    branch_u, branch_p = _branches(UPLINK)
    half = branch_u.shape[1]
    states = 2 * half
    order = np.array(_GRAY_ORDER)
    row_of = np.argsort(order)
    b, j = np.indices((2, states))
    r, a = order[j] >> 1, order[j] & 1
    u, k = branch_u[b, r, a], branch_p[b, r, a]
    ext_row, start_row = b * states + j, row_of[half * b + r]
    s_runs = tuple(_runs(zip(ext_row[u == v], start_row[u == v])) for v in (0, 1))
    p_runs = tuple(_runs(zip(ext_row[k == v])) for v in (0, 1))
    tables = (row_of[1::2], u.ravel().astype(np.uint8), start_row.ravel())
    for table in tables:
        table.setflags(write=False)
    return (states, s_runs, p_runs) + tables


def _runs(rows) -> list[tuple[slice, ...]]:
    """Tuples of row indices, sorted and cut into maximal runs in which
    each index rises by 1 from one tuple to the next: a slice per column."""
    runs = []
    for tup in sorted(tuple(map(int, t)) for t in rows):
        if runs and all(s.stop == x for s, x in zip(runs[-1], tup)):
            runs[-1] = tuple(slice(s.start, x + 1) for s, x in zip(runs[-1], tup))
        else:
            runs.append(tuple(slice(x, x + 1) for x in tup))
    return runs


def dsc_decode(
    side_llrs: np.ndarray,
    parity_llrs: np.ndarray,
    pattern: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Soft-input Viterbi with receiver-side systematic evidence.

    side_llrs cover every encoded position (info, CRC and tail); a position
    without evidence carries 0. parity_llrs hold the punctured parity,
    parity_length(info_len, pattern) per frame; the decoder spreads them
    over the trellis with zeros at the punctured positions. Returns
    (info_bits, crc_ok); on a CRC mismatch the bits are still the best
    path's decision, and the caller decides the fallback.

    The parity is spread into a time-major (L, T) array, which reaches
    viterbi_decode as its transpose, so Viterbi reads it without a copy. An
    unpunctured parity stream is passed on as it is, and LLRs given as the
    transpose of a time-major array are then read in place, as are such
    side_llrs.
    """
    side = np.atleast_2d(np.asarray(side_llrs, dtype=np.float64))
    info_len = side.shape[1] - CRC_BITS - TAIL_BITS
    if info_len < 0:
        raise ParameterError("fewer systematic LLRs than CRC and tail positions")
    keep = puncture_keep_indices(info_len, pattern)
    parity = np.atleast_2d(np.asarray(parity_llrs, dtype=np.float64))
    if parity.shape[-1] != len(keep):
        raise ParameterError(
            f"expected {len(keep)} parity LLRs for pattern {pattern}, got {parity.shape[-1]}"
        )
    if len(keep) == side.shape[1]:
        spread = parity  # nothing is punctured
    else:
        parity_steps = np.zeros((side.shape[1], len(parity)))
        parity_steps[keep] = parity.T
        spread = parity_steps.T
    decided = viterbi_decode(side, spread)
    info = decided[:, :info_len]
    return info, _crc_matches(info, decided[:, info_len : info_len + CRC_BITS])


def _crc_matches(info: np.ndarray, crc_bits: np.ndarray) -> np.ndarray:
    return np.all(crc16(info) == crc_bits, axis=1)


# ---------------------------------------------------------------------------
# turbo code for parity-only model updates
# ---------------------------------------------------------------------------

TURBO_MAX_ITERATIONS = 8


def max_log_map(
    input_llrs: np.ndarray,
    parity_llrs: np.ndarray,
    input_counts: np.ndarray | None = None,
    *,
    work: _Workspace | None = None,
) -> np.ndarray:
    """A-posteriori LLRs of the input bits of the terminated 16-state RSC.

    input_llrs (T, N) hold all evidence on the inputs (systematic plus a
    priori); parity_llrs (T, N + 4) are 0 where punctured. Frame i has
    input_counts[i] <= N inputs (default N). Its later steps, the 4
    termination steps and then the padding, admit register input a = 0 only
    and carry no input evidence; its parity LLRs past its own tail must be 0.
    Its output LLRs at those steps are exactly 0, and the others equal those
    of the frame decoded alone: the forward recursion is causal, and a
    backward path from a step at or before the count takes a = 0 through the
    termination, which lands in state 0 whatever follows, and through the
    padding, which adds exactly 0 in state 0.

    Max-log BCJR (Bahl et al., 1974): forward (alpha) and backward (beta)
    max-sum recursions, both starting in state 0, then per step the best path
    through an input 0 minus the best through an input 1. One loop advances
    alpha at step t and beta at step N + 3 - t in the same two array
    operations. Beta is kept in reversed time and with bit-reversed state
    labels: reversal turns the backward step's shift right into a shift left,
    so beta steps exactly as alpha does, through the branch table re-indexed
    as (a, rev(r), b).

    Two layouts serve the two stages. The loop is state-major: a metric row
    is (state, recursion, T) and a branch-table row (b, r, a, recursion, T).
    A step adds the metric row, as (b, r), to both branches a of each state
    and keeps the larger of the b = 0 and b = 1 halves of the sums; both
    halves and the next row are contiguous. The LLR stage is branch-major: per
    branch (u, b, r), with register input a = u ^ feedback(b, r), the branch
    metric, alpha of its start state and beta of its end state are each one
    contiguous (step, T) row; the LLR is the maximum over the u = 0 rows
    minus that over the u = 1 rows. Each path metric is the same float32 sum
    (g + alpha) + beta as in two separate recursions, and max is exact, so
    the LLRs are too.

    The float32 work arrays are carved from one flat buffer, `work`, a
    _Workspace for at least (T, N). turbo_decode allocates it once for its
    widest call and passes it to every call, since its batch and width only
    shrink; a call without one allocates its own.
    """
    batch, n = input_llrs.shape
    if not batch:
        return np.zeros((0, n))
    counts = np.full(batch, n) if input_counts is None else np.asarray(input_counts)
    if work is None:
        work = _Workspace(batch, n)
    length = n + TURBO_TAIL_BITS
    codes, branch_terms, branch_ends = _stacked_trellis()
    half = codes.shape[1]
    (terms, values, gg, metric, beta), sums, steps = work.views(batch, n)
    barred = np.arange(length)[:, None] >= counts  # (length, T): steps past a frame's inputs
    live = ~barred[:n]
    # Per step and frame, a branch metric depends on (a, u, p) only: the
    # u-term plus the p-term, or _NEG_METRIC for a = 1 once the frame's
    # inputs end. float32 halves the working set; its rounding matters only
    # for decisions that are near-ties anyway.
    lu = np.zeros((length, batch), dtype=np.float32)
    lu[:n] = np.where(live, input_llrs.T, 0.0)
    signs = np.array([0.5, -0.5], dtype=np.float32)[:, None, None]
    # terms over (recursion, u, p, step, T), the backward recursion's steps
    # reversed; values regroups them by step, over (recursion, a, (u, p)),
    # and gg spreads them over the branches of each loop step
    np.add((lu * signs)[:, None], parity_llrs.T.astype(np.float32) * signs, out=terms[0])
    np.copyto(_items(terms[1]), _items(terms[0])[:, :, ::-1])
    np.copyto(_items(values), _items(terms).reshape(2, 4, length).transpose(2, 0, 1)[:, :, None])
    first = counts.min()  # no step before it is barred
    for rec, rows in enumerate((values, values[::-1])):
        np.copyto(rows[first:, rec, 1], _NEG_METRIC, where=barred[first:, None])
    # every index is in range; "clip" writes straight into out, where the
    # default "raise" would go through a temporary
    np.take(values.reshape(length, -1, batch), codes, axis=1, out=gg, mode="clip")

    # metric[t] holds alpha[t] and beta[length - t] (labels bit-reversed):
    # alpha[t + 1][2r + a] = max over b of alpha[t][half*b + r] + g[t][b, r, a]
    metric[0] = _NEG_METRIC  # the loop fills every later row
    metric[0, 0] = 0.0
    sums_0, sums_1 = sums  # b = 0 and b = 1 for alpha, a for beta
    # the loop is most of a turbo decode: local names, and add's output
    # passed by position, shave its per-call overhead (maximum keeps out=,
    # as numpy 2.4 deprecates a positional output there)
    add, maximum = np.add, np.maximum
    for m_t, g_t, m_next in steps:
        add(m_t, g_t, sums)
        maximum(sums_0, sums_1, out=m_next)

    # per branch (u, b, r) of step t: g[t] + alpha[t][half*b + r] + beta[t + 1]
    # of its end state. values' buffer now holds the alpha rows, and gg's the
    # paths and the beta rows gathered per branch.
    alpha = values.reshape(2 * half, length, batch)
    np.copyto(_items(alpha), _items(metric[:length, :, 0]).T)
    np.copyto(_items(beta), _items(metric[length - 1 :: -1, :, 1]).T)
    paths, ends = gg.reshape(2, 2, 2 * half, length, batch)
    np.take(terms[0].reshape(4, length, batch), branch_terms, axis=0, out=paths, mode="clip")
    paths += alpha
    np.take(beta, branch_ends, axis=0, out=ends, mode="clip")
    paths += ends
    llrs = np.maximum.reduce(paths[0])[:n] - np.maximum.reduce(paths[1])[:n]
    llrs[~live] = 0.0
    return llrs.T.astype(np.float64)


def _items(a: np.ndarray) -> np.ndarray:
    """`a` without its last axis, each run of T floats along it one opaque
    item: a copy then moves whole runs, which is several times faster than
    float by float when T is small, and exact."""
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


def _work_shapes(batch: int, n: int) -> list[tuple]:
    """Shapes of max_log_map's float32 work arrays for `batch` frames of `n`
    inputs: terms, values, branch table, metric and beta rows."""
    length = n + TURBO_TAIL_BITS
    states = 1 << TURBO[0]
    return [
        (2, 2, 2, length, batch),
        (length, 2, 2, 4, batch),
        (length, 2, states // 2, 2, 2, batch),
        (length + 1, states, 2, batch),
        (states, length, batch),
    ]


class _Workspace:
    """A flat float32 buffer that holds the work arrays of any max_log_map
    call on at most `batch` frames of at most `n` inputs, and the views of
    each call shape, built on its first call.

    The views include a Python list of the trellis loop's per-step rows:
    taking three rows per step costs about a tenth of the loop at a batch
    of 4, and turbo_decode repeats a call shape for both constituents and
    for every iteration in which no frame verifies."""

    def __init__(self, batch: int, n: int):
        size = sum(math.prod(shape) for shape in _work_shapes(batch, n))
        self._buffer = np.empty(size, dtype=np.float32)
        self._views = {}

    def views(self, batch: int, n: int):
        """For `batch` frames of `n` inputs: the work arrays (terms, values,
        branch table, metric and beta rows) as consecutive stretches of the
        buffer; the loop's sum buffer; and per trellis step t, metric row t
        as (b, r), branch row t and metric row t + 1 as (r, a)."""
        key = (batch, n)
        if key not in self._views:
            arrays, start = [], 0
            for shape in _work_shapes(batch, n):
                stop = start + math.prod(shape)
                arrays.append(self._buffer[start:stop].reshape(shape))
                start = stop
            _, _, gg, metric, _ = arrays
            length, states = n + TURBO_TAIL_BITS, metric.shape[1]
            sums = np.empty((2, states // 2, 2, 2 * batch), dtype=np.float32)
            steps = list(zip(
                metric.reshape(length + 1, 2, states // 2, 1, 2 * batch),
                gg.reshape(length, *sums.shape),
                metric.reshape(length + 1, states // 2, 2, 2 * batch)[1:],
            ))
            self._views[key] = arrays, sums, steps
        return self._views[key]


@functools.lru_cache(maxsize=1)
def _stacked_trellis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of max_log_map.

    codes: per loop-step slot (b, r, a, recursion), the index of its branch
    metric among the (recursion, a, u, p) values; alpha's slots are over
    (b, r, a), beta's over (a, rev(r), b). branch_terms and branch_ends: per
    branch (u, b, r) of the LLR stage, the index of its metric among the
    (u, p) terms, and the bit-reversed label of its end state.
    """
    memory = TURBO[0]
    branch_u, branch_p = _branches(TURBO)
    forward = 4 * np.arange(2) + 2 * branch_u + branch_p
    backward = 8 + forward.transpose(2, 1, 0)[:, _bit_reversal(memory - 1)]
    codes = np.stack([forward, backward], axis=-1)
    # input u = a ^ feedback(b, r), and the feedback is the input at a = 0
    b, r = np.indices(branch_u.shape[:2])
    u = np.arange(2)[:, None, None]
    a = u ^ branch_u[:, :, 0]
    branch_terms = (2 * u + branch_p[b, r, a]).reshape(2, -1)
    branch_ends = _bit_reversal(memory)[2 * r + a].reshape(2, -1)
    tables = (codes, branch_terms, branch_ends)
    for table in tables:
        table.setflags(write=False)
    return tables


def _bit_reversal(bits: int) -> np.ndarray:
    """Each `bits`-bit label with its bit order reversed."""
    labels = np.arange(1 << bits)
    return sum(((labels >> k) & 1) << (bits - 1 - k) for k in range(bits))


@functools.lru_cache(maxsize=16)
def turbo_interleaver(length: int) -> np.ndarray:
    """Permutation feeding the second constituent: input j is stream bit perm[j].

    S-random (Divsalar & Pollara, 1995): positions within S of each other in
    one order land more than S apart in the other. Each position takes the
    first remaining candidate of a shuffled pool that keeps that spread; a
    draw that runs out of candidates starts over, and S, which starts at
    floor(sqrt(length / 5)), drops by one after 8 such draws. The pools come
    from a generator seeded by the length alone, so sender and receiver
    derive the same permutation in any process. The array is read-only.
    """
    rng = np.random.default_rng(length)
    spread = int(np.sqrt(length / 5))
    attempts = 0
    while True:
        pool = rng.permutation(length)
        blocked_until = np.full(length, -1)  # last position a value may not take
        perm = np.empty(length, dtype=np.int64)
        for i in range(length):
            fits = blocked_until[pool] < i
            if not fits.any():
                break
            j = int(np.argmax(fits))
            perm[i] = pool[j]
            pool = np.delete(pool, j)
            blocked_until[max(0, perm[i] - spread) : perm[i] + spread + 1] = i + spread
        else:
            perm.setflags(write=False)
            return perm
        attempts += 1
        if attempts % 8 == 0:
            spread -= 1


def turbo_keep_indices(info_len: int, pattern: str) -> tuple[np.ndarray, np.ndarray]:
    """Surviving parity positions of the two constituents.

    The budget is parity_length(info_len, pattern) bits, the same as the
    single-RSC code's. Constituent 1 keeps the larger half: its CRC and tail
    positions first, the rest spread evenly. Constituent 2, whose CRC bits
    are scattered by the interleaver, keeps its tail positions first.
    """
    m = parity_length(info_len, pattern)
    length = info_len + CRC_BITS + TURBO_TAIL_BITS
    return (
        _spread_keep(length, m - m // 2, CRC_BITS + TURBO_TAIL_BITS),
        _spread_keep(length, m // 2, TURBO_TAIL_BITS),
    )


def turbo_encode(info_bits: np.ndarray, pattern: str) -> np.ndarray:
    """Punctured parity of the two-constituent turbo code, (T, K) -> (T, m).

    Constituent 1 encodes info + CRC, constituent 2 the interleaved copy;
    each is terminated on its own. The wire carries constituent 1's kept
    parity, then constituent 2's, and never a systematic bit.
    """
    stream = _with_crc(info_bits)
    keep1, keep2 = turbo_keep_indices(stream.shape[1] - CRC_BITS, pattern)
    perm = turbo_interleaver(stream.shape[1])
    parity1 = _rsc_encode(stream, TURBO)[1]
    parity2 = _rsc_encode(stream[:, perm], TURBO)[1]
    return np.concatenate([parity1[:, keep1], parity2[:, keep2]], axis=1)


def turbo_decode(side_llrs, parity_llrs, pattern: str) -> tuple[np.ndarray, np.ndarray]:
    """Iterative max-log-MAP decoding of a batch of frames.

    side_llrs hold each frame's info-position LLRs: a (T, K) array, or a
    sequence of T frames whose lengths K_i may differ. parity_llrs hold
    frame i's parity_length(K_i, pattern) LLRs in the same form. CRC
    positions start with no evidence. Each iteration runs constituent 1
    with constituent 2's extrinsic LLRs as a priori evidence, then
    constituent 2 with constituent 1's, and checks each frame's hard
    decision against its CRC. A frame stops as soon as its CRC verifies; the
    rest go on for at most TURBO_MAX_ITERATIONS iterations.

    Frames of unequal length share one batch, padded to the longest frame
    still active: max_log_map takes each frame's input count, and frame i
    interleaves through its own permutation, extended by the identity over
    the padding. Pad positions then carry exactly 0 throughout, and each
    frame decodes exactly as it would alone.

    Every constituent decode of the call works in one buffer, allocated for
    the first and widest of them (see max_log_map).

    Returns (info_bits, crc_ok): info_bits is (T, max K_i), frame i's bits
    in its first K_i columns and 0 after. A frame that never verifies
    returns its last hard decision.
    """
    sides, parities = _frames(side_llrs), _frames(parity_llrs)
    if len(sides) != len(parities):
        raise ParameterError(f"{len(sides)} frames of side LLRs but {len(parities)} of parity")
    batch = len(sides)
    info_lens = np.array([len(side) for side in sides])
    counts = info_lens + CRC_BITS
    n = counts.max()
    systematic = np.zeros((batch, n))
    par1 = np.zeros((batch, n + TURBO_TAIL_BITS))
    par2 = np.zeros((batch, n + TURBO_TAIL_BITS))
    order = np.tile(np.arange(n), (batch, 1))  # constituent 2's input j is stream bit order[j]
    for i, (side, parity) in enumerate(zip(sides, parities)):
        keep1, keep2 = turbo_keep_indices(len(side), pattern)
        if len(parity) != len(keep1) + len(keep2):
            raise ParameterError(
                f"expected {len(keep1) + len(keep2)} parity LLRs per frame for "
                f"pattern {pattern}, got {len(parity)}"
            )
        systematic[i, : len(side)] = side
        par1[i, keep1] = parity[: len(keep1)]
        par2[i, keep2] = parity[len(keep1) :]
        order[i, : counts[i]] = turbo_interleaver(counts[i])

    work = _Workspace(batch, n)  # every call's batch and width are at most these
    extrinsic2 = np.zeros((batch, n))
    decided = np.zeros((batch, n), dtype=np.uint8)
    crc_ok = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    for _ in range(TURBO_MAX_ITERATIONS):
        active_counts = counts[active]
        width = active_counts.max()
        trellis = width + TURBO_TAIL_BITS
        s = systematic[active, :width]
        prior1 = s + extrinsic2[active, :width]
        extrinsic1 = max_log_map(prior1, par1[active, :trellis], active_counts, work=work) - prior1
        perm = order[active, :width]
        prior2 = np.take_along_axis(s + extrinsic1, perm, axis=1)
        posterior2 = max_log_map(prior2, par2[active, :trellis], active_counts, work=work)
        posterior = np.empty_like(prior2)
        np.put_along_axis(posterior, perm, posterior2, axis=1)
        extrinsic2[active, :width] = posterior - s - extrinsic1
        hard = (posterior < 0).astype(np.uint8)
        decided[active, :width] = hard
        passed = np.zeros(active.size, dtype=bool)
        for k in np.unique(info_lens[active]):
            group = info_lens[active] == k
            passed[group] = _crc_matches(hard[group, :k], hard[group, k : k + CRC_BITS])
        crc_ok[active[passed]] = True
        active = active[~passed]
        if not active.size:
            break
    k_max = info_lens.max()
    return np.where(np.arange(k_max) < info_lens[:, None], decided[:, :k_max], 0), crc_ok


def _frames(llrs) -> list[np.ndarray]:
    """The rows of a (T, L) array, where an (L,) frame is a batch of one, or
    the frames of a sequence, each as a float64 array."""
    if isinstance(llrs, np.ndarray):
        llrs = np.atleast_2d(llrs)
    return [np.asarray(frame, dtype=np.float64) for frame in llrs]


# ---------------------------------------------------------------------------
# analog/digital fusion
# ---------------------------------------------------------------------------

def refine(
    est: np.ndarray,
    decoded_cells: np.ndarray,
    spec: QuantizerSpec,
    crc_ok: np.ndarray,
    observed: np.ndarray | None = None,
) -> np.ndarray:
    """Fuse analog estimates with the decoded quantizer cells.

    est and decoded_cells are (T, n) and crc_ok holds one flag per frame.
    With a verified frame, every coefficient the analog branch actually
    observed is clamped into the value range its decoded cell pins down (end
    cells are open-ended); coefficients with no analog observation take the
    decoded cell midpoint, since projecting a bare prior mean onto a far
    cell's edge is dominated by the midpoint. `observed` is a boolean mask
    over the last axis (default: everything observed). Without a verified
    frame the estimates pass through untouched, falling back to the analog
    branch.
    """
    e = np.asarray(est, dtype=np.float64)
    cells = np.asarray(decoded_cells)
    # clip(e, lower edge, upper edge) is min(max(e, lower), upper) for floats,
    # computed in the result's buffer; the end cells are open-ended
    fused = _cell_points(cells, spec, 0.0)
    np.maximum(e, fused, out=fused)
    np.copyto(fused, e, where=cells == 0)
    np.minimum(fused, _cell_points(cells, spec, 1.0), out=fused, where=cells != spec.levels - 1)
    if observed is not None:
        np.copyto(fused, dequantize_cells(cells, spec), where=~np.asarray(observed))
    np.copyto(fused, e, where=~np.asarray(crc_ok)[:, None])
    return fused
