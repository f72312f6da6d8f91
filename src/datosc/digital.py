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
back as (1, ...).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from .errors import ParameterError

LLR_CLIP = 30.0

CRC_POLY = 0x1021
CRC_INIT = 0xFFFF
CRC_BITS = 16
TAIL_BITS = 2

PATTERN_FRACTIONS = {
    "R12": Fraction(1, 1),
    "R23": Fraction(1, 2),
    "R34": Fraction(1, 3),
}

# Trellis of the (1, 5/7) RSC, state = (d1 << 1) | d2. For state s and input
# u the register input is a = u ^ d1 ^ d2, the parity bit a ^ d2, and the
# next state (a << 1) | d1. Tables below are indexed [state, input].
_NEXT = np.array([[0, 2], [2, 0], [3, 1], [1, 3]], dtype=np.uint8)
_PARITY = np.array([[0, 1], [0, 1], [1, 0], [1, 0]], dtype=np.uint8)
_TAIL_INPUT = np.array([0, 1, 1, 0], dtype=np.uint8)  # u = d1 ^ d2

# Incoming transitions per next-state: (prev_state, input, parity) pairs.
_INCOMING = {
    0: ((0, 0, 0), (1, 1, 1)),
    1: ((2, 1, 0), (3, 0, 1)),
    2: ((0, 1, 1), (1, 0, 0)),
    3: ((2, 0, 1), (3, 1, 0)),
}
_IN_STATE = np.array([[a[0] for a in _INCOMING[ns]] for ns in range(4)], dtype=np.int64)
_IN_U = np.array([[a[1] for a in _INCOMING[ns]] for ns in range(4)], dtype=np.uint8)
_IN_P = np.array([[a[2] for a in _INCOMING[ns]] for ns in range(4)], dtype=np.float64)


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
    x = np.asarray(coeffs, dtype=np.float64)
    idx = np.floor((x + spec.clips) / spec.deltas)
    return np.clip(idx, 0, spec.levels - 1).astype(np.int64)


def cells_to_bits(cells: np.ndarray, bits: int) -> np.ndarray:
    """Natural binary, most-significant bit first, flattened per coefficient."""
    c = np.asarray(cells, dtype=np.int64)
    shifts = np.arange(bits - 1, -1, -1)
    out = (c[..., None] >> shifts) & 1
    return out.reshape(*c.shape[:-1], c.shape[-1] * bits).astype(np.uint8)


def bits_to_cells(bitstream: np.ndarray, bits: int) -> np.ndarray:
    b = np.asarray(bitstream, dtype=np.int64)
    if b.shape[-1] % bits:
        raise ParameterError("bitstream length is not a multiple of the depth")
    grouped = b.reshape(*b.shape[:-1], b.shape[-1] // bits, bits)
    weights = 1 << np.arange(bits - 1, -1, -1)
    return np.sum(grouped * weights, axis=-1)


def dequantize_cells(cells: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return -spec.clips + (np.asarray(cells) + 0.5) * spec.deltas


def quantize(coeffs: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return cells_to_bits(quantize_cells(coeffs, spec), spec.bits)


def dequantize(bitstream: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return dequantize_cells(bits_to_cells(bitstream, spec.bits), spec)


def cell_bounds(cells: np.ndarray, spec: QuantizerSpec) -> tuple[np.ndarray, np.ndarray]:
    """Value range a cell decision pins down; end cells absorb the tails."""
    c = np.asarray(cells)
    lo = -spec.clips + c * spec.deltas
    hi = -spec.clips + (c + 1) * spec.deltas
    lo = np.where(c == 0, -np.inf, lo)
    hi = np.where(c == spec.levels - 1, np.inf, hi)
    return lo, hi


# ---------------------------------------------------------------------------
# CRC-16 and the convolutional code
# ---------------------------------------------------------------------------

def crc16(bits: np.ndarray) -> np.ndarray:
    """CRC-16-CCITT over a bit array; returns 16 bits, MSB first.

    Maps (T, L) bits to (T, 16); an (L,) input is a batch of one. The register
    update is affine over GF(2), so the CRC is the XOR of a fixed 16-bit term
    per set bit with the CRC of the all-zero message (see _crc_terms).
    """
    b = np.atleast_2d(np.asarray(bits)).astype(bool)
    terms, zero_crc = _crc_terms(b.shape[1])
    reg = np.bitwise_xor.reduce(np.where(b, terms, np.uint16(0)), axis=1) ^ zero_crc
    shifts = np.arange(15, -1, -1)
    return ((reg[:, None] >> shifts) & 1).astype(np.uint8)


@functools.lru_cache(maxsize=64)
def _crc_terms(length: int) -> tuple[np.ndarray, np.uint16]:
    """Per position, the register contribution of a lone 1 there (a 1 fed
    into an empty register, then shifted through the rest of the message
    with zero input), and the CRC of `length` zero bits from CRC_INIT."""

    def shift(reg: int) -> int:
        return ((reg << 1) ^ (CRC_POLY if reg & 0x8000 else 0)) & 0xFFFF

    terms = np.empty(length, dtype=np.uint16)
    reg, zero_crc = CRC_POLY, CRC_INIT
    for k in range(length):
        terms[length - 1 - k] = reg
        reg = shift(reg)
        zero_crc = shift(zero_crc)
    terms.setflags(write=False)
    return terms, np.uint16(zero_crc)


def rsc_encode(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the RSC over the input and terminate to the zero state.

    Returns (sys_bits, parity_bits), each input length + 2 tail positions.
    """
    b = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    batch, length = b.shape
    sys_out = np.empty((batch, length + TAIL_BITS), dtype=np.uint8)
    par_out = np.empty((batch, length + TAIL_BITS), dtype=np.uint8)
    d1 = np.zeros(batch, dtype=np.uint8)
    d2 = np.zeros(batch, dtype=np.uint8)
    for t in range(length):
        u = b[:, t]
        a = u ^ d1 ^ d2
        sys_out[:, t] = u
        par_out[:, t] = a ^ d2
        d2, d1 = d1, a
    for t in range(length, length + TAIL_BITS):
        u = d1 ^ d2  # forces the register input to zero
        sys_out[:, t] = u
        par_out[:, t] = 0 ^ d2
        d2, d1 = d1, np.zeros_like(d1)
    return sys_out, par_out


def parity_length(info_len: int, pattern: str) -> int:
    """Punctured parity bit count: round(fraction * (info + CRC + tail))."""
    frac = PATTERN_FRACTIONS[pattern]
    return int(round(Fraction(info_len + CRC_BITS + TAIL_BITS) * frac))


def puncture_keep_indices(encoded_len: int, pattern: str) -> np.ndarray:
    """Surviving parity positions; exactly round(fraction * encoded_len) bits.

    The CRC and tail steps carry no receiver-side systematic evidence, so
    their parity is never punctured: the last CRC_BITS + TAIL_BITS positions
    survive first and the remaining budget spreads evenly over the info
    region. (Without this, a punctured trellis tail is under-determined and
    even noiseless frames fail their CRC check.)
    """
    m = int(round(Fraction(encoded_len) * PATTERN_FRACTIONS[pattern]))
    return _spread_keep(encoded_len, m, CRC_BITS + TAIL_BITS)


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


@dataclass(frozen=True)
class CodeSpec:
    """Pattern id selecting the parity fraction of the fixed RSC+CRC chain."""

    pattern: str = "R12"

    def __post_init__(self):
        if self.pattern not in PATTERN_FRACTIONS:
            raise ParameterError(f"unknown code pattern {self.pattern!r}")

    def encoded_len(self, info_len: int) -> int:
        return info_len + CRC_BITS + TAIL_BITS

    def parity_len(self, info_len: int) -> int:
        return parity_length(info_len, self.pattern)


def dsc_encode(info_bits: np.ndarray, code: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Append CRC and tail, run the RSC, and puncture its parity.

    Returns (systematic, parity): the info + CRC + tail bits, and the
    parity_len(info_len) surviving parity bits. A parity-only link sends the
    parity alone; a plain digital link sends both.
    """
    info = np.atleast_2d(np.asarray(info_bits, dtype=np.uint8))
    stream = np.concatenate([info, crc16(info)], axis=1)
    systematic, parity = rsc_encode(stream)
    return systematic, parity[:, puncture_keep_indices(parity.shape[1], code.pattern)]


# ---------------------------------------------------------------------------
# modem
# ---------------------------------------------------------------------------

def modulate(bits: np.ndarray, scheme: str, amplitude: float = 1.0) -> np.ndarray:
    """BPSK maps 0 -> +a; QPSK Gray-maps bit pairs to a*(+/-1 +/- 1j)/sqrt(2).

    An odd QPSK bit count is padded with one zero bit (the receiver trims it).
    """
    b = np.asarray(bits, dtype=np.float64)
    if scheme == "bpsk":
        return amplitude * (1.0 - 2.0 * b) + 0.0j
    if scheme == "qpsk":
        if b.shape[-1] % 2:
            b = np.concatenate([b, np.zeros(b.shape[:-1] + (1,))], axis=-1)
        i = 1.0 - 2.0 * b[..., 0::2]
        q = 1.0 - 2.0 * b[..., 1::2]
        return amplitude * (i + 1j * q) / np.sqrt(2.0)
    raise ParameterError(f"unknown modulation {scheme!r}")


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
    """
    y = np.asarray(received, dtype=np.complex128)
    matched = np.conj(h) * y
    if scheme == "bpsk":
        llrs = 4.0 * amplitude * matched.real / noise_var
    elif scheme == "qpsk":
        scale = 4.0 * (amplitude / np.sqrt(2.0)) / noise_var
        llrs = np.empty(y.shape[:-1] + (2 * y.shape[-1],))
        llrs[..., 0::2] = scale * matched.real
        llrs[..., 1::2] = scale * matched.imag
    else:
        raise ParameterError(f"unknown modulation {scheme!r}")
    if n_bits is not None:
        llrs = llrs[..., :n_bits]
    return llr_clip(llrs)


# ---------------------------------------------------------------------------
# side-information LLRs
# ---------------------------------------------------------------------------

def side_info_llrs(est: np.ndarray, err_var: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Systematic-position LLRs from Gaussian coefficient beliefs.

    Each coefficient is modelled as Normal(est, err_var); cell probabilities
    are CDF differences over the quantizer cells with the end cells absorbing
    the tails, and each bit's LLR aggregates the cells where that bit is 0
    versus 1. Output is flattened MSB-first per coefficient, shaped like the
    quantized bitstream. CRC and tail positions are not covered here: the
    decoder gives them zero prior on its own.
    """
    mu = np.asarray(est, dtype=np.float64)
    sigma = np.sqrt(np.maximum(np.asarray(err_var, dtype=np.float64), 1e-300))
    levels = spec.levels
    edges = -spec.clips[..., None] + np.arange(1, levels) * spec.deltas[..., None]
    z = (edges - mu[..., None]) / sigma[..., None]
    cdf = ndtr(z)
    probs = np.empty(mu.shape + (levels,))
    probs[..., 0] = cdf[..., 0]
    probs[..., 1:-1] = np.diff(cdf, axis=-1)
    probs[..., -1] = 1.0 - cdf[..., -1]

    shifts = np.arange(spec.bits - 1, -1, -1)
    cell_bits = ((np.arange(levels)[:, None] >> shifts) & 1).astype(bool)  # (levels, B)
    with np.errstate(divide="ignore"):
        p1 = probs @ cell_bits            # (..., B)
        p0 = probs @ (~cell_bits)
        llrs = np.log(p0) - np.log(p1)
    llrs = np.nan_to_num(llrs, nan=0.0, posinf=LLR_CLIP, neginf=-LLR_CLIP)
    out = llr_clip(llrs)
    return out.reshape(*mu.shape[:-1], mu.shape[-1] * spec.bits)


# ---------------------------------------------------------------------------
# Viterbi decoding
# ---------------------------------------------------------------------------

def viterbi_decode(sys_llrs: np.ndarray, parity_llrs: np.ndarray, n_tail: int = TAIL_BITS) -> np.ndarray:
    """Max-likelihood sequence decision on the terminated RSC trellis.

    sys_llrs and parity_llrs cover every trellis step (punctured parity
    positions carry 0). The path starts and ends in state 0; the last n_tail
    steps only admit the termination input. Returns the decided input bits,
    tail included, as (T, L).
    """
    sys_l = np.atleast_2d(np.asarray(sys_llrs, dtype=np.float64))
    par_l = np.atleast_2d(np.asarray(parity_llrs, dtype=np.float64))
    if sys_l.shape != par_l.shape:
        raise ParameterError("systematic/parity LLR shapes differ")
    batch, length = sys_l.shape
    if length < n_tail:
        raise ParameterError("trellis shorter than its tail")

    neg_inf = -1e18
    pm = np.full((batch, 4), neg_inf)
    pm[:, 0] = 0.0
    decisions = np.empty((length, batch, 4), dtype=np.uint8)
    sign_u = 1.0 - 2.0 * _IN_U          # (4, 2)
    sign_p = 1.0 - 2.0 * _IN_P

    for t in range(length):
        s_llr = sys_l[:, t][:, None, None]     # (T, 1, 1)
        p_llr = par_l[:, t][:, None, None]
        # candidate metric for both incoming transitions of each next state
        cand = pm[:, _IN_STATE] + s_llr * sign_u + p_llr * sign_p  # (T, 4, 2)
        choice = np.argmax(cand, axis=2).astype(np.uint8)
        decisions[t] = choice
        pm = np.take_along_axis(cand, choice[..., None].astype(np.int64), axis=2)[..., 0]
        if t >= length - n_tail:
            pm[:, 2:] = neg_inf  # termination admits only states reachable via a=0

    bits = np.empty((batch, length), dtype=np.uint8)
    state = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)
    for t in range(length - 1, -1, -1):
        choice = decisions[t][rows, state]
        bits[:, t] = _IN_U[state, choice]
        state = _IN_STATE[state, choice]
    return bits


def assemble_parity_llrs(parity_llrs: np.ndarray, encoded_len: int, pattern: str) -> np.ndarray:
    """Spread punctured-parity LLRs over the full trellis (zeros elsewhere)."""
    keep = puncture_keep_indices(encoded_len, pattern)
    p = np.asarray(parity_llrs, dtype=np.float64)
    if p.shape[-1] != len(keep):
        raise ParameterError(
            f"expected {len(keep)} parity LLRs for pattern {pattern}, got {p.shape[-1]}"
        )
    full = np.zeros(p.shape[:-1] + (encoded_len,))
    full[..., keep] = p
    return full


def dsc_decode(
    side_llrs: np.ndarray,
    parity_llrs: np.ndarray,
    code: CodeSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Soft-input Viterbi with receiver-side systematic evidence.

    side_llrs cover either the info positions only or every encoded position
    (info, CRC and tail); positions they do not cover enter the trellis with
    zero prior. The parity count tells the two layouts apart: theirs differ
    by about fraction * (CRC_BITS + TAIL_BITS), at least 5 bits. Returns
    (info_bits, crc_ok); on a CRC mismatch the bits are still the best
    path's decision, and the caller decides the fallback.
    """
    side = np.atleast_2d(np.asarray(side_llrs, dtype=np.float64))
    parity = np.atleast_2d(np.asarray(parity_llrs, dtype=np.float64))
    batch, width = side.shape
    info_len = width - CRC_BITS - TAIL_BITS
    if info_len < 0 or parity.shape[1] != code.parity_len(info_len):
        info_len = width  # info positions only; the parity count is checked below
    enc_len = code.encoded_len(info_len)
    sys_full = np.zeros((batch, enc_len))
    sys_full[:, :width] = side
    decided = viterbi_decode(sys_full, assemble_parity_llrs(parity, enc_len, code.pattern))
    info = decided[:, :info_len]
    return info, _crc_matches(info, decided[:, info_len : info_len + CRC_BITS])


def _crc_matches(info: np.ndarray, crc_bits: np.ndarray) -> np.ndarray:
    return np.all(crc16(info) == crc_bits, axis=1)


# ---------------------------------------------------------------------------
# turbo code for parity-only model updates
# ---------------------------------------------------------------------------

# Both constituents are the 16-state RSC (1, 35/23). State s holds the last
# four register values, a_{t-1} in bit 0 through a_{t-4} in bit 3. The
# register input is a = u ^ a_{t-3} ^ a_{t-4} (feedback 23 = 1 + D^3 + D^4,
# primitive, period 15), the parity bit a ^ a_{t-1} ^ a_{t-2} ^ a_{t-4}
# (35 = 1 + D + D^2 + D^4), and the next state ((s << 1) & 15) | a. With
# s = 8*b + r the successor of (s, a) is 2*r + a, so a trellis step is a
# max over b in a (2, 8, 2) = (b, r, a) view of the 32 branches.
TURBO_TAIL_BITS = 4
TURBO_MAX_ITERATIONS = 8

_STATES16 = np.arange(16)
_FEEDBACK16 = ((_STATES16 >> 2) ^ (_STATES16 >> 3)) & 1
_FORWARD16 = (_STATES16 ^ (_STATES16 >> 1) ^ (_STATES16 >> 3)) & 1
# Per branch (s, a), flattened as 2*s + a: the input bit and the parity bit.
_BRANCH_U = (np.arange(2)[None, :] ^ _FEEDBACK16[:, None]).reshape(-1)
_BRANCH_P = (np.arange(2)[None, :] ^ _FORWARD16[:, None]).reshape(-1)
_HALF_SIGN_U = (0.5 - _BRANCH_U).astype(np.float32)
_HALF_SIGN_P = (0.5 - _BRANCH_P).astype(np.float32)
_BRANCHES_U0 = np.flatnonzero(_BRANCH_U == 0)
_BRANCHES_U1 = np.flatnonzero(_BRANCH_U == 1)
_NEG_METRIC = -1e30  # log-metric of an unreachable state or barred branch


def rsc16_parity(bits: np.ndarray) -> np.ndarray:
    """Parity of the 16-state RSC over (T, L) inputs, then 4 termination
    steps (input = feedback, so a = 0) that return the register to zero.

    The register input a_t depends on a_{t-3} and older values only, so the
    recursion fills three steps per array operation.
    """
    batch, length = bits.shape
    # a_t at column t + 4: four zeros of start state, then L inputs, then
    # the four zero register inputs of the termination
    a = np.zeros((batch, length + 8), dtype=np.uint8)
    for j in range(4, length + 4, 3):
        stop = min(j + 3, length + 4)
        a[:, j:stop] = bits[:, j - 4 : stop - 4] ^ a[:, j - 3 : stop - 3] ^ a[:, j - 4 : stop - 4]
    return a[:, 4:] ^ a[:, 3:-1] ^ a[:, 2:-2] ^ a[:, :-4]


def max_log_map(input_llrs: np.ndarray, parity_llrs: np.ndarray) -> np.ndarray:
    """A-posteriori LLRs of the input bits of the terminated 16-state RSC.

    input_llrs (T, N) hold all evidence on the inputs (systematic plus a
    priori); parity_llrs (T, N + 4) are 0 where punctured. Max-log BCJR
    (Bahl et al., 1974): forward and backward max-sum recursions, both
    starting in state 0, then per step the best path through an input 0
    minus the best through an input 1. The termination steps admit a = 0 only
    and carry no input evidence.
    """
    batch, n = input_llrs.shape
    length = n + TURBO_TAIL_BITS
    lu = np.zeros((length, batch), dtype=np.float32)
    lu[:n] = input_llrs.T
    # branch metrics, time-major with the batch axis last: (length, 32, T).
    # float32 halves the working set; its rounding matters only for
    # decisions that are near-ties anyway.
    gamma = lu[:, None, :] * _HALF_SIGN_U[:, None]
    gamma += parity_llrs.T[:, None, :].astype(np.float32) * _HALF_SIGN_P[:, None]
    gamma[n:, 1::2] = _NEG_METRIC
    g = gamma.reshape(length, 2, 8, 2, batch)  # (b, r, a) of branch (8b + r, a)

    # alpha[t + 1][2r + a] = max over b of alpha[t][8b + r] + g[t][b, r, a]
    alpha = np.full((length + 1, 16, batch), _NEG_METRIC, dtype=np.float32)
    alpha[0, 0] = 0.0
    a_in = alpha.reshape(length + 1, 2, 8, 1, batch)
    a_out = alpha.reshape(length + 1, 8, 2, batch)
    for a_t, g_t, a_next in zip(a_in, g, a_out[1:]):
        c = a_t + g_t
        np.maximum(c[0], c[1], out=a_next)
    # beta[t][8b + r] = max over a of g[t][b, r, a] + beta[t + 1][2r + a]
    beta = np.full((length + 1, 16, batch), _NEG_METRIC, dtype=np.float32)
    beta[length, 0] = 0.0
    b_in = beta.reshape(length + 1, 1, 8, 2, batch)
    b_out = beta.reshape(length + 1, 2, 8, batch)
    for g_t, b_next, b_t in zip(g[::-1], b_in[:0:-1], b_out[-2::-1]):
        c = g_t + b_next
        np.maximum(c[:, :, 0], c[:, :, 1], out=b_t)

    paths = g[:n]  # in place: the branch metrics are not needed again
    paths += a_in[:n]
    paths += b_in[1 : n + 1]
    paths = paths.reshape(n, 32, batch)
    llrs = paths[:, _BRANCHES_U0].max(axis=1) - paths[:, _BRANCHES_U1].max(axis=1)
    return llrs.T.astype(np.float64)


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
    info = np.atleast_2d(np.asarray(info_bits, dtype=np.uint8))
    stream = np.concatenate([info, crc16(info)], axis=1)
    keep1, keep2 = turbo_keep_indices(info.shape[1], pattern)
    perm = turbo_interleaver(stream.shape[1])
    return np.concatenate(
        [rsc16_parity(stream)[:, keep1], rsc16_parity(stream[:, perm])[:, keep2]], axis=1
    )


def turbo_decode(
    side_llrs: np.ndarray, parity_llrs: np.ndarray, pattern: str
) -> tuple[np.ndarray, np.ndarray]:
    """Iterative max-log-MAP decoding of a batch of equal-length frames.

    side_llrs (T, K) cover the info positions; CRC positions start with no
    evidence. Each iteration runs constituent 1 with constituent 2's
    extrinsic LLRs as a priori evidence, then constituent 2 with
    constituent 1's, and checks the hard decision against its CRC. A frame
    stops as soon as its CRC verifies; the rest go on for at most
    TURBO_MAX_ITERATIONS iterations. Returns (info_bits, crc_ok); a frame
    that never verifies returns its last hard decision.
    """
    side = np.atleast_2d(np.asarray(side_llrs, dtype=np.float64))
    parity = np.atleast_2d(np.asarray(parity_llrs, dtype=np.float64))
    batch, info_len = side.shape
    n = info_len + CRC_BITS
    keep1, keep2 = turbo_keep_indices(info_len, pattern)
    if parity.shape != (batch, len(keep1) + len(keep2)):
        raise ParameterError(
            f"expected {len(keep1) + len(keep2)} parity LLRs per frame for "
            f"pattern {pattern}, got {parity.shape[-1]}"
        )
    perm = turbo_interleaver(n)
    par1 = np.zeros((batch, n + TURBO_TAIL_BITS))
    par1[:, keep1] = parity[:, : len(keep1)]
    par2 = np.zeros((batch, n + TURBO_TAIL_BITS))
    par2[:, keep2] = parity[:, len(keep1) :]
    systematic = np.zeros((batch, n))
    systematic[:, :info_len] = side

    extrinsic2 = np.zeros((batch, n))
    decided = np.zeros((batch, n), dtype=np.uint8)
    crc_ok = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    for _ in range(TURBO_MAX_ITERATIONS):
        s = systematic[active]
        prior1 = s + extrinsic2[active]
        extrinsic1 = max_log_map(prior1, par1[active]) - prior1
        prior2 = (s + extrinsic1)[:, perm]
        posterior = np.empty_like(prior2)
        posterior[:, perm] = max_log_map(prior2, par2[active])
        extrinsic2[active] = posterior - s - extrinsic1
        hard = (posterior < 0).astype(np.uint8)
        decided[active] = hard
        passed = _crc_matches(hard[:, :info_len], hard[:, info_len:])
        crc_ok[active[passed]] = True
        active = active[~passed]
        if not active.size:
            break
    return decided[:, :info_len], crc_ok


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
    lo, hi = cell_bounds(decoded_cells, spec)
    fused = np.clip(e, lo, hi)
    if observed is not None:
        mids = dequantize_cells(decoded_cells, spec)
        fused = np.where(observed, fused, mids)
    return np.where(np.asarray(crc_ok)[:, None], fused, e)
