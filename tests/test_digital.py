import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, ndtr
from scipy.stats import norm

from datosc import digital
from datosc.allocator import digital_uses
from datosc.channel import ChannelState, transmit
from datosc.digital import (
    CRC_BITS,
    LLR_CLIP,
    TAIL_BITS,
    TURBO,
    UPLINK,
    QuantizerSpec,
    bits_to_cells,
    cells_to_bits,
    crc16,
    demodulate,
    dequantize_cells,
    dsc_decode,
    dsc_encode,
    llr_clip,
    matched_llrs,
    modulate,
    parity_length,
    puncture_keep_indices,
    quantize,
    quantize_cells,
    refine,
    rsc_encode,
    max_log_map,
    side_info_llrs,
    turbo_decode,
    turbo_encode,
    turbo_interleaver,
    turbo_keep_indices,
    viterbi_decode,
)
from datosc.digital import (
    _NEG_METRIC,
    TURBO_TAIL_BITS,
    _branches,
    _rsc_encode,
    _Workspace,
)
from datosc.errors import ParameterError
from datosc.harness import ExperimentConfig, build_link
from datosc.seu import seu_update_ints


# ---------------------------------------------------------------------------
# quantizer
# ---------------------------------------------------------------------------

def _qspec(bits, clip, n=1):
    return QuantizerSpec(bits=bits, clips=np.full(n, float(clip)))


def test_one_bit_midrise_sign():
    spec = _qspec(1, 1.0)
    bits = quantize(np.array([0.3]), spec)
    assert np.array_equal(bits, [1])
    assert dequantize_cells(bits_to_cells(bits, 1), spec)[0] == pytest.approx(0.5)
    assert dequantize_cells(quantize_cells(np.array([-0.3]), spec), spec)[0] == pytest.approx(-0.5)


def test_clipping_to_end_cells():
    spec = _qspec(3, 2.0)
    delta = spec.deltas[0]
    top = dequantize_cells(quantize_cells(np.array([20.0]), spec), spec)[0]
    assert top == pytest.approx(2.0 - delta / 2)
    bot = dequantize_cells(quantize_cells(np.array([-20.0]), spec), spec)[0]
    assert bot == pytest.approx(-2.0 + delta / 2)


def test_uniform_input_mse_near_delta_squared_over_12():
    rng = np.random.default_rng(3)
    spec = _qspec(4, 1.0)
    x = rng.uniform(-1.0, 1.0, 100_000).reshape(-1, 1)
    err = dequantize_cells(quantize_cells(x, spec), spec) - x
    mse = np.mean(err**2)
    expected = spec.deltas[0] ** 2 / 12
    assert abs(mse / expected - 1.0) < 0.05


@given(st.floats(-0.999, 0.999), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_in_range_error_bounded_by_half_cell(x, bits):
    spec = _qspec(bits, 1.0)
    err = abs(dequantize_cells(quantize_cells(np.array([x]), spec), spec)[0] - x)
    assert err <= spec.deltas[0] / 2 + 1e-12


def test_cells_bits_round_trip(rng):
    spec = _qspec(5, 3.0, n=20)
    x = rng.standard_normal(20)
    cells = quantize_cells(x, spec)
    assert np.array_equal(bits_to_cells(cells_to_bits(cells, 5), 5), cells)


def test_cell_bounds_open_ends():
    """The end cells' bounds are open: a verified frame clamps an estimate
    into its cell's closed edges only."""
    spec = _qspec(2, 1.0)
    cells = np.array([[0, 0, 3, 3]])
    est = np.array([[-1e300, 9.0, 1e300, -9.0]])
    (out,) = refine(est, cells, spec, np.array([True]))
    assert out[0] == -1e300 and out[2] == 1e300
    assert out[1] == pytest.approx(-0.5)
    assert out[3] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# CRC
# ---------------------------------------------------------------------------

def test_crc_ccitt_reference_vector():
    bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    value = int("".join(map(str, crc16(bits)[0])), 2)
    assert value == 0x29B1


def test_crc_batch_matches_single(rng):
    frames = rng.integers(0, 2, (20, 77)).astype(np.uint8)
    batch = crc16(frames)
    for i in range(len(frames)):
        assert np.array_equal(crc16(frames[i : i + 1]), batch[i : i + 1])
        assert crc16(frames[i]).shape == (1, CRC_BITS)  # a frame is a batch of one


def _crc16_oracle(frames):
    """Bit-serial CCITT register over (T, L) frames: shift in one message
    bit per step, every frame's register at once."""
    reg = np.full(len(frames), 0xFFFF, dtype=np.int64)
    for b in frames.T.astype(np.int64):
        fb = ((reg >> 15) & 1) ^ b
        reg = ((reg << 1) & 0xFFFF) ^ np.where(fb == 1, 0x1021, 0)
    return ((reg[:, None] >> np.arange(15, -1, -1)) & 1).astype(np.uint8)


def test_crc_matches_bit_serial_register(rng):
    """Lengths off and on byte boundaries (the byte tables see a left-padded
    message), the uplink's 272 bits and the SEU frames' 1,166 and 1,182, at
    batches of 1 to 2,000 frames."""
    for batch in (1, 3, 256, 2000):
        for length in (0, 1, 7, 8, 9, 15, 16, 17, 77, 272, 1166, 1182):
            frames = rng.integers(0, 2, (batch, length)).astype(np.uint8)
            frames[:1] = 1  # every byte value 0xFF
            assert np.array_equal(crc16(frames), _crc16_oracle(frames)), (batch, length)


@given(st.integers(1, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_crc_detects_single_bit_flip(length, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    bits = rng.integers(0, 2, length).astype(np.uint8)
    pos = data.draw(st.integers(0, length - 1))
    flipped = bits.copy()
    flipped[pos] ^= 1
    assert not np.array_equal(crc16(bits), crc16(flipped))


# ---------------------------------------------------------------------------
# RSC encoder and puncturing
# ---------------------------------------------------------------------------

def _rsc_oracle(bits, d=(0, 0), tail=2):
    """Bit-by-bit reference encoder for the (1, 5/7) recursive code, written
    directly from the generator polynomials with an explicit register that
    starts in d = [D, D^2] and ends after `tail` termination steps."""
    d = list(d)
    sys_out, par_out = [], []
    for u in list(map(int, bits)) + [None] * tail:
        if u is None:
            u = d[0] ^ d[1]  # termination input
        a = (u + d[0] + d[1]) % 2       # feedback 7 = 1 + D + D^2
        p = (a + d[1]) % 2              # feedforward 5 = 1 + D^2
        sys_out.append(u)
        par_out.append(p)
        d = [a, d[0]]
    return np.array(sys_out, dtype=np.uint8), np.array(par_out, dtype=np.uint8), d


def test_all_zero_input_keeps_state_zero():
    sys_bits, parity = rsc_encode(np.zeros(40, dtype=np.uint8))
    assert not np.any(parity)
    assert not np.any(sys_bits)


def test_all_zero_info_frame_parity_prefix():
    # CRC of zero info is nonzero (init 0xFFFF), so only the parity bits at
    # info positions are guaranteed zero.
    info_len = 50
    _, (parity,) = dsc_encode(np.zeros((1, info_len), dtype=np.uint8), "R12")
    keep = puncture_keep_indices(info_len, "R12")
    info_positions = keep < info_len
    assert not np.any(parity[info_positions])
    assert np.any(parity)  # CRC region is not all-zero


def test_encoder_matches_naive_trellis_oracle(rng):
    for _ in range(20):
        bits = rng.integers(0, 2, 24).astype(np.uint8)
        (sys_bits,), (parity,) = rsc_encode(bits[None])
        o_sys, o_par, end_state = _rsc_oracle(bits)
        assert np.array_equal(sys_bits, o_sys)
        assert np.array_equal(parity, o_par)
        assert end_state == [0, 0]  # zero termination


def test_parity_length_arithmetic():
    assert parity_length(100, "R34") == 39  # round(118 / 3)
    assert parity_length(100, "R12") == 118
    assert parity_length(100, "R23") == 59
    assert parity_length(1166, "R34") == 395  # round(1184 / 3)


@pytest.mark.parametrize("pattern", ["R12", "R23", "R34"])
@pytest.mark.parametrize("enc_len", [20, 118, 274, 1184])
def test_puncture_counts_and_order(pattern, enc_len):
    keep = puncture_keep_indices(enc_len - CRC_BITS - TAIL_BITS, pattern)
    assert len(keep) == parity_length(enc_len - CRC_BITS - TAIL_BITS, pattern)
    assert np.all(np.diff(keep) > 0)
    assert keep[-1] < enc_len
    # the CRC/tail region always stays covered once the budget allows it
    if len(keep) >= CRC_BITS + TAIL_BITS:
        assert np.all(np.isin(np.arange(enc_len - 18, enc_len), keep))


def test_dsc_encode_matches_oracle_pipeline(rng):
    info = rng.integers(0, 2, 30).astype(np.uint8)
    (systematic,), (parity,) = dsc_encode(info[None], "R23")
    stream = np.concatenate([info, crc16(info[None])[0]])
    o_sys, o_par, _ = _rsc_oracle(stream)
    keep = puncture_keep_indices(30, "R23")
    assert np.array_equal(systematic, o_sys)
    assert systematic.size == 30 + CRC_BITS + TAIL_BITS
    assert np.array_equal(parity, o_par[keep])
    assert parity.size == parity_length(30, "R23")


# ---------------------------------------------------------------------------
# modem
# ---------------------------------------------------------------------------

def test_bpsk_noiseless_sign_recovery(rng):
    bits = rng.integers(0, 2, 500).astype(np.uint8)
    state = ChannelState.awgn(300.0, seed=8)
    y = transmit(modulate(bits, "bpsk", 1.0), state)
    llrs = demodulate(y, state.h, state.noise_var, "bpsk", 1.0)
    assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_qpsk_noiseless_round_trip(rng):
    bits = rng.integers(0, 2, 501).astype(np.uint8)  # odd length forces a pad
    state = ChannelState.awgn(300.0, seed=9)
    y = transmit(modulate(bits, "qpsk", 2.0), state)
    llrs = demodulate(y, state.h, state.noise_var, "qpsk", 2.0, n_bits=501)
    assert llrs.shape == (501,)
    assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_bpsk_ber_matches_q_function():
    n = 10**6
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, n).astype(np.uint8)
    state = ChannelState.awgn(0.0, seed=11)
    y = transmit(modulate(bits, "bpsk", 1.0), state)
    hard = (demodulate(y, state.h, state.noise_var, "bpsk", 1.0) < 0).astype(np.uint8)
    ber = np.mean(hard != bits)
    q = 0.5 * erfc(np.sqrt(2.0 * 1.0) / np.sqrt(2.0))  # Q(sqrt(2*SNR))
    assert q == pytest.approx(0.0786, abs=2e-4)
    assert abs(ber / q - 1.0) < 0.05


def test_qpsk_equals_bpsk_at_equal_ebn0():
    n = 10**6
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, n).astype(np.uint8)
    # one bit per use at amplitude 1 vs two bits per use at power 2: same Eb/N0
    s1 = ChannelState.awgn(0.0, seed=13)
    y1 = transmit(modulate(bits, "bpsk", 1.0), s1)
    llr1 = demodulate(y1, s1.h, s1.noise_var, "bpsk", 1.0)
    ber1 = np.mean((llr1 < 0).astype(np.uint8) != bits)
    s2 = ChannelState.awgn(0.0, seed=14)
    y2 = transmit(modulate(bits, "qpsk", np.sqrt(2.0)), s2)
    llr2 = demodulate(y2, s2.h, s2.noise_var, "qpsk", np.sqrt(2.0), n_bits=n)
    ber2 = np.mean((llr2 < 0).astype(np.uint8) != bits)
    assert abs(ber1 / ber2 - 1.0) < 0.05


def test_llrs_scale_with_channel_gain():
    state = ChannelState.for_block(10.0, "rayleigh", 15, 2)
    bits = np.array([0, 1, 0, 1], dtype=np.uint8)
    y = state.h * modulate(bits, "bpsk", 1.0)
    llrs = demodulate(y, state.h, state.noise_var, "bpsk", 1.0)
    expected = llr_clip(4.0 * np.abs(state.h) ** 2 * (1 - 2 * bits.astype(float)) / state.noise_var)
    assert np.allclose(llrs, expected)


def _words(a) -> np.ndarray:
    """The bit patterns of a float or complex array, in C order."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64) if a.ndim else a.reshape(1).view(np.uint64)


def _table_symbols(bits, scheme, amplitude):
    """Symbols looked up in a table built from modulate's mapping formula,
    as modulate once did it."""
    b = np.asarray(bits, dtype=np.uint8)
    if scheme == "bpsk":
        return (amplitude * (1.0 - 2.0 * np.array([0.0, 1.0])) + 0.0j)[b]
    if b.shape[-1] % 2:
        b = np.concatenate([b, np.zeros(b.shape[:-1] + (1,), dtype=np.uint8)], axis=-1)
    i, q = 1.0 - 2.0 * np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    return (amplitude * (i + 1j * q) / np.sqrt(2.0))[2 * b[..., 0::2] + b[..., 1::2]]


@pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
@pytest.mark.parametrize("amplitude", [1.0, 2.0, np.sqrt(2.0), 0.37, np.sqrt(320.0 / 274.0), 1e-3])
def test_modulate_writes_the_table_symbols(scheme, amplitude):
    """Every bit of every symbol equals the table look-up's, for odd and
    even lengths, one frame or a batch, and bits in any memory order (a
    column selection of a parity array is column-major); the symbols are
    C-ordered."""
    rng = np.random.default_rng(int(amplitude * 1000))
    for shape in [(1,), (7,), (8,), (5, 9), (6, 10)]:
        bits = rng.integers(0, 2, shape).astype(np.uint8)
        for b in (bits, np.asfortranarray(bits), bits[..., ::-1], bits.astype(bool)):
            got = modulate(b, scheme, amplitude)
            assert got.flags.c_contiguous
            assert np.array_equal(_words(got), _words(_table_symbols(b, scheme, amplitude)))


def _scattered_llrs(received, h, noise_var, scheme, amplitude=1.0, n_bits=None):
    """demodulate as it once was: the matched filter's real and imaginary
    parts scaled into a second buffer, bit by bit."""
    y = np.asarray(received, dtype=np.complex128)
    matched = np.conj(h) * y
    bps = 1 if scheme == "bpsk" else 2
    llrs = np.empty(y.shape[:-1] + (bps * y.shape[-1],))
    if scheme == "bpsk":
        np.multiply(matched.real, 4.0 * amplitude, out=llrs)
        llrs /= noise_var
    else:
        scale = 4.0 * (amplitude / np.sqrt(2.0)) / noise_var
        np.multiply(matched.real, scale, out=llrs[..., 0::2])
        np.multiply(matched.imag, scale, out=llrs[..., 1::2])
    if n_bits is not None:
        llrs = llrs[..., :n_bits]
    return np.clip(llrs, -LLR_CLIP, LLR_CLIP, out=llrs)


@pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
def test_llrs_in_the_matched_filter_buffer_equal_the_scattered_ones(scheme):
    """demodulate's LLRs, scaled in place in its conj(h) y buffer, keep every
    bit of the LLRs scattered into a second buffer: per-row and scalar
    gains, column-major input, trimmed and untrimmed, clipped or not. It
    writes into none of its arguments, and matched_llrs on a matched-filter
    buffer gives the same LLRs as a view of that buffer."""
    rng = np.random.default_rng(0xD3)
    y = rng.normal(0.0, 3.0, (9, 13)) + 1j * rng.normal(0.0, 3.0, (9, 13))
    y[:, ::4] *= 50.0  # past the clip
    gains = rng.normal(size=(9, 1)) + 1j * rng.normal(size=(9, 1))
    for received in (y, np.asfortranarray(y), y[0]):
        for h in (gains[: len(received)] if received.ndim == 2 else gains[0], gains[0, 0]):
            for n_bits in (None, received.shape[-1] - 1 if scheme == "bpsk" else 25):
                for amplitude, noise_var in ((1.0, 0.1), (np.sqrt(320.0 / 274.0), 0.031)):
                    before = [_words(a).tobytes() for a in (received, h)]
                    got = demodulate(received, h, noise_var, scheme, amplitude, n_bits)
                    assert [_words(a).tobytes() for a in (received, h)] == before
                    want = _scattered_llrs(received, h, noise_var, scheme, amplitude, n_bits)
                    assert np.array_equal(_words(got), _words(want))
                    matched = np.multiply(np.conj(h), received, order="C")
                    own = matched_llrs(matched, noise_var, scheme, amplitude, n_bits)
                    assert np.shares_memory(own, matched)
                    assert np.array_equal(_words(own), _words(want))


# ---------------------------------------------------------------------------
# side-information LLRs
# ---------------------------------------------------------------------------

def test_side_llrs_sharp_estimate_pins_cell_pattern():
    spec = _qspec(3, 1.0)
    cell = 5
    mid = dequantize_cells(np.array([cell]), spec)[0]
    llrs = side_info_llrs(np.array([mid]), np.array([1e-18]), spec)
    pattern = cells_to_bits(np.array([cell]), 3).astype(float)
    assert np.array_equal(np.abs(llrs), np.full(3, LLR_CLIP))
    assert np.array_equal((llrs < 0).astype(float), pattern)


def test_side_llr_symmetric_zero():
    spec = _qspec(1, 1.0)
    for err in (0.01, 0.5, 4.0):
        llr = side_info_llrs(np.array([0.0]), np.array([err]), spec)
        assert abs(llr[0]) < 1e-12


def _side_llr_quadrature_oracle(est, err_var, spec):
    """Adaptive quadrature of the Gaussian belief over each quantizer cell."""
    bits = spec.bits
    levels = 1 << bits
    sigma = np.sqrt(err_var)
    edges = [-np.inf] + [
        -spec.clips[0] + j * spec.deltas[0] for j in range(1, levels)
    ] + [np.inf]
    probs = []
    for j in range(levels):
        lo = max(edges[j], est - 40 * sigma)
        hi = min(edges[j + 1], est + 40 * sigma)
        if lo >= hi:
            probs.append(0.0)
            continue
        val, _ = quad(lambda t: norm.pdf(t, est, sigma), lo, hi, limit=200)
        probs.append(val)
    out = []
    for b in range(bits):
        p0 = sum(p for j, p in enumerate(probs) if not (j >> (bits - 1 - b)) & 1)
        p1 = sum(p for j, p in enumerate(probs) if (j >> (bits - 1 - b)) & 1)
        with np.errstate(divide="ignore"):
            out.append(np.clip(np.log(p0) - np.log(p1), -LLR_CLIP, LLR_CLIP))
    return np.array(out)


def test_side_llrs_match_quadrature_oracle():
    rng = np.random.default_rng(16)
    spec = _qspec(2, 1.5)
    for _ in range(100):
        est = rng.uniform(-2.0, 2.0)
        err = rng.uniform(0.05, 2.0)
        got = side_info_llrs(np.array([est]), np.array([err]), spec)
        want = _side_llr_quadrature_oracle(est, err, spec)
        assert np.max(np.abs(got - want)) < 1e-6


def _side_llrs_every_column(est, err_var, spec):
    """side_info_llrs as it was: every coefficient of every row computed,
    constant columns included."""
    mu = np.asarray(est, dtype=np.float64)
    sigma = np.sqrt(np.maximum(np.asarray(err_var, dtype=np.float64), 1e-300))
    levels = spec.levels
    edges = -spec.clips[..., None] + np.arange(1, levels) * spec.deltas[..., None]
    cdf = ndtr((edges - mu[..., None]) / sigma[..., None])
    probs = np.empty(mu.shape + (levels,))
    probs[..., 0] = cdf[..., 0]
    probs[..., 1:-1] = np.diff(cdf, axis=-1)
    probs[..., -1] = 1.0 - cdf[..., -1]
    cell_bits = cells_to_bits(np.arange(levels)[:, None], spec.bits).astype(bool)
    with np.errstate(divide="ignore"):
        llrs = np.log(probs @ ~cell_bits) - np.log(probs @ cell_bits)
    llrs = llr_clip(np.nan_to_num(llrs, nan=0.0, posinf=LLR_CLIP, neginf=-LLR_CLIP))
    return llrs.reshape(*mu.shape[:-1], mu.shape[-1] * spec.bits)


def _beliefs(rng, rows, n, constant):
    """Beliefs whose columns in `constant` are the same in every row. Some
    columns carry a sharp variance, some an estimate far outside the clip,
    and some one estimate in every row with a variance that differs."""
    est = rng.normal(0.0, 1.5, (rows, n))
    err = rng.uniform(1e-4, 2.0, (rows, n))
    err[:, ::7] = 1e-18
    est[:, 3::11] = 40.0
    est[:, 5::11] = 0.3
    est[:, constant] = est[0, constant]
    err[:, constant] = err[0, constant]
    return est, err


@pytest.mark.parametrize("bits", [1, 4, 8])
@pytest.mark.parametrize("constant", ["none", "some", "all"])
@pytest.mark.parametrize("rows", [1, 300])
def test_side_llrs_equal_every_column_and_row_by_row(bits, constant, rows):
    """Constant columns are computed once; the LLRs keep every bit of the
    all-column form and of a call per row, and a 1-D input is one row."""
    rng = np.random.default_rng(bits * 100 + rows)
    n = 24
    cols = {"none": np.zeros(n, bool), "some": np.arange(n) % 3 == 1, "all": np.ones(n, bool)}
    est, err = _beliefs(rng, rows, n, cols[constant])
    if constant == "none" and rows > 1:
        err[:, 0] = err[0, 0]
        est[1:, 0] = np.nextafter(est[0, 0], np.inf)  # differs by one ulp only
    spec = QuantizerSpec.from_prior_vars(rng.uniform(0.1, 3.0, n), bits)
    got = side_info_llrs(est, err, spec)
    assert got.shape == (rows, n * bits)
    assert np.array_equal(got.view(np.uint64), _side_llrs_every_column(est, err, spec).view(np.uint64))
    for row, e, v in zip(got, est, err):
        assert np.array_equal(row.view(np.uint64), side_info_llrs(e, v, spec).view(np.uint64))


# ---------------------------------------------------------------------------
# Viterbi and DSC decoding
# ---------------------------------------------------------------------------

def _pad(side):
    """Info-position LLRs with zero evidence on the CRC and tail positions."""
    return np.concatenate([side, np.zeros(side.shape[:-1] + (CRC_BITS + TAIL_BITS,))], axis=-1)


def test_noiseless_decode_with_strong_side(rng):
    for pattern in ("R12", "R23", "R34"):
        info = rng.integers(0, 2, 120).astype(np.uint8)
        systematic, parity = dsc_encode(info, pattern)  # a batch of one
        side = llr_clip((1.0 - 2.0 * info) * LLR_CLIP)
        par = (1.0 - 2.0 * parity) * LLR_CLIP
        bits, ok = dsc_decode(_pad(side), par, pattern)
        assert ok.shape == (1,) and ok[0] and np.array_equal(bits, info[None])
        # systematic evidence on every encoded position decodes the same
        bits, ok = dsc_decode((1.0 - 2.0 * systematic) * LLR_CLIP, par, pattern)
        assert ok[0] and np.array_equal(bits, info[None])


def _ml_oracle(sys_llrs, par_llrs_full, k):
    """Exhaustive max-correlation search over all 2^k terminated inputs."""
    words = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    sys_bits, par_bits = rsc_encode(words)
    metric = (1.0 - 2.0 * sys_bits) @ sys_llrs + (1.0 - 2.0 * par_bits) @ par_llrs_full
    return words[int(np.argmax(metric))]


@pytest.mark.parametrize("k", [4, 8, 12])
def test_viterbi_equals_brute_force_ml(k):
    rng = np.random.default_rng(100 + k)
    length = k + TAIL_BITS
    mismatches = 0
    for _ in range(50):
        sys_llrs = rng.normal(0.0, 4.0, length)
        par_llrs = rng.normal(0.0, 4.0, length)
        # puncture some parity positions to zero as the decoder would see
        par_llrs[rng.random(length) < 0.4] = 0.0
        decided = viterbi_decode(sys_llrs, par_llrs)
        best = _ml_oracle(sys_llrs, par_llrs, k)
        if not np.array_equal(decided[0, :k], best):
            mismatches += 1
    assert mismatches == 0


def _viterbi_reference(sys_llrs, par_llrs):
    """Bit-by-bit Viterbi over the (1, 5/7) trellis, written from the
    generator polynomials with registers (D, D^2) as states. The next state
    (a, D) has the predecessors (D, 0) and (D, 1); the lower one, D^2 = 0,
    survives unless the other's metric is strictly larger. The last two
    steps admit register input a = 0 only."""
    length = len(sys_llrs)
    states = [(d1, d2) for d1 in (0, 1) for d2 in (0, 1)]
    metric = {s: (0.0 if s == (0, 0) else -np.inf) for s in states}
    history = []
    for t in range(length):
        new, back = {}, {}
        for a in (0,) if t >= length - 2 else (0, 1):
            for d1 in (0, 1):
                best = None
                for d2 in (0, 1):
                    u = a ^ d1 ^ d2           # feedback 7 = 1 + D + D^2
                    p = a ^ d2                # feedforward 5 = 1 + D^2
                    m = metric[(d1, d2)] + (1 - 2 * u) * sys_llrs[t] + (1 - 2 * p) * par_llrs[t]
                    if best is None or m > best[0]:
                        best = (m, (d1, d2), u)
                new[(a, d1)] = best[0]
                back[(a, d1)] = best[1:]
        metric = {s: new.get(s, -np.inf) for s in states}
        history.append(back)
    state, bits = (0, 0), []
    for back in reversed(history):
        state, u = back[state]
        bits.append(u)
    return np.array(bits[::-1], dtype=np.uint8)


def _viterbi_per_step(sys_llrs, par_llrs):
    """viterbi_decode as it was: each step multiplies +-1 sign tables into
    new candidate arrays, and the traceback indexes the decisions per state."""
    branch_u, branch_p = _branches(UPLINK)
    half = branch_u.shape[1]
    sign_u = (1.0 - 2.0 * branch_u)[..., None]
    sign_p = (1.0 - 2.0 * branch_p)[..., None]
    batch, length = sys_llrs.shape
    pm = np.full((2 * half, batch), _NEG_METRIC)
    pm[0] = 0.0
    decisions = np.empty((length, 2 * half, batch), dtype=np.uint8)
    for t, (s_llr, p_llr) in enumerate(zip(sys_llrs.T, par_llrs.T)):
        cand = pm.reshape(2, half, 1, batch) + sign_u * s_llr
        cand += sign_p * p_llr
        np.greater(cand[1], cand[0], out=decisions[t].reshape(half, 2, batch))
        pm = np.maximum(cand[0], cand[1]).reshape(2 * half, batch)
        if t >= length - TAIL_BITS:
            pm[1::2] = _NEG_METRIC
    bits = np.empty((length, batch), dtype=np.uint8)
    state = np.zeros(batch, dtype=np.int64)
    cols = np.arange(batch)
    for t in range(length - 1, -1, -1):
        b = decisions[t, state, cols]
        r = state >> 1
        bits[t] = branch_u[b, r, state & 1]
        state = half * b + r
    return bits.T


_LLR_KINDS = ("gaussian", "integer", "clipped", "halves")


@pytest.mark.parametrize("llrs", _LLR_KINDS)
@pytest.mark.parametrize("shape", [(1, 274), (2000, 274)], ids=["frame", "batch"])
def test_viterbi_equals_per_step_oracle(llrs, shape):
    """The in-place step keeps the per-step form's decisions bit for bit,
    ties and punctured (zero) parity included."""
    rng = np.random.default_rng([_LLR_KINDS.index(llrs), shape[0]])
    if llrs == "gaussian":
        sys_l, par_l = rng.normal(0.0, 4.0, (2,) + shape)
    elif llrs == "integer":
        sys_l, par_l = rng.integers(-3, 4, (2,) + shape).astype(np.float64)
    elif llrs == "clipped":
        sys_l, par_l = llr_clip(rng.normal(0.0, 25.0, (2,) + shape))
    else:  # rounded to 0.5, so that many candidates tie
        sys_l, par_l = np.round(rng.normal(0.0, 2.0, (2,) + shape) * 2.0) / 2.0
    par_l[:, rng.random(shape[1]) < 0.5] = 0.0
    assert np.array_equal(viterbi_decode(sys_l, par_l), _viterbi_per_step(sys_l, par_l))


def test_viterbi_ties_match_reference():
    """Integer-valued LLRs, and LLRs rounded to 0.5, make many candidates
    exactly equal; the decoder breaks every tie as the reference does."""
    rng = np.random.default_rng(41)
    for step in [1.0] * 40 + [0.5] * 40:
        shape = (6, int(rng.integers(TAIL_BITS, 30)))
        sys_llrs = rng.integers(-3, 4, shape) * step
        par_llrs = rng.integers(-3, 4, shape) * step
        clipped = rng.random(shape) < 0.1
        sys_llrs[clipped] = LLR_CLIP * np.sign(rng.standard_normal(clipped.sum()))
        par_llrs[rng.random(shape) < 0.1] = -LLR_CLIP
        par_llrs[rng.random(shape) < 0.4] = 0.0  # punctured
        decided = viterbi_decode(sys_llrs, par_llrs)
        for row, s, p in zip(decided, sys_llrs, par_llrs):
            assert np.array_equal(row, _viterbi_reference(s, p))
    zeros = np.zeros((3, 20))
    assert not np.any(viterbi_decode(zeros, zeros))


def test_batch_decode_matches_single(rng):
    pattern = "R23"
    infos = rng.integers(0, 2, (8, 40)).astype(np.uint8)
    _, parity = dsc_encode(infos, pattern)
    sides = llr_clip((1.0 - 2.0 * infos) * 3.0 + rng.normal(0, 1, infos.shape))
    pars = (1.0 - 2.0 * parity) * 2.5 + rng.normal(0, 1, parity.shape)
    sides = _pad(sides)
    batch_bits, batch_ok = dsc_decode(sides, pars, pattern)
    for i in range(8):
        bits, ok = dsc_decode(sides[i : i + 1], pars[i : i + 1], pattern)
        assert np.array_equal(bits, batch_bits[i : i + 1])
        assert np.array_equal(ok, batch_ok[i : i + 1])


def test_round_trip_wire_contract(rng):
    """Perfect channel + certain side info reproduces the info bits, and the
    only bits on the wire are exactly the punctured parity."""
    pattern = "R34"
    infos = rng.integers(0, 2, (1000, 64)).astype(np.uint8)
    _, parity = dsc_encode(infos, pattern)
    assert parity.shape == (1000, parity_length(64, pattern))
    sides = llr_clip((1.0 - 2.0 * infos) * LLR_CLIP)
    pars = (1.0 - 2.0 * parity) * LLR_CLIP
    bits, ok = dsc_decode(_pad(sides), pars, pattern)
    assert np.all(ok)
    assert np.array_equal(bits, infos)


def test_side_flip_correction_rate():
    """2% flipped side bits, full-rate parity over a 6 dB AWGN link."""
    pattern = "R12"
    rng = np.random.default_rng(17)
    n_trials, n_bits = 1000, 200
    mag = np.log(0.98 / 0.02)
    infos = np.empty((n_trials, n_bits), dtype=np.uint8)
    flips = np.empty((n_trials, n_bits), dtype=bool)
    for t in range(n_trials):  # per trial, its info bits and then its flips
        infos[t] = rng.integers(0, 2, n_bits)
        flips[t] = rng.random(n_bits) < 0.02
    _, parity = dsc_encode(infos, pattern)
    pars = []
    for t, frame in enumerate(parity):
        state = ChannelState.awgn(6.0, seed=1717, block_index=t)
        y = transmit(modulate(frame, "bpsk", 1.0), state)
        pars.append(demodulate(y, state.h, state.noise_var, "bpsk", 1.0, n_bits=frame.size))
    sides = (1.0 - 2.0 * (infos ^ flips.astype(np.uint8))) * mag
    bits, ok = dsc_decode(_pad(llr_clip(sides)), np.stack(pars), pattern)
    ok_count = int(np.sum(ok & np.all(bits == infos, axis=1)))
    assert ok_count / n_trials >= 0.99


def test_decode_success_monotone_in_snr():
    pattern = "R23"
    rng = np.random.default_rng(18)
    grid = list(range(0, 18, 2))
    rates, ses = [], []
    trials, n_bits = 400, 96
    mag = np.log(0.95 / 0.05)
    for i, snr in enumerate(grid):
        infos = rng.integers(0, 2, (trials, n_bits)).astype(np.uint8)
        _, parity = dsc_encode(infos, pattern)
        oks = 0
        llr_rows = []
        for t in range(trials):
            state = ChannelState.awgn(float(snr), seed=2000 + i, block_index=t)
            y = transmit(modulate(parity[t], "bpsk", 1.0), state)
            llr_rows.append(
                demodulate(y, state.h, state.noise_var, "bpsk", 1.0, n_bits=parity.shape[1])
            )
        flips = rng.random((trials, n_bits)) < 0.05
        sides = llr_clip((1.0 - 2.0 * (infos ^ flips.astype(np.uint8))) * mag)
        bits, ok = dsc_decode(_pad(sides), np.stack(llr_rows), pattern)
        ok &= np.all(bits == infos, axis=1)
        p = np.mean(ok)
        rates.append(p)
        ses.append(np.sqrt(max(p * (1 - p), 1e-9) / trials))
    for i in range(len(grid) - 1):
        # allow overlap of two-sided 99% binomial intervals
        assert rates[i + 1] >= rates[i] - 2.58 * (ses[i] + ses[i + 1])


def test_dsc_decode_rejects_wrong_parity_count():
    pattern = "R34"
    # 100 encoded-position LLRs (82 info bits) need round(100 / 3) = 33
    dsc_decode(np.zeros(100), np.zeros(33), pattern)
    for count in (32, 34, 39):
        with pytest.raises(ParameterError):
            dsc_decode(np.zeros(100), np.zeros(count), pattern)
    with pytest.raises(ParameterError):
        dsc_decode(np.zeros(10), np.zeros(3), pattern)  # shorter than CRC + tail


@pytest.mark.parametrize(
    "entry", ["dsc_encode", "turbo_encode", "seu_update_ints", "digital_uses", "build_link"]
)
def test_unknown_pattern_raises_parameter_error(entry):
    """Every entry point that takes a pattern id rejects an unknown one with
    ParameterError, through the one check in parity_length."""
    bits = np.zeros((1, 8), dtype=np.uint8)
    ints = np.zeros(4, dtype=np.int64)
    calls = {
        "dsc_encode": lambda: dsc_encode(bits, "R99"),
        "turbo_encode": lambda: turbo_encode(bits, "R99"),
        "seu_update_ints": lambda: seu_update_ints(
            ints, ints, 4, "R99", ChannelState.awgn(10.0), 0.01
        ),
        "digital_uses": lambda: digital_uses(64, 4, "R99", "qpsk"),
        "build_link": lambda: build_link(ExperimentConfig(pattern="R99")),
    }
    with pytest.raises(ParameterError, match="R99"):
        calls[entry]()


# ---------------------------------------------------------------------------
# turbo code for model updates
# ---------------------------------------------------------------------------

def _rsc16_oracle(bits, d=(0, 0, 0, 0), tail=4):
    """Bit-by-bit reference encoder for the (1, 35/23) recursive code, written
    directly from the generator polynomials with an explicit register that
    starts in d = [D, D^2, D^3, D^4] and ends after `tail` termination steps."""
    d = list(d)
    sys_out, par_out = [], []
    for u in list(map(int, bits)) + [None] * tail:
        if u is None:
            u = d[2] ^ d[3]  # termination input
        a = (u + d[2] + d[3]) % 2             # feedback 23 = 1 + D^3 + D^4
        sys_out.append(u)
        par_out.append((a + d[0] + d[1] + d[3]) % 2)  # 35 = 1 + D + D^2 + D^4
        d = [a] + d[:3]
    return np.array(sys_out, dtype=np.uint8), np.array(par_out, dtype=np.uint8), d


def test_rsc16_matches_naive_register_oracle(rng):
    bits = rng.integers(0, 2, (20, 30)).astype(np.uint8)
    sys_bits, parity = _rsc_encode(bits, TURBO)
    for row, got_sys, got_par in zip(bits, sys_bits, parity):
        want_sys, want_par, end_state = _rsc16_oracle(row)
        assert np.array_equal(got_sys, want_sys)
        assert np.array_equal(got_par, want_par)
        assert end_state == [0, 0, 0, 0]  # zero termination


def _rsc_step_loop(bits, code):
    """The RSC recursion step by step: a_t = u_t ^ a_{t-d} over the feedback
    delays, min(feedback) time steps per array operation, then `memory` zero
    register inputs. Returns (input bits, parity bits), each (T, L + memory)."""
    memory, feedback, forward = code
    length = bits.shape[1]
    a = np.zeros((length + 2 * memory, bits.shape[0]), dtype=np.uint8)  # time first
    a[memory : length + memory] = bits.T
    fill = min(feedback)
    for j in range(memory, length + memory, fill):
        stop = min(j + fill, length + memory)
        for d in feedback:
            a[j:stop] ^= a[j - d : stop - d]
    out = []
    for delays in (feedback, forward):
        taps = a[memory:].copy()
        for d in delays:
            taps ^= a[memory - d : len(a) - d]
        out.append(taps.T)
    return out


@pytest.mark.parametrize("code", [UPLINK, TURBO], ids=["uplink", "turbo"])
@pytest.mark.parametrize("batch", [1, 3, 2000])
def test_closed_form_encoder_equals_the_step_loop(code, batch):
    """Bit for bit, at every length up to three periods of the feedback's
    impulse response plus one (3 for UPLINK, 15 for TURBO), and at 1,182."""
    period = {UPLINK: 3, TURBO: 15}[code]
    assert digital._feedback_inverse(code[1])[0] == period
    rng = np.random.default_rng(batch)
    for length in [*range(3 * period + 2), 1182]:
        bits = rng.integers(0, 2, (batch, length)).astype(np.uint8)
        got = _rsc_encode(bits, code)
        for got_bits, want_bits in zip(got, _rsc_step_loop(bits, code)):
            assert got_bits.dtype == np.uint8 and got_bits.shape == (batch, length + code[0])
            assert np.array_equal(got_bits, want_bits), length


@pytest.mark.parametrize(
    "pattern, oracle", [(UPLINK, _rsc_oracle), (TURBO, _rsc16_oracle)], ids=["uplink", "turbo"]
)
def test_branch_tables_match_register_oracles(pattern, oracle):
    """Branch (b, r, a) leaves state half*b + r (a_{t-1} in bit 0) with the
    input bit and parity bit of one register step, and lands in 2r + a."""
    memory = pattern[0]
    half = 1 << (memory - 1)
    branch_u, branch_p = _branches(pattern)
    assert branch_u.shape == branch_p.shape == (2, half, 2)
    for b in (0, 1):
        for r in range(half):
            register = [((half * b + r) >> k) & 1 for k in range(memory)]
            for a in (0, 1):
                (u,), (p,), after = oracle([branch_u[b, r, a]], register, tail=0)
                assert u == branch_u[b, r, a] and p == branch_p[b, r, a]
                assert sum(bit << k for k, bit in enumerate(after)) == 2 * r + a


def _rsc16_ml_oracle(input_llrs, parity_llrs, k):
    """Exhaustive max-correlation search over all 2^k terminated inputs."""
    words = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    parity = _rsc_encode(words, TURBO)[1]
    metric = (1.0 - 2.0 * words) @ input_llrs + (1.0 - 2.0 * parity) @ parity_llrs
    return words[int(np.argmax(metric))]


@pytest.mark.parametrize("k", [4, 8, 12])
def test_max_log_map_equals_brute_force_ml(k):
    """Max-log-MAP's hard decisions are the ML sequence's bits."""
    rng = np.random.default_rng(300 + k)
    mismatches = 0
    for _ in range(50):
        input_llrs = rng.normal(0.0, 4.0, (1, k))
        parity_llrs = rng.normal(0.0, 4.0, (1, k + 4))
        parity_llrs[rng.random(parity_llrs.shape) < 0.4] = 0.0
        decided = (max_log_map(input_llrs, parity_llrs)[0] < 0).astype(np.uint8)
        if not np.array_equal(decided, _rsc16_ml_oracle(input_llrs[0], parity_llrs[0], k)):
            mismatches += 1
    assert mismatches == 0


def _max_log_map_two_loops(input_llrs, parity_llrs):
    """Reference max-log BCJR for equal-length frames: the forward recursion
    in one loop, then the backward recursion in a second, both in natural
    time and state order, with float32 metrics."""
    batch, n = input_llrs.shape
    length = n + TURBO_TAIL_BITS
    branch_u, branch_p = _branches(TURBO)
    half = branch_u.shape[1]
    lu = np.zeros((length, batch), dtype=np.float32)
    lu[:n] = input_llrs.T
    half_u = (0.5 - branch_u[..., None]).astype(np.float32)
    half_p = (0.5 - branch_p[..., None]).astype(np.float32)
    g = lu[:, None, None, None, :] * half_u
    g += parity_llrs.T[:, None, None, None, :].astype(np.float32) * half_p
    g[n:, :, :, 1] = _NEG_METRIC

    # alpha[t + 1][2r + a] = max over b of alpha[t][half*b + r] + g[t][b, r, a]
    alpha = np.full((length + 1, 2 * half, batch), _NEG_METRIC, dtype=np.float32)
    alpha[0, 0] = 0.0
    a_in = alpha.reshape(length + 1, 2, half, 1, batch)
    a_out = alpha.reshape(length + 1, half, 2, batch)
    for a_t, g_t, a_next in zip(a_in, g, a_out[1:]):
        c = a_t + g_t
        np.maximum(c[0], c[1], out=a_next)
    # beta[t][half*b + r] = max over a of g[t][b, r, a] + beta[t + 1][2r + a]
    beta = np.full((length + 1, 2 * half, batch), _NEG_METRIC, dtype=np.float32)
    beta[length, 0] = 0.0
    b_in = beta.reshape(length + 1, 1, half, 2, batch)
    b_out = beta.reshape(length + 1, 2, half, batch)
    for g_t, b_next, b_t in zip(g[::-1], b_in[:0:-1], b_out[-2::-1]):
        c = g_t + b_next
        np.maximum(c[:, :, 0], c[:, :, 1], out=b_t)

    paths = g[:n]
    paths += a_in[:n]
    paths += b_in[1 : n + 1]
    llrs = paths[:, branch_u == 0].max(axis=1) - paths[:, branch_u == 1].max(axis=1)
    return llrs.T.astype(np.float64)


def _mlm_inputs(rng, batch, n):
    """Turbo-like evidence: clipped input LLRs, a third of the parity
    punctured, and some large values so that near-ties and saturated
    metrics both occur."""
    input_llrs = llr_clip(rng.normal(0.0, 6.0, (batch, n)))
    parity_llrs = rng.normal(0.0, 3.0, (batch, n + TURBO_TAIL_BITS))
    parity_llrs[rng.random(parity_llrs.shape) < 0.33] = 0.0
    return input_llrs, parity_llrs


@pytest.mark.parametrize("batch", [1, 3, 48])
@pytest.mark.parametrize("n", [1, 30, 614, 1182])
def test_max_log_map_equals_two_loop_oracle(batch, n):
    """The single stacked recursion gives the two-loop LLRs bit for bit."""
    rng = np.random.default_rng(batch * 10_000 + n)
    input_llrs, parity_llrs = _mlm_inputs(rng, batch, n)
    assert np.array_equal(
        max_log_map(input_llrs, parity_llrs), _max_log_map_two_loops(input_llrs, parity_llrs)
    )


@pytest.mark.parametrize("batch", [3, 48])
@pytest.mark.parametrize("n", [30, 614, 1182])
def test_max_log_map_ragged_frames_equal_frames_alone(batch, n):
    """A frame padded past its input count gives its LLRs alone up to the
    count and exactly 0 after; pad evidence is ignored."""
    rng = np.random.default_rng(batch + n)
    counts = rng.integers(1, n + 1, batch)
    counts[0] = n
    input_llrs, parity_llrs = _mlm_inputs(rng, batch, n)
    for i, count in enumerate(counts):
        parity_llrs[i, count + TURBO_TAIL_BITS :] = 0.0
    # evidence on pad input positions must not leak in
    input_llrs[np.arange(n) >= counts[:, None]] = 25.0
    got = max_log_map(input_llrs, parity_llrs, counts)
    for i, count in enumerate(counts):
        alone = _max_log_map_two_loops(
            input_llrs[i : i + 1, :count], parity_llrs[i : i + 1, : count + TURBO_TAIL_BITS]
        )
        assert np.array_equal(got[i, :count], alone[0])
        assert np.all(got[i, count:] == 0.0)


@pytest.mark.parametrize("pattern", ["R12", "R23", "R34"])
@pytest.mark.parametrize("info_len", [1, 4, 30, 1166])
def test_turbo_puncture_budget(pattern, info_len):
    keep1, keep2 = turbo_keep_indices(info_len, pattern)
    budget = parity_length(info_len, pattern)
    assert (len(keep1), len(keep2)) == (budget - budget // 2, budget // 2)
    length = info_len + CRC_BITS + 4
    for keep, protected in ((keep1, CRC_BITS + 4), (keep2, 4)):
        assert np.all(np.diff(keep) > 0) and keep[-1] < length
        if len(keep) >= protected:
            assert np.all(np.isin(np.arange(length - protected, length), keep))
    assert turbo_encode(np.zeros(info_len, dtype=np.uint8), pattern).size == budget


def test_turbo_noiseless_round_trip(rng):
    for pattern in ("R12", "R23", "R34"):
        infos = rng.integers(0, 2, (4, 300)).astype(np.uint8)
        parity = turbo_encode(infos, pattern)
        side = llr_clip((1.0 - 2.0 * infos) * 4.0)
        bits, ok = turbo_decode(side, (1.0 - 2.0 * parity) * LLR_CLIP, pattern)
        assert np.all(ok) and np.array_equal(bits, infos)


def test_turbo_batch_matches_single(rng):
    infos = rng.integers(0, 2, (6, 200)).astype(np.uint8)
    parity = turbo_encode(infos, "R34")
    flips = (rng.random(infos.shape) < 0.03).astype(np.uint8)
    sides = (1.0 - 2.0 * (infos ^ flips)) * np.log(0.97 / 0.03)
    pars = (1.0 - 2.0 * parity) * 2.0 + rng.normal(0, 1.5, parity.shape)
    batch_bits, batch_ok = turbo_decode(sides, pars, "R34")
    for i in range(6):
        bits, ok = turbo_decode(sides[i : i + 1], pars[i : i + 1], "R34")
        assert np.array_equal(bits, batch_bits[i : i + 1])
        assert np.array_equal(ok, batch_ok[i : i + 1])


def test_turbo_frames_of_unequal_length_decode_as_alone():
    """One batch of 1,166- and 598-bit frames (and a 2-bit one) gives each
    frame's bits and flag from decoding it alone. The long frames verify at
    different iterations and the short ones never do, so the batch narrows
    to the short frames' width for its last iterations."""
    rng = np.random.default_rng(0x7A6)
    lengths = (1166, 598, 1166, 598, 2, 1166)
    flip_rates = (0.01, 0.04, 0.03, 0.3, 0.0, 0.02)
    sides, pars = [], []
    for length, flip in zip(lengths, flip_rates):
        info = rng.integers(0, 2, (1, length)).astype(np.uint8)
        parity = turbo_encode(info, "R34")[0]
        flips = (rng.random(length) < flip).astype(np.uint8)
        sides.append((1.0 - 2.0 * (info[0] ^ flips)) * np.log(0.95 / 0.05))
        pars.append((1.0 - 2.0 * parity) * 2.0 + rng.normal(0, 1.0, parity.shape))
    bits, ok = turbo_decode(sides, pars, "R34")
    assert bits.shape == (len(lengths), max(lengths))
    assert ok.tolist() == [length == 1166 for length in lengths]
    for i, length in enumerate(lengths):
        alone_bits, alone_ok = turbo_decode(sides[i], pars[i], "R34")
        assert np.array_equal(bits[i, :length], alone_bits[0])
        assert not bits[i, length:].any()
        assert ok[i] == alone_ok[0]


def _noisy_turbo_frames(rng, lengths, flip_rates):
    """R34 side and parity LLRs of random frames: side bits flipped at each
    frame's rate, parity LLRs with Gaussian noise."""
    sides, pars = [], []
    for length, flip in zip(lengths, flip_rates):
        info = rng.integers(0, 2, (1, length)).astype(np.uint8)
        parity = turbo_encode(info, "R34")[0]
        flips = (rng.random(length) < flip).astype(np.uint8)
        sides.append((1.0 - 2.0 * (info[0] ^ flips)) * np.log(0.95 / 0.05))
        pars.append((1.0 - 2.0 * parity) * 2.0 + rng.normal(0, 1.0, parity.shape))
    return sides, pars


def test_workspace_reuse_leaves_no_trace():
    """Decoding B, of another batch and width, between two decodes of A
    gives A's fresh results bit for bit: through one workspace, through
    max_log_map and through turbo_decode."""
    rng = np.random.default_rng(0x5EED)
    a = _mlm_inputs(rng, 5, 900)
    b = _mlm_inputs(rng, 2, 300)
    fresh_a, fresh_b = max_log_map(*a), max_log_map(*b)
    work = _Workspace(5, 900)
    for inputs, fresh in ((a, fresh_a), (b, fresh_b), (a, fresh_a)):
        counts = np.full(len(inputs[0]), inputs[0].shape[1])
        assert np.array_equal(max_log_map(*inputs, counts, work=work), fresh)
        assert np.array_equal(max_log_map(*inputs), fresh)

    frames_a = _noisy_turbo_frames(rng, (1166, 1166, 598), (0.03, 0.05, 0.02))
    frames_b = _noisy_turbo_frames(rng, (40,), (0.1,))
    fresh = [turbo_decode(*frames, "R34") for frames in (frames_a, frames_b)]
    for frames, (bits, ok) in ((frames_a, fresh[0]), (frames_b, fresh[1]), (frames_a, fresh[0])):
        got_bits, got_ok = turbo_decode(*frames, "R34")
        assert np.array_equal(got_bits, bits) and np.array_equal(got_ok, ok)


def test_turbo_frames_stopping_at_different_iterations_decode_as_alone(monkeypatch):
    """Frames that verify at different iterations, and one that never does,
    shrink the batch and the width of later kernel calls, which then run on
    a smaller prefix of the call's workspace. Each frame still gets the bits
    and flag of its lone decode."""
    shapes = []
    kernel = digital.max_log_map

    def recorded(input_llrs, parity_llrs, counts, *, work):
        shapes.append(input_llrs.shape)
        return kernel(input_llrs, parity_llrs, counts, work=work)

    monkeypatch.setattr(digital, "max_log_map", recorded)
    lengths = (1166, 598, 1166, 300, 1166)
    sides, pars = _noisy_turbo_frames(
        np.random.default_rng(0x21), lengths, (0.0, 0.06, 0.03, 0.3, 0.02)
    )
    bits, ok = turbo_decode(sides, pars, "R34")
    batches = [batch for batch, _ in shapes]
    widths = [width for _, width in shapes]
    assert batches[0] == len(lengths) and len(set(batches)) >= 3
    assert ok.tolist() == [True, False, True, False, True]
    assert widths[0] == max(lengths) + CRC_BITS and widths[-1] < widths[0]
    assert batches == sorted(batches, reverse=True) and widths == sorted(widths, reverse=True)
    for i, length in enumerate(lengths):
        alone_bits, alone_ok = turbo_decode(sides[i], pars[i], "R34")
        assert np.array_equal(bits[i, :length], alone_bits[0])
        assert not bits[i, length:].any()
        assert ok[i] == alone_ok[0]


def test_turbo_rejects_wrong_parity_count():
    with pytest.raises(ParameterError):
        turbo_decode(np.zeros(100), np.zeros(10), "R34")


def test_turbo_interleaver_is_a_spread_permutation():
    for length in (17, 614, 1182):
        perm = np.asarray(turbo_interleaver(length))
        assert np.array_equal(np.sort(perm), np.arange(length))
        spread = int(np.sqrt(length / 5))
        if spread:
            # any two inputs at most `spread` apart come from stream
            # positions more than `spread` apart
            for lag in range(1, spread + 1):
                assert np.all(np.abs(perm[lag:] - perm[:-lag]) > spread)


def test_turbo_interleaver_identical_across_calls_and_processes():
    import os
    import subprocess
    import sys

    first = np.array(turbo_interleaver(1182))
    turbo_interleaver.cache_clear()
    assert np.array_equal(turbo_interleaver(1182), first)
    script = (
        "from datosc.digital import turbo_interleaver; "
        "print(','.join(map(str, turbo_interleaver(1182))))"
    )
    # the child imports the datosc this process imported
    src = os.path.dirname(os.path.dirname(digital.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert np.array_equal(np.array(out.strip().split(","), dtype=np.int64), first)


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def _refine_oracle(est, cells, spec, crc_ok, observed=None):
    """refine as it was: both cell bounds, np.clip and two np.where, each a
    new array."""
    lo = -spec.clips + cells * spec.deltas
    hi = -spec.clips + (cells + 1) * spec.deltas
    lo = np.where(cells == 0, -np.inf, lo)
    hi = np.where(cells == spec.levels - 1, np.inf, hi)
    fused = np.clip(est, lo, hi)
    if observed is not None:
        fused = np.where(observed, fused, -spec.clips + (cells + 0.5) * spec.deltas)
    return np.where(crc_ok[:, None], fused, est)


@pytest.mark.parametrize("bits", [1, 4, 8])
def test_refine_equals_clip_oracle(bits, rng):
    """In-place fusion gives the oracle's bits: end cells, estimates on cell
    edges, exact zeros of both signs, failed frames and unobserved indices."""
    spec = QuantizerSpec(bits=bits, clips=rng.uniform(0.5, 3.0, 24))
    est = rng.normal(0.0, 2.0, (300, 24))
    cells = rng.integers(0, spec.levels, (300, 24))
    edges = -spec.clips + cells * spec.deltas
    on_edge = rng.random(est.shape) < 0.1
    est[on_edge] = edges[on_edge]
    est[:5] = 0.0
    est[5:10] = -0.0
    cells[:10] = spec.levels // 2  # lower edge at 0
    crc_ok = rng.random(300) < 0.7
    observed = rng.random(24) < 0.6
    for obs in (None, observed):
        got = refine(est, cells, spec, crc_ok, obs)
        want = _refine_oracle(est, cells, spec, crc_ok, obs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), obs


def test_refine_fallback_is_identity(rng):
    spec = _qspec(4, 1.0, n=6)
    est = rng.standard_normal(6)
    cells = quantize_cells(rng.standard_normal(6), spec)
    out = refine(est[None], cells[None], spec, np.array([False]))
    assert np.array_equal(out, est[None])


def test_refine_inside_cell_unchanged(rng):
    spec = _qspec(4, 1.0, n=6)
    x = rng.uniform(-0.9, 0.9, 6)
    cells = quantize_cells(x, spec)
    assert np.array_equal(refine(x[None], cells[None], spec, np.array([True])), x[None])


def test_refine_projects_into_decoded_cell():
    spec = _qspec(2, 1.0, n=3)
    cells = np.array([1, 1, 3])  # cell 1 = [-0.5, 0), top cell = [0.5, inf)
    est = np.array([0.3, -0.2, 0.1])
    (out,) = refine(est[None], cells[None], spec, np.array([True]))
    assert out[0] == pytest.approx(0.0, abs=1e-15)  # clamped to cell top
    assert out[1] == -0.2                            # already inside
    assert out[2] == pytest.approx(0.5)              # clamped up to open end cell


def test_refine_never_hurts_when_truth_in_cell(rng):
    spec = _qspec(3, 2.0, n=64)
    for _ in range(200):
        x = rng.uniform(-1.9, 1.9, 64)
        est = x + rng.normal(0, 0.6, 64)
        cells = quantize_cells(x, spec)
        (out,) = refine(est[None], cells[None], spec, np.array([True]))
        assert np.all(np.abs(out - x) <= np.abs(est - x) + 1e-12)


def test_refine_dominance_monte_carlo(mixture_priors):
    """Refined estimates beat both the raw analog estimates and plain
    dequantization in aggregate on the hybrid pipeline at 16 dB."""
    import datosc.digital as dig
    import datosc.harness as H
    from datosc import codec

    cfg = H.ExperimentConfig(trials=10_000, scheme="da", snr_grid=(16.0,))
    setup = H.build_link(cfg)
    draws = H.draw_trials(cfg, setup, 16.0, H.trial_states(cfg, setup, 0, 0, cfg.trials))
    full = codec.analyze(draws.samples)
    est_full, err_full = H.analog_stage(setup, full, draws)
    side = dig.side_info_llrs(est_full, err_full, setup.quant)
    steps = H._steps(cfg, len(full))
    H.receive(cfg, setup, full, draws, side, *steps)
    dec_cells, crc_ok = H._decode(cfg, setup, *steps)

    observed = np.zeros(64, dtype=bool)
    observed[setup.kept] = True
    refined = dig.refine(est_full, dec_cells, setup.quant, crc_ok, observed)
    dequant_only = np.where(
        crc_ok[:, None], dig.dequantize_cells(dec_cells, setup.quant), est_full
    )
    kept = setup.kept

    def feature_mse(a):
        d = a[:, kept] - full[:, kept]
        return float(np.mean(d * d))

    def full_mse(a):
        d = a - full
        return float(np.mean(d * d))

    assert feature_mse(refined) <= feature_mse(est_full) + 1e-12
    assert feature_mse(refined) <= feature_mse(dequant_only) + 1e-12
    assert full_mse(refined) <= full_mse(est_full) + 1e-12
    assert full_mse(refined) <= full_mse(dequant_only) + 1e-12
