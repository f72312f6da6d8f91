import csv

import numpy as np
import pytest

from datosc import seu
from datosc.analog import analog_gains, mmse_error_vars
from datosc.channel import ChannelState
from datosc.digital import bits_to_cells, cells_to_bits, parity_length
from datosc.errors import ParameterError
from datosc.seu import (
    MAX_FRAME_INFO_BITS,
    DriftSpec,
    ModelParams,
    drift,
    seu_send_floats,
    seu_update_ints,
    seu_update_sessions,
    write_session_log,
)


def _params(rng, floats=64, ints=256, bits=4):
    return ModelParams(
        floats=rng.standard_normal(floats),
        ints=rng.integers(0, 1 << bits, ints),
        int_bits=bits,
    )


def test_int_bit_serialization_round_trip(rng):
    for bits in (4, 8):
        v = rng.integers(0, 1 << bits, 100)
        assert np.array_equal(bits_to_cells(cells_to_bits(v, bits), bits), v)


def test_precision_invariants():
    with pytest.raises(ParameterError):
        ModelParams(floats=np.zeros(1), ints=np.array([16]), int_bits=4)
    with pytest.raises(ParameterError):
        ModelParams(floats=np.zeros(1), ints=np.array([0]), int_bits=5)
    with pytest.raises(ParameterError):
        DriftSpec(bit_flip_prob=0.5)
    with pytest.raises(ParameterError, match="at least one"):
        seu_update_ints(np.zeros(0, int), np.zeros(0, int), 4, "R34", ChannelState.awgn(10.0), 0.01)


def test_zero_drift_is_identity(rng):
    params = _params(rng)
    out = drift(params, DriftSpec(0.0, 0.0), seed=1)
    assert np.array_equal(out.ints, params.ints)
    assert np.array_equal(out.floats, params.floats)


def test_drift_deterministic_and_near_half_allowed(rng):
    params = _params(rng)
    spec = DriftSpec(0.2, 0.49)
    a = drift(params, spec, seed=9)
    b = drift(params, spec, seed=9)
    assert np.array_equal(a.ints, b.ints)
    assert np.array_equal(a.floats, b.floats)


def test_empirical_flip_rate():
    rng = np.random.default_rng(2)
    params = ModelParams(
        floats=np.zeros(1), ints=rng.integers(0, 256, 125_000), int_bits=8
    )
    spec = DriftSpec(0.0, 0.03)
    out = drift(params, spec, seed=3)
    flips = cells_to_bits(out.ints, 8) != cells_to_bits(params.ints, 8)
    assert flips.size == 10**6
    assert abs(np.mean(flips) - 0.03) <= 0.002


def test_send_floats_noiseless_exact(rng):
    floats = rng.standard_normal(50)
    state = ChannelState.awgn(300.0, seed=4)
    est, err = seu_send_floats(floats, np.ones(50), 1.0, state)
    assert np.max(np.abs(est - floats)) < 1e-9
    assert np.max(err) < 1e-12


def test_send_floats_mse_matches_formula():
    rng = np.random.default_rng(5)
    prior = 2.5
    count = 100_000
    floats = rng.standard_normal(count) * np.sqrt(prior)
    state = ChannelState.awgn(6.0, seed=6)
    est, err = seu_send_floats(floats, np.full(count, prior), 0.9, state)
    mse = np.mean((est - floats) ** 2)
    assert abs(mse / np.mean(err) - 1.0) < 0.02


def test_send_floats_power_normalization():
    rng = np.random.default_rng(7)
    prior = np.full(4096, 1.7)
    g = analog_gains(prior, 1.25)
    total = 0.0
    for _ in range(100):
        v = rng.standard_normal(4096) * np.sqrt(1.7)
        total += np.mean((g * v) ** 2)
    assert abs(total / 100 / 1.25 - 1.0) < 0.01


def test_update_ints_noiseless_identity(rng):
    ints = rng.integers(0, 16, 1024)
    state = ChannelState.awgn(300.0, seed=8)
    result = seu_update_ints(ints, ints.copy(), 4, "R34", state, p_hat=0.01)
    assert result.crc_ok
    assert np.array_equal(result.corrected_ints, ints)
    # 4096 bits -> frames of 1166/1166/1166/598 info bits
    expected_parity = (
        3 * parity_length(1166, "R34") + parity_length(598, "R34")
    )
    assert result.parity_bits_sent == expected_parity
    assert result.overhead_ratio == pytest.approx(expected_parity / 4096)


@pytest.mark.parametrize("pattern", ["R12", "R23"])  # R34: the test above
def test_noiseless_zero_drift_session_exact(rng, pattern):
    ints = rng.integers(0, 16, 1024)  # frames of 1166/1166/1166/598 bits
    state = ChannelState.awgn(300.0, seed=15)
    result = seu_update_ints(ints, ints.copy(), 4, pattern, state, p_hat=0.01)
    assert result.crc_ok
    assert np.array_equal(result.corrected_ints, ints)
    assert all(f.bit_errors_after == 0 for f in result.frames)


@pytest.mark.parametrize("pattern", ["R12", "R23", "R34"])
def test_frame_shorter_than_protected_positions(pattern):
    """One 4-bit int: a frame shorter than the 20 CRC and tail positions
    that constituent 1 protects. Its parity budget covers the 16 unknown CRC
    bits only at R12; at R23/R34 the CRC cannot verify and the frame keeps
    its outdated bits, which at zero drift are the update."""
    ints = np.array([11])
    state = ChannelState.awgn(300.0, seed=16)
    result = seu_update_ints(ints, ints.copy(), 4, pattern, state, p_hat=0.01)
    assert np.array_equal(result.corrected_ints, ints)
    assert result.frames[0].parity_bits == parity_length(4, pattern)
    if pattern == "R12":
        assert result.crc_ok


def test_repeated_session_identical_records(rng):
    ints = rng.integers(0, 16, 700)
    params = ModelParams(floats=np.zeros(1), ints=ints, int_bits=4)
    outdated = drift(params, DriftSpec(0.0, 0.05), seed=17)
    runs = [
        seu_update_ints(
            ints, outdated.ints, 4, "R34", ChannelState.awgn(6.0, seed=18), p_hat=0.05
        )
        for _ in range(2)
    ]
    assert runs[0].frames == runs[1].frames
    assert np.array_equal(runs[0].corrected_ints, runs[1].corrected_ints)


def test_failed_frames_keep_outdated_bits(rng):
    ints = rng.integers(0, 16, 700)  # frames of 1166/1166/468 bits
    params = ModelParams(floats=np.zeros(1), ints=ints, int_bits=4)
    outdated = drift(params, DriftSpec(0.0, 0.15), seed=19)
    state = ChannelState.awgn(10.0, seed=20)
    result = seu_update_ints(ints, outdated.ints, 4, "R34", state, p_hat=0.15)
    old = cells_to_bits(outdated.ints, 4)
    fixed = cells_to_bits(result.corrected_ints, 4)
    failed = [f for f in result.frames if not f.crc_ok]
    assert failed  # 15% drift is far past what 1/3 parity density can fix
    for f in failed:
        start = MAX_FRAME_INFO_BITS * f.frame_idx
        sl = slice(start, min(start + MAX_FRAME_INFO_BITS, old.size))
        assert np.array_equal(fixed[sl], old[sl])
        assert f.bit_errors_after == f.bit_errors_before


def test_single_frame_overhead_arithmetic(rng):
    state = ChannelState.awgn(300.0, seed=9)
    v = rng.integers(0, 16, 291)  # 1164 bits: fits one frame (cap 1166)
    result = seu_update_ints(v, v.copy(), 4, "R34", state, p_hat=0.01)
    assert result.total_int_bits == 1164
    assert len(result.frames) == 1
    assert result.frames[0].parity_bits == parity_length(1164, "R34")


def test_full_frame_ratio_matches_code_spec():
    # 1166 info bits: parity = round(1184/3) = 395, ratio ~= 0.338
    assert parity_length(1166, "R34") == 395
    assert abs(395 / 1166 - 0.338) < 0.001


def test_parity_only_contract(rng):
    """Bits on the wire per frame equal the punctured parity count exactly."""
    ints = rng.integers(0, 16, 600)  # 2400 bits -> frames of 1166/1166/68
    state = ChannelState.awgn(20.0, seed=10)
    result = seu_update_ints(ints, ints.copy(), 4, "R23", state, p_hat=0.05)
    expected = (
        2 * parity_length(1166, "R23") + parity_length(68, "R23")
    )
    assert [f.parity_bits for f in result.frames] == [
        parity_length(1166, "R23"),
        parity_length(1166, "R23"),
        parity_length(68, "R23"),
    ]
    assert result.parity_bits_sent == expected
    assert result.parity_bits_sent < 2400  # strictly fewer than the info bits


def test_update_corrects_drifted_ints(rng):
    ints = rng.integers(0, 16, 256)  # 1024 bits: one frame
    params = ModelParams(floats=np.zeros(1), ints=ints, int_bits=4)
    outdated = drift(params, DriftSpec(0.0, 0.005), seed=11)
    state = ChannelState.awgn(12.0, seed=12)
    before = int(np.sum(cells_to_bits(outdated.ints, 4) != cells_to_bits(ints, 4)))
    result = seu_update_ints(ints, outdated.ints, 4, "R34", state, p_hat=0.005)
    assert before > 0
    assert result.crc_ok
    assert np.array_equal(result.corrected_ints, ints)
    assert result.frames[0].bit_errors_before == before
    assert result.frames[0].bit_errors_after == 0


def _success_rate(p, p_hat, trials, snr_db, pattern="R34", n_ints=256, seed0=1000):
    sessions = []
    for t in range(trials):
        rng = np.random.default_rng(seed0 + t)
        ints = rng.integers(0, 16, n_ints)
        params = ModelParams(floats=np.zeros(1), ints=ints, int_bits=4)
        outdated = drift(params, DriftSpec(0.0, p), seed=seed0 + 7 * t)
        state = ChannelState.awgn(snr_db, seed=seed0, block_index=t)
        sessions.append((ints, outdated.ints, state))
    results = seu_update_sessions(sessions, 4, pattern, p_hat=p_hat)
    wins = sum(
        result.crc_ok and np.array_equal(result.corrected_ints, ints)
        for result, (ints, _, _) in zip(results, sessions)
    )
    return wins / trials


def _runner_sessions(specs, seed0):
    """(updated, outdated, state) per (int count, drift rate, snr) spec,
    on fresh channel states."""
    sessions = []
    for t, (n_ints, p, snr) in enumerate(specs):
        rng = np.random.default_rng(seed0 + t)
        ints = rng.integers(0, 16, n_ints)
        outdated = drift(ModelParams(np.zeros(1), ints, 4), DriftSpec(0.0, p), seed=seed0 + t)
        sessions.append((ints, outdated.ints, ChannelState.awgn(snr, seed=seed0, block_index=t)))
    return sessions


@pytest.mark.parametrize("chunk", [5, seu.DECODE_CHUNK])
def test_many_sessions_equal_single_session_calls(monkeypatch, chunk):
    """S sessions in one call give the results, frame records and channel
    states of S single calls, whatever frames share a turbo_decode call:
    ragged sessions (292 ints leave a 2-bit last frame), long and one-frame
    ones, verifying and failing frames."""
    monkeypatch.setattr(seu, "DECODE_CHUNK", chunk)
    specs = [(292, 0.01, 10.0), (1024, 0.15, 10.0), (40, 0.0, 6.0), (292, 0.06, 4.0),
             (700, 0.02, 10.0), (1024, 0.01, 10.0), (292, 0.15, 8.0)]
    together = _runner_sessions(specs, seed0=4100)
    alone = _runner_sessions(specs, seed0=4100)
    results = seu_update_sessions(together, 4, "R34", p_hat=0.05)
    verdicts = set()
    for got, (ints, old, state), (_, _, own_state) in zip(results, alone, together):
        want = seu_update_ints(ints, old, 4, "R34", state, p_hat=0.05)
        assert np.array_equal(got.corrected_ints, want.corrected_ints)
        assert got.frames == want.frames and got.total_int_bits == want.total_int_bits
        assert own_state.rng.bit_generator.state == state.rng.bit_generator.state
        verdicts.update(f.crc_ok for f in got.frames)
    assert verdicts == {True, False}


def test_one_session_is_one_turbo_decode_call(monkeypatch):
    """A session of four ragged frames decodes in one call, in frame order."""
    calls = []
    decode = seu.turbo_decode
    monkeypatch.setattr(seu, "turbo_decode", lambda *a: calls.append(a) or decode(*a))
    ((ints, old, state),) = _runner_sessions([(1024, 0.01, 10.0)], seed0=4200)
    seu_update_ints(ints, old, 4, "R34", state, p_hat=0.01)
    ((sides, parities, pattern),) = calls
    assert [len(side) for side in sides] == [1166, 1166, 1166, 598] and pattern == "R34"
    assert len(parities) == 4


def test_mismatched_drift_estimate_hurts():
    """Paired runs (identical data, flips, and noise): a receiver assuming
    p=0.25 when the true drift is 0.01 decodes strictly less often. Measured
    at full parity and low SNR, where side quality actually binds: at -3 dB
    the parity alone no longer carries the frame, so success turns on how the
    outdated copy is weighted. At 0 dB, or at R34 / 10 dB, the turbo decoder
    recovers every session whichever rate it assumes."""
    good = _success_rate(0.01, 0.01, 60, -3.0, pattern="R12", n_ints=256)
    bad = _success_rate(0.01, 0.25, 60, -3.0, pattern="R12", n_ints=256)
    assert bad < good


def test_success_monotone_in_drift_rate():
    rates = [_success_rate(p, p, 60, 10.0) for p in (0.01, 0.08, 0.15)]
    se = np.sqrt(0.25 / 60)
    assert rates[1] <= rates[0] + 2.58 * 2 * se
    assert rates[2] <= rates[1] + 2.58 * 2 * se
    assert rates[2] < rates[0]  # clear drop across the range


def test_verified_frames_never_miscorrect(rng):
    """Any crc_ok frame must reproduce the updated ints exactly."""
    for t in range(40):
        ints = rng.integers(0, 16, 512)
        params = ModelParams(floats=np.zeros(1), ints=ints, int_bits=4)
        outdated = drift(params, DriftSpec(0.0, 0.06), seed=t)
        state = ChannelState.awgn(8.0, seed=77, block_index=t)
        result = seu_update_ints(ints, outdated.ints, 4, "R23", state, p_hat=0.06)
        for frame in result.frames:
            if frame.crc_ok:
                assert frame.bit_errors_after == 0


def test_overhead_report_totals(rng):
    ints = rng.integers(0, 16, 2048)  # 8192 bits -> 8 frames of <=1166
    state = ChannelState.awgn(300.0, seed=13)
    r12 = seu_update_ints(ints, ints.copy(), 4, "R12", state, p_hat=0.01)
    assert r12.parity_bits_sent == sum(f.parity_bits for f in r12.frames)
    assert r12.total_int_bits == 8192
    assert r12.overhead_ratio == r12.parity_bits_sent / 8192
    assert abs(1.0 - r12.overhead_ratio) < 0.03  # parity ~= info length

    r34 = seu_update_ints(ints, ints.copy(), 4, "R34", state, p_hat=0.01)
    assert abs((1.0 - r34.overhead_ratio) - 2 / 3) < 0.02


def test_update_ints_rejects_values_outside_precision():
    """Integers outside [0, 2^int_bits) raise rather than being cut to their
    low bits (16 would read as 0 and -1 as 15 at 4 bits)."""
    state = ChannelState.awgn(10.0, seed=21)
    valid = np.array([0, 5, 15])
    for updated, outdated in (([16, 5, -1], valid), (valid, [16, 5, 15]), (valid, [0, 5, -1])):
        with pytest.raises(ParameterError, match="precision"):
            seu_update_ints(np.array(updated), np.array(outdated), 4, "R34", state, 0.01)
    with pytest.raises(ParameterError, match="precision"):
        seu_update_ints(valid, valid, 0, "R34", state, 0.01)


def test_update_ints_and_model_params_share_the_precision_rule():
    """seu_update_ints accepts the integer precisions ModelParams does, 4 and
    8 bits, and rejects the rest with the same message."""
    state = ChannelState.awgn(20.0, seed=21)
    ints = np.array([1, 30, 7])
    for bits in (1, 5, 16):
        with pytest.raises(ParameterError, match="precision must be 4 or 8") as update:
            seu_update_ints(ints, ints, bits, "R12", state, 0.01)
        with pytest.raises(ParameterError) as params:
            ModelParams(floats=np.zeros(1), ints=ints, int_bits=bits)
        assert str(update.value) == str(params.value)


def test_non_integer_values_rejected():
    """Fractions and NaN raise rather than being truncated: [3.7, 15.9, 2.0]
    would read as [3, 15, 2] and match the outdated ints with crc_ok set.
    Whole-number floats still pass."""
    state = ChannelState.awgn(20.0, seed=21)
    valid = np.array([3, 15, 2])
    for bad in ([3.7, 15.9, 2.0], [3.0, np.nan, 2.0], [3.0, np.inf, 2.0]):
        with pytest.raises(ParameterError, match="whole numbers"):
            seu_update_ints(np.array(bad), valid, 4, "R12", state, 0.01)
        with pytest.raises(ParameterError, match="whole numbers"):
            seu_update_ints(valid, np.array(bad), 4, "R12", state, 0.01)
    with pytest.raises(ParameterError, match="whole numbers"):
        ModelParams(floats=np.zeros(1), ints=np.array([1.5, np.nan]), int_bits=4)
    params = ModelParams(floats=np.zeros(1), ints=np.array([3.0, 15.0, 2.0]), int_bits=4)
    res = seu_update_ints(params.ints, valid, 4, "R12", state, 0.01)
    assert np.array_equal(res.corrected_ints, valid)


def test_session_log_format(tmp_path, rng):
    ints = rng.integers(0, 16, 700)
    state = ChannelState.awgn(12.0, seed=14)
    result = seu_update_ints(ints, ints.copy(), 4, "R34", state, p_hat=0.02)
    path = tmp_path / "session.csv"
    write_session_log(path, result.frames)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "frame_idx", "pattern", "parity_bits", "crc_ok",
        "bit_errors_before", "bit_errors_after",
    ]
    assert len(rows) == 1 + len(result.frames)
    assert rows[1][1] == "R34"
