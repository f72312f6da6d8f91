"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The full default sweep
(three schemes, 0-20 dB, 2000 trials/point) runs once as a session fixture.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc
from scipy.stats import norm

import datosc.harness as H
from datosc.allocator import system_distortion
from datosc.analog import analog_gains, mmse_error_vars
from datosc.channel import ChannelState, transmit
from datosc.codec import analyze, calibrate_prior_vars, selection_indices
from datosc.digital import (
    CRC_BITS,
    LLR_CLIP,
    QuantizerSpec,
    crc16,
    demodulate,
    dequantize_cells,
    llr_clip,
    modulate,
    parity_length,
    quantize_cells,
    rsc_encode,
    side_info_llrs,
    viterbi_decode,
)
from datosc.harness import ExperimentConfig, detect_effects, run_point, run_sweep
from datosc.seu import DriftSpec, ModelParams, drift, seu_update_sessions


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    """Pinned default Rayleigh sweep, all three schemes, 2000 trials/point."""
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.time()
    rows = {}
    for scheme in ("analog", "digital", "da"):
        cfg = ExperimentConfig(scheme=scheme, out=str(out / f"{scheme}.csv"))
        rows[scheme] = run_sweep(cfg)
    elapsed = time.time() - t0
    print(f"[acceptance] default sweep elapsed: {elapsed:.1f} s")
    return rows, elapsed


def _row(rows, scheme, snr):
    for r in rows[scheme]:
        if r.snr_db == snr:
            return r
    raise KeyError((scheme, snr))


def test_criterion_1_cliff_effect(default_sweep):
    rows, elapsed = default_sweep
    flat = [r for scheme in rows.values() for r in scheme]
    report = detect_effects(flat)
    dig_cliff = report["schemes"]["digital"]["cliff_snr"]
    no_others = (
        report["schemes"]["analog"]["cliff_snr"] is None
        and report["schemes"]["da"]["cliff_snr"] is None
    )
    ratios = []
    dig_rows = sorted(rows["digital"], key=lambda r: r.snr_db)
    for a, b in zip(dig_rows[:-1], dig_rows[1:]):
        ratios.append(a.data_mse / b.data_mse)
    ok = (
        dig_cliff is not None
        and 4.0 <= dig_cliff <= 12.0
        and no_others
        and elapsed <= 300.0
    )
    _report(
        "1 (cliff effect)",
        ok,
        f"digital cliff_snr={dig_cliff}, others clean={no_others}, "
        f"max adjacent digital ratio={max(ratios):.3f} (threshold 5.0), "
        f"runtime {elapsed:.0f}s",
    )
    assert ok, (
        "no x5 adjacent data_mse jump exists for scheme=digital under "
        "quasi-static Rayleigh fading: per-trial gains average the frame "
        "error rate, capping adjacent-point ratios at 10^(2/10) ~ 1.585 per "
        f"2 dB (measured max {max(ratios):.3f}); see README, 'One acceptance "
        "check fails by design'"
    )


def test_criterion_2_saturation_effect(default_sweep):
    rows, _ = default_sweep
    m18 = _row(rows, "analog", 18.0).data_mse
    m20 = _row(rows, "analog", 20.0).data_mse
    rel = abs(m18 - m20) / m20
    cfg = ExperimentConfig(scheme="analog", trials=500, snr_grid=(60.0,))
    row60 = run_point(cfg, 60.0)
    setup = H.build_link(cfg)
    states = H.trial_states(cfg, setup, 0, 0, 500)
    samples = H.draw_trials(cfg, setup, 60.0, states).samples
    prior = calibrate_prior_vars(cfg.source_spec())
    kept = selection_indices(64, cfg.k, prior, setup.task)
    mask = np.ones(64, dtype=bool)
    mask[kept] = False
    floor = np.mean(np.sum(analyze(samples)[:, mask] ** 2, axis=1) / 64)
    floor_rel = abs(row60.data_mse - floor) / floor
    ok = rel < 0.05 and floor_rel < 0.05
    _report(
        "2 (saturation effect)",
        ok,
        f"analog 18 vs 20 dB rel diff {rel:.4f} (<0.05), "
        f"60 dB floor rel err {floor_rel:.4f} (<0.05)",
    )
    assert ok


def test_criterion_3_graceful_improvement(default_sweep):
    rows, _ = default_sweep
    details = []
    ok = True
    for snr in (16.0, 18.0, 20.0):
        da = _row(rows, "da", snr)
        an = _row(rows, "analog", snr)
        gap = da.data_mse <= 0.8 * an.data_mse
        ci = da.data_mse + 1.96 * da.data_mse_se < an.data_mse - 1.96 * an.data_mse_se
        ok &= gap and ci
        details.append(f"{snr:.0f}dB: da {da.data_mse:.4f} vs analog {an.data_mse:.4f}")
    _report("3 (graceful improvement)", ok, "; ".join(details))
    assert ok


def test_criterion_4_low_snr_robustness(default_sweep):
    rows, _ = default_sweep
    details = []
    ok = True
    for snr in (0.0, 2.0, 4.0):
        da = _row(rows, "da", snr)
        dg = _row(rows, "digital", snr)
        ci = da.data_mse + 1.96 * da.data_mse_se < dg.data_mse - 1.96 * dg.data_mse_se
        ok &= da.data_mse <= dg.data_mse and ci
        details.append(f"{snr:.0f}dB: da {da.data_mse:.4f} vs digital {dg.data_mse:.4f}")
    _report("4 (low-SNR robustness)", ok, "; ".join(details))
    assert ok


def _ml_oracle(sys_llrs, par_llrs, k):
    words = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    sys_bits, par_bits = rsc_encode(words)
    metric = (1.0 - 2.0 * sys_bits) @ sys_llrs + (1.0 - 2.0 * par_bits) @ par_llrs
    return words[int(np.argmax(metric))]


def test_criterion_5_decoder_optimality():
    t0 = time.time()
    mismatches = 0
    for k in (4, 8, 12):
        rng = np.random.default_rng(900 + k)
        for _ in range(50):
            length = k + 2
            sys_llrs = rng.normal(0.0, 4.0, length)
            par_llrs = rng.normal(0.0, 4.0, length)
            par_llrs[rng.random(length) < 0.4] = 0.0
            decided = viterbi_decode(sys_llrs, par_llrs)[0, :k]
            if not np.array_equal(decided, _ml_oracle(sys_llrs, par_llrs, k)):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed <= 120.0
    _report(
        "5 (decoder optimality)",
        ok,
        f"0 required, {mismatches} mismatches over 150 frames, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_mmse_correctness():
    worst = 0.0
    prior = np.array([2.0, 1.0, 0.5, 0.25] * 4)
    gains = analog_gains(prior, 0.8)
    for snr_db in (0.0, 10.0, 20.0):
        rng = np.random.default_rng(600 + int(snr_db))
        nv_dim = 10 ** (-snr_db / 10) / 2
        x = rng.standard_normal((100_000, 16)) * np.sqrt(prior)
        obs = gains * x + rng.standard_normal((100_000, 16)) * np.sqrt(nv_dim)
        est = gains * prior * obs / (gains * gains * prior + nv_dim)
        mse = np.mean((est - x) ** 2, axis=0)
        expected = mmse_error_vars(gains, prior, 1.0, nv_dim)
        worst = max(worst, float(np.max(np.abs(mse / expected - 1.0))))
    ok = worst < 0.02
    _report("6 (MMSE correctness)", ok, f"worst relative error {worst:.4f} (<0.02)")
    assert ok


def test_criterion_7_allocator_quality(alloc_ctx, fer_table, pinned_plans):
    worst_ratio, oracle_wins, mono = 1.0, True, True
    for snr, lam, total, g, e, lo, hi in pinned_plans:
        cg = system_distortion(g, snr, alloc_ctx, fer_table)
        ce = system_distortion(e, snr, alloc_ctx, fer_table)
        worst_ratio = max(worst_ratio, cg / ce)
        oracle_wins &= ce <= cg + 1e-12
        mono &= hi.power_analog >= lo.power_analog - 1e-9
    ok = worst_ratio <= 1.05 and oracle_wins and mono
    _report(
        "7 (allocator quality)",
        ok,
        f"worst greedy/exhaustive ratio {worst_ratio:.4f} (<=1.05), "
        f"oracle never loses: {oracle_wins}, lambda power-share monotone: {mono}",
    )
    assert ok


def _seu_success_rate(p, trials, seed0):
    sessions = []
    for t in range(trials):
        rng = np.random.default_rng(seed0 + t)
        ints = rng.integers(0, 16, 1024)  # 4096 int bits
        params = ModelParams(floats=np.zeros(1), ints=ints, int_bits=4)
        outdated = drift(params, DriftSpec(0.0, p), seed=seed0 + 7 * t + 1)
        state = ChannelState.awgn(10.0, seed=seed0, block_index=t)
        sessions.append((ints, outdated.ints, state))
    results = seu_update_sessions(sessions, 4, "R34", p_hat=p)
    wins = sum(
        res.crc_ok and np.array_equal(res.corrected_ints, ints)
        for res, (ints, _, _) in zip(results, sessions)
    )
    return wins / trials


def test_criterion_8_seu_threshold_behavior():
    lo = _seu_success_rate(0.01, 500, seed0=8100)
    hi = _seu_success_rate(0.15, 500, seed0=8200)
    ok = lo >= 0.95 and hi <= 0.5
    _report(
        "8 (DSC/SEU threshold behavior)",
        ok,
        f"success at p=0.01: {lo:.3f} (>=0.95 required), at p=0.15: {hi:.3f} (<=0.5)",
    )
    assert ok, (
        f"measured success {lo:.3f} at p=0.01 (>=0.95 required) and {hi:.3f} "
        "at p=0.15 (<=0.5 required), R34, 10 dB, 500 sessions each"
    )


def test_criterion_9_bit_exactness(tmp_path):
    bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    crc_ok = int("".join(map(str, crc16(bits)[0])), 2) == 0x29B1
    arith_ok = (
        parity_length(100, "R34") == 39
        and parity_length(100, "R23") == 59
        and parity_length(100, "R12") == 118
        and parity_length(1166, "R34") == 395
    )
    base = ExperimentConfig(trials=150, snr_grid=(4.0, 12.0), scheme="da")
    c1 = replace(base, workers=1, out=str(tmp_path / "w1.csv"))
    c3 = replace(base, workers=3, out=str(tmp_path / "w3.csv"))
    run_sweep(c1)
    run_sweep(c3)
    det_ok = open(c1.out, "rb").read() == open(c3.out, "rb").read()
    ok = crc_ok and arith_ok and det_ok
    _report(
        "9 (bit-exactness)",
        ok,
        f"CRC vector: {crc_ok}, parity arithmetic: {arith_ok}, "
        f"CSV bytes across worker counts: {det_ok}",
    )
    assert ok


def test_criterion_10_formula_coverage():
    rng = np.random.default_rng(1000)
    # Parseval at 1e-9
    x = rng.standard_normal((200, 64))
    c = analyze(x)
    parseval = float(np.max(np.abs(np.sum(c * c, axis=1) - np.sum(x * x, axis=1))))
    # quantizer MSE vs delta^2/12 at 5%
    spec = QuantizerSpec(bits=4, clips=np.ones(1))
    u = rng.uniform(-1, 1, 100_000).reshape(-1, 1)
    qmse = float(np.mean((dequantize_cells(quantize_cells(u, spec), spec) - u) ** 2))
    qrel = abs(qmse / (spec.deltas[0] ** 2 / 12) - 1.0)
    # BPSK BER vs Q(sqrt(2 SNR)) at 0 dB over 1e6 bits
    bits = rng.integers(0, 2, 10**6).astype(np.uint8)
    state = ChannelState.awgn(0.0, seed=42)
    y = transmit(modulate(bits, "bpsk", 1.0), state)
    llrs = demodulate(y, state.h, state.noise_var, "bpsk", 1.0)
    ber = float(np.mean((llrs < 0).astype(np.uint8) != bits))
    q = float(0.5 * erfc(np.sqrt(2.0) / np.sqrt(2.0)))
    brel = abs(ber / q - 1.0)
    # side-info LLRs vs adaptive quadrature at 1e-6
    qspec = QuantizerSpec(bits=2, clips=np.full(1, 1.5))
    worst_llr = 0.0
    for _ in range(100):
        est, err = rng.uniform(-2, 2), rng.uniform(0.05, 2.0)
        got = side_info_llrs(np.array([est]), np.array([err]), qspec)
        edges = [-np.inf, -0.75, 0.0, 0.75, np.inf]
        probs = []
        for j in range(4):
            lo = max(edges[j], est - 40 * np.sqrt(err))
            hi = min(edges[j + 1], est + 40 * np.sqrt(err))
            probs.append(
                quad(lambda t: norm.pdf(t, est, np.sqrt(err)), lo, hi, limit=200)[0]
                if lo < hi
                else 0.0
            )
        want = []
        for b in range(2):
            p0 = sum(p for j, p in enumerate(probs) if not (j >> (1 - b)) & 1)
            p1 = sum(p for j, p in enumerate(probs) if (j >> (1 - b)) & 1)
            with np.errstate(divide="ignore"):
                want.append(np.clip(np.log(p0) - np.log(p1), -LLR_CLIP, LLR_CLIP))
        worst_llr = max(worst_llr, float(np.max(np.abs(got - np.array(want)))))
    ok = parseval < 1e-9 and qrel < 0.05 and brel < 0.05 and worst_llr < 1e-6
    _report(
        "10 (formula coverage)",
        ok,
        f"Parseval {parseval:.2e} (<1e-9), quantizer rel {qrel:.4f} (<0.05), "
        f"BER rel {brel:.4f} (<0.05), side-LLR max err {worst_llr:.2e} (<1e-6)",
    )
    assert ok
