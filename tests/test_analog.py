import numpy as np
import pytest

import datosc.harness as H
from datosc.analog import (
    analog_decode,
    analog_encode,
    analog_gains,
    mmse_error_vars,
    pack_iq,
    unpack_iq,
)
from datosc.channel import ChannelState, transmit
from datosc.codec import analyze, selection_indices, synthesize_full
from datosc.sources import SourceSpec, gen_blocks, source_states


def _send(coeffs, prior, per_use, state):
    """Encode, transmit and decode one frame; returns (symbols, gains, est, err)."""
    symbols, gains = analog_encode(coeffs, prior, per_use)
    est, err = analog_decode(transmit(symbols, state), state.h, gains, prior, state.noise_var)
    return symbols, gains, est, err


def test_equal_priors_give_equal_gains():
    g = analog_gains(np.full(10, 2.3), per_use_power=1.7)
    assert np.allclose(g, g[0])


def test_gain_ratio_quarter_power_law():
    g = analog_gains(np.array([4.0, 1.0]), per_use_power=1.0)
    assert abs(g[0] / g[1] - 0.25**0.25) < 1e-6
    assert abs(g[0] / g[1] - 0.7071) < 1e-4


def test_expected_frame_power_meets_budget():
    rng = np.random.default_rng(8)
    prior = rng.uniform(0.2, 5.0, size=16)
    per_use = 1.3
    frames = 10_000
    coeffs = rng.standard_normal((frames, 16)) * np.sqrt(prior)
    symbols, _ = analog_encode(coeffs, prior, per_use)
    assert symbols.shape == (frames, 8)
    ratio = np.sum(np.abs(symbols) ** 2) / frames / (per_use * 16)
    assert 0.99 <= ratio <= 1.01


def test_exact_power_normalization_identity():
    prior = np.array([0.5, 1.0, 2.0, 4.0])
    g = analog_gains(prior, per_use_power=2.0)
    assert abs(np.sum(g * g * prior) - 2.0 * 4) < 1e-9


def test_odd_k_pads_one_zero():
    symbols, _ = analog_encode(np.ones(5), np.ones(5), 1.0)
    assert symbols.shape == (3,)
    assert symbols[-1].imag == 0.0
    batch, _ = analog_encode(np.ones((4, 5)), np.ones(5), 1.0)
    assert batch.shape == (4, 3)
    assert np.all(batch[:, -1].imag == 0.0)


def test_pack_unpack_round_trip(rng):
    v = rng.standard_normal(9)
    assert np.array_equal(unpack_iq(pack_iq(v), 9), v)


def test_noiseless_decode_recovers_exactly(rng):
    prior = rng.uniform(0.5, 3.0, 12)
    coeffs = rng.standard_normal(12) * np.sqrt(prior)
    state = ChannelState.awgn(300.0, seed=2)
    _, _, est, err = _send(coeffs, prior, 1.0, state)
    assert np.max(np.abs(est - coeffs)) < 1e-9
    assert np.max(err) < 1e-12


def test_scalar_closed_form_half():
    err = mmse_error_vars(np.array([1.0]), np.array([1.0]), 1.0, 1.0)
    assert abs(err[0] - 0.5) < 1e-12


def test_posterior_never_exceeds_prior(rng):
    prior = rng.uniform(0.1, 4.0, 30)
    g = analog_gains(prior, 0.7)
    for h_sq in (0.01, 0.5, 1.0, 7.0):
        err = mmse_error_vars(g, prior, h_sq, 0.3)
        assert np.all(err > 0)
        assert np.all(err <= prior + 1e-15)


def test_error_variance_strictly_decreasing_in_channel_gain():
    prior = np.array([1.5])
    g = np.array([1.0])
    grid = np.linspace(0.01, 5.0, 40)
    vals = [mmse_error_vars(g, prior, s, 0.2)[0] for s in grid]
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_empirical_mse_matches_closed_form(snr_db):
    rng = np.random.default_rng(int(snr_db) + 5)
    prior = np.array([2.0, 1.0, 0.5, 0.25] * 4)
    per_use = 0.8
    g = analog_gains(prior, per_use)
    nv_dim = 10 ** (-snr_db / 10) / 2
    trials = 100_000
    x = rng.standard_normal((trials, 16)) * np.sqrt(prior)
    noise = rng.standard_normal((trials, 16)) * np.sqrt(nv_dim)
    obs = g * x + noise
    est = g * prior * obs / (g * g * prior + nv_dim)
    mse = np.mean((est - x) ** 2, axis=0)
    expected = mmse_error_vars(g, prior, 1.0, nv_dim)
    assert np.all(np.abs(mse / expected - 1.0) < 0.02)


def test_linearity_in_amplitude_and_power(rng):
    """Scaling (feature, prior, power, noise var) by (a, a^2, a^2, a^2)
    leaves the gains unchanged and scales estimates by exactly a."""
    prior = rng.uniform(0.5, 2.0, 8)
    coeffs = rng.standard_normal(8) * np.sqrt(prior)
    a = 3.0
    state1 = ChannelState.awgn(12.0, seed=77, block_index=1)
    sym1, gains1, est1, err1 = _send(coeffs, prior, 1.0, state1)

    # same seed: identical unit normals, so the noise scales by a exactly
    state2 = ChannelState.awgn(12.0 - 20 * np.log10(a), seed=77, block_index=1)
    sym2, gains2, est2, err2 = _send(a * coeffs, a * a * prior, a * a * 1.0, state2)
    assert np.allclose(gains2, gains1, rtol=1e-12)
    assert np.allclose(sym2, a * sym1, rtol=1e-12)
    assert np.allclose(est2, a * est1, rtol=1e-9)
    assert np.allclose(err2, a * a * err1, rtol=1e-9)


def test_saturation_floor_at_high_snr(mixture_priors):
    spec = SourceSpec(kind="class_mixture", n=64, class_count=4, seed=44)
    state_seed = 91
    kept = selection_indices(64, 32, mixture_priors)
    mses, floors = [], []
    for t, samples in enumerate(gen_blocks(spec, source_states(spec.seed, 0, 300))[0]):
        full = analyze(samples)
        state = ChannelState.awgn(60.0, seed=state_seed, block_index=t)
        _, _, est, _ = _send(full[kept], mixture_priors[kept], 2.0, state)
        est_full = np.zeros(64)
        est_full[kept] = est
        mses.append(np.mean((samples - synthesize_full(est_full)) ** 2))
        mask = np.ones(64, dtype=bool)
        mask[kept] = False
        floors.append(np.sum(full[mask] ** 2) / 64)
    assert abs(np.mean(mses) / np.mean(floors) - 1.0) < 0.01


def test_analog_stage_uses_prior_for_discarded():
    """The sweep's analog stage spreads its estimates over all n indices:
    kept ones carry the decoded values, the rest estimate 0 with their prior
    variance."""
    cfg = H.ExperimentConfig(scheme="analog", trials=100, k=12, snr_grid=(10.0,))
    setup = H.build_link(cfg)
    draws = H.draw_trials(cfg, setup, 10.0, H.trial_states(cfg, setup, 0, 0, 5))
    full = analyze(draws.samples)
    est_full, err_full = H.analog_stage(setup, full, draws)

    priors = setup.prior_vars[setup.kept]
    symbols, gains = analog_encode(full[:, setup.kept], priors, setup.analog_per_dim)
    h = draws.h[:, None]
    received = h * symbols + draws.w_a[:, : symbols.shape[1]]
    est, err = analog_decode(received, h, gains, priors, draws.noise_var)
    assert np.array_equal(est_full[:, setup.kept], est)
    assert np.array_equal(err_full[:, setup.kept], err)
    mask = np.ones(cfg.n, dtype=bool)
    mask[setup.kept] = False
    assert np.all(est_full[:, mask] == 0.0)
    assert np.array_equal(err_full[:, mask], np.broadcast_to(setup.prior_vars[mask], (5, mask.sum())))
