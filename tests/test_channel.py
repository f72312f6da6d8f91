import numpy as np
import pytest

import datosc.harness as H
from datosc.channel import ChannelBudget, ChannelState, channel_states, draw_blocks, transmit
from datosc.codec import analyze
from datosc.digital import quantize_cells, side_info_llrs
from datosc.errors import AllocationError, ParameterError


def test_noiseless_pass_through():
    state = ChannelState.awgn(300.0, seed=1)
    x = np.exp(1j * np.linspace(0, 3, 50))
    y = transmit(x, state)
    assert np.max(np.abs(y - x)) < 1e-12


def test_awgn_noise_variance_at_0db():
    state = ChannelState.awgn(0.0, seed=2)
    x = np.ones(10**6, dtype=complex)
    y = transmit(x, state)
    w = y - x
    var = np.mean(np.abs(w) ** 2)
    assert 0.99 <= var <= 1.01
    # split evenly between the real and imaginary dimensions
    assert 0.49 <= np.var(w.real) <= 0.51


def test_rayleigh_unit_mean_square_gain():
    h, _ = draw_blocks(10.0, "rayleigh", channel_states(3, 0, 100_000), 0)
    assert 0.98 <= np.mean(np.abs(h) ** 2) <= 1.02


def test_unknown_fading_rejected():
    with pytest.raises(ParameterError):
        ChannelState.for_block(0.0, "rician", 0, 0)


def test_block_streams_are_deterministic():
    a = ChannelState.for_block(5.0, "rayleigh", 9, 4)
    b = ChannelState.for_block(5.0, "rayleigh", 9, 4)
    assert a.h == b.h
    xa = transmit(np.ones(8, dtype=complex), a)
    xb = transmit(np.ones(8, dtype=complex), b)
    assert np.array_equal(xa, xb)
    c = ChannelState.for_block(5.0, "rayleigh", 9, 5)
    assert c.h != a.h


def _draws(scheme, channel, snr_db, trials):
    cfg = H.ExperimentConfig(scheme=scheme, channel=channel, snr_grid=(snr_db,))
    setup = H.build_link(cfg)
    states = H.trial_states(cfg, setup, 0, 0, trials)
    return cfg, setup, H.draw_trials(cfg, setup, snr_db, states)


def test_partition_noise_independent():
    _, setup, draws = _draws("da", "awgn", 0.0, 6250)
    assert draws.w_a.shape == (6250, setup.n_analog) == (6250, 16)
    assert draws.w_d.shape == (6250, setup.n_digital)
    wa = draws.w_a.reshape(-1)
    wd = draws.w_d[:, :16].reshape(-1)
    corr = np.corrcoef(wa.real, wd.real)[0, 1]
    assert abs(corr) < 0.01
    assert wa.size == 10**5


def test_trial_draws_share_h_across_partitions():
    """Noiseless Rayleigh trials recover both partitions exactly, which
    needs each trial's two partitions to see the same gain."""
    cfg, setup, draws = _draws("da", "rayleigh", 300.0, 200)
    assert len(np.unique(np.abs(draws.h))) == 200  # one fade per trial
    full = analyze(draws.samples)
    est, err = H.analog_stage(setup, full, draws)
    assert np.max(np.abs(est[:, setup.kept] - full[:, setup.kept])) < 1e-9
    side = side_info_llrs(est, err, setup.quant)
    steps = H._steps(cfg, len(full))
    H.receive(cfg, setup, full, draws, side, *steps)
    cells, crc_ok = H._decode(cfg, setup, *steps)
    assert np.all(crc_ok)
    assert np.array_equal(cells, quantize_cells(full, setup.quant))


def test_pure_analog_pass_through():
    _, setup, draws = _draws("analog", "awgn", 300.0, 10)
    assert draws.w_d.shape == (10, 0)
    full = analyze(draws.samples)
    est, _ = H.analog_stage(setup, full, draws)
    assert np.max(np.abs(est[:, setup.kept] - full[:, setup.kept])) < 1e-9


def test_budget_invariants():
    with pytest.raises(AllocationError):
        ChannelBudget(64, 40, 30, 1.0, 0.5, 0.5).validate()
    with pytest.raises(AllocationError):
        ChannelBudget(64, 32, 32, 1.0, 0.8, 0.5).validate()
    with pytest.raises(AllocationError):
        ChannelBudget(64, -1, 0, 1.0, 0.5, 0.5).validate()


def test_non_finite_symbols_rejected():
    state = ChannelState.awgn(10.0, seed=6)
    with pytest.raises(ParameterError):
        transmit(np.array([np.inf + 0j]), state)


def test_column_major_symbols_transmit_like_row_major():
    """Parity columns picked by fancy indexing come out column-major."""
    x = np.asfortranarray(np.exp(1j * np.arange(12.0)).reshape(3, 4))
    assert not x.flags.c_contiguous
    y = transmit(x, ChannelState.awgn(10.0, seed=8))
    assert np.array_equal(y, transmit(np.ascontiguousarray(x), ChannelState.awgn(10.0, seed=8)))
    with pytest.raises(ParameterError):
        transmit(np.asfortranarray(np.full((2, 2), np.nan + 0j)), ChannelState.awgn(10.0, seed=8))
